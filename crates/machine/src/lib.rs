#![warn(missing_docs)]
//! Target description for the dual-bank VLIW model DSP.
//!
//! This crate models the architecture of Figure 2 in Saghir, Chow & Lee,
//! *Exploiting Dual Data-Memory Banks in Digital Signal Processors*
//! (ASPLOS 1996): a Very Long Instruction Word processor with nine
//! functional units —
//!
//! * a program control unit ([`FuncUnit::Pcu`]),
//! * two memory-access units ([`FuncUnit::Mu0`] reaching the **X** data
//!   bank and [`FuncUnit::Mu1`] reaching the **Y** data bank),
//! * two address units ([`FuncUnit::Au0`], [`FuncUnit::Au1`]),
//! * two integer data units ([`FuncUnit::Du0`], [`FuncUnit::Du1`]), and
//! * two floating-point units ([`FuncUnit::Fpu0`], [`FuncUnit::Fpu1`]),
//!
//! plus three 32-entry register files (address, integer, floating point).
//! Every unit has a single-cycle latency, so one [`VliwInst`] retires per
//! cycle and performance is simply the number of instructions executed.
//!
//! The two data banks are **high-order interleaved**: a variable or array
//! lives entirely in one bank, and a load/store reaches bank X only through
//! MU0 and bank Y only through MU1. Packing two memory operations into one
//! instruction therefore requires their data to sit in *different* banks —
//! the problem the paper's compaction-based partitioning solves.
//!
//! # Example
//!
//! ```
//! use dsp_machine::{Bank, VliwInst, MemOp, MemAddr, IReg, AReg};
//!
//! // One VLIW instruction performing two parallel loads, one per bank.
//! let mut inst = VliwInst::new();
//! inst.mu0 = Some(MemOp::Load {
//!     dst: IReg(0).into(),
//!     addr: MemAddr::Base { base: AReg(0), offset: 0 },
//!     bank: Bank::X,
//! });
//! inst.mu1 = Some(MemOp::Load {
//!     dst: IReg(1).into(),
//!     addr: MemAddr::Base { base: AReg(1), offset: 0 },
//!     bank: Bank::Y,
//! });
//! assert_eq!(inst.op_count(), 2);
//! ```

pub mod encode;
pub mod insts;
pub mod program;
pub mod regs;
pub mod word;

pub use encode::{decode_inst, decode_stream, encode_inst, encode_stream, DecodeError};
pub use insts::{
    AddrOp, CmpKind, FpBinKind, FpOp, FuncUnit, InstAddr, IntBinKind, IntOp, IntOperand, MemAddr,
    MemOp, PcuOp, UnitClass, VliwInst, NUM_FUNC_UNITS,
};
pub use program::{DataImage, DataSymbol, Label, VliwFunction, VliwProgram, MAX_BANK_WORDS};
pub use regs::{AReg, FReg, IReg, Reg, RegClass, NUM_REGS_PER_FILE};
pub use word::Word;

/// One of the two single-ported data-memory banks.
///
/// The banks are high-order interleaved: an entire variable or array is
/// allocated to exactly one bank. Bank X is reached through memory unit
/// MU0 and bank Y through MU1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bank {
    /// The X data-memory bank (accessed via MU0).
    X,
    /// The Y data-memory bank (accessed via MU1).
    Y,
}

impl Bank {
    /// The opposite bank.
    ///
    /// ```
    /// use dsp_machine::Bank;
    /// assert_eq!(Bank::X.other(), Bank::Y);
    /// assert_eq!(Bank::Y.other(), Bank::X);
    /// ```
    #[must_use]
    pub fn other(self) -> Bank {
        match self {
            Bank::X => Bank::Y,
            Bank::Y => Bank::X,
        }
    }

    /// The memory unit that reaches this bank.
    #[must_use]
    pub fn memory_unit(self) -> FuncUnit {
        match self {
            Bank::X => FuncUnit::Mu0,
            Bank::Y => FuncUnit::Mu1,
        }
    }

    /// All banks, in `X`, `Y` order.
    pub const ALL: [Bank; 2] = [Bank::X, Bank::Y];
}

impl std::fmt::Display for Bank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bank::X => write!(f, "X"),
            Bank::Y => write!(f, "Y"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_other_is_involutive() {
        for b in Bank::ALL {
            assert_eq!(b.other().other(), b);
        }
    }

    #[test]
    fn bank_maps_to_distinct_memory_units() {
        assert_ne!(Bank::X.memory_unit(), Bank::Y.memory_unit());
        assert_eq!(Bank::X.memory_unit(), FuncUnit::Mu0);
        assert_eq!(Bank::Y.memory_unit(), FuncUnit::Mu1);
    }

    #[test]
    fn bank_display() {
        assert_eq!(Bank::X.to_string(), "X");
        assert_eq!(Bank::Y.to_string(), "Y");
    }
}
