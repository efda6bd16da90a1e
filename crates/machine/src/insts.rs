//! Machine operations, functional units, and the VLIW instruction format.
//!
//! A [`VliwInst`] has one slot per functional unit; the compiler's
//! compaction pass fills as many slots as dependences and resource
//! constraints allow, and the processor retires one instruction per cycle.

use crate::regs::{AReg, FReg, IReg, Reg};
use crate::Bank;

/// Number of functional units in the model architecture.
pub const NUM_FUNC_UNITS: usize = 9;

/// One of the nine functional units (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuncUnit {
    /// Program control unit: branches, calls, returns, halt.
    Pcu,
    /// Memory unit 0: the only path to data bank X.
    Mu0,
    /// Memory unit 1: the only path to data bank Y.
    Mu1,
    /// Address unit 0.
    Au0,
    /// Address unit 1.
    Au1,
    /// Integer data unit 0.
    Du0,
    /// Integer data unit 1.
    Du1,
    /// Floating-point unit 0.
    Fpu0,
    /// Floating-point unit 1.
    Fpu1,
}

impl FuncUnit {
    /// All functional units.
    pub const ALL: [FuncUnit; NUM_FUNC_UNITS] = [
        FuncUnit::Pcu,
        FuncUnit::Mu0,
        FuncUnit::Mu1,
        FuncUnit::Au0,
        FuncUnit::Au1,
        FuncUnit::Du0,
        FuncUnit::Du1,
        FuncUnit::Fpu0,
        FuncUnit::Fpu1,
    ];

    /// The class of operations this unit executes.
    #[must_use]
    pub fn class(self) -> UnitClass {
        match self {
            FuncUnit::Pcu => UnitClass::Pcu,
            FuncUnit::Mu0 | FuncUnit::Mu1 => UnitClass::Mem,
            FuncUnit::Au0 | FuncUnit::Au1 => UnitClass::Addr,
            FuncUnit::Du0 | FuncUnit::Du1 => UnitClass::Int,
            FuncUnit::Fpu0 | FuncUnit::Fpu1 => UnitClass::Fp,
        }
    }
}

impl std::fmt::Display for FuncUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FuncUnit::Pcu => "PCU",
            FuncUnit::Mu0 => "MU0",
            FuncUnit::Mu1 => "MU1",
            FuncUnit::Au0 => "AU0",
            FuncUnit::Au1 => "AU1",
            FuncUnit::Du0 => "DU0",
            FuncUnit::Du1 => "DU1",
            FuncUnit::Fpu0 => "FPU0",
            FuncUnit::Fpu1 => "FPU1",
        };
        write!(f, "{s}")
    }
}

/// A class of functional units; each class has identical units that any
/// operation of that class may use — except memory operations, which are
/// tied to the unit of their bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitClass {
    /// Program control (1 unit).
    Pcu,
    /// Memory access (2 units, one per bank).
    Mem,
    /// Address arithmetic (2 units).
    Addr,
    /// Integer arithmetic (2 units).
    Int,
    /// Floating-point arithmetic (2 units).
    Fp,
}

impl UnitClass {
    /// Number of units in this class.
    #[must_use]
    pub fn unit_count(self) -> usize {
        match self {
            UnitClass::Pcu => 1,
            _ => 2,
        }
    }

    /// The concrete units of this class.
    #[must_use]
    pub fn units(self) -> &'static [FuncUnit] {
        match self {
            UnitClass::Pcu => &[FuncUnit::Pcu],
            UnitClass::Mem => &[FuncUnit::Mu0, FuncUnit::Mu1],
            UnitClass::Addr => &[FuncUnit::Au0, FuncUnit::Au1],
            UnitClass::Int => &[FuncUnit::Du0, FuncUnit::Du1],
            UnitClass::Fp => &[FuncUnit::Fpu0, FuncUnit::Fpu1],
        }
    }

    /// All unit classes.
    pub const ALL: [UnitClass; 5] = [
        UnitClass::Pcu,
        UnitClass::Mem,
        UnitClass::Addr,
        UnitClass::Int,
        UnitClass::Fp,
    ];
}

/// A resolved branch/call target: an absolute instruction address in the
/// linked program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstAddr(pub u32);

impl std::fmt::Display for InstAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The addressing modes of the memory units.
///
/// Register-plus-register indexed addressing is standard on DSP
/// address-generation units (e.g. the Motorola DSP56001's `(Rn+Nn)`
/// mode); modelling it directly keeps array accesses single-cycle
/// without burning address-unit slots on every element access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAddr {
    /// Direct (absolute) addressing of a statically allocated word.
    Absolute(u32),
    /// Register-indirect with immediate displacement: `base + offset`.
    Base {
        /// The address register holding the base.
        base: AReg,
        /// Word displacement added to the base.
        offset: i32,
    },
    /// Absolute base plus index register: `addr + index` (global array
    /// with a dynamic subscript). The base is signed because a negative
    /// constant displacement (e.g. `a[i - 1]`) may fold into it; the
    /// effective address is checked at run time.
    AbsIndex {
        /// Absolute word address of the array start (with any constant
        /// displacement already folded in).
        addr: i32,
        /// Integer register holding the index.
        index: IReg,
    },
    /// Register base plus index register plus displacement:
    /// `base + index + offset` (stack or parameter array with a dynamic
    /// subscript).
    BaseIndex {
        /// The address register holding the base.
        base: AReg,
        /// Integer register holding the index.
        index: IReg,
        /// Constant word displacement.
        offset: i32,
    },
}

impl std::fmt::Display for MemAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemAddr::Absolute(a) => write!(f, "[{a}]"),
            MemAddr::Base { base, offset } if *offset == 0 => write!(f, "[{base}]"),
            MemAddr::Base { base, offset } => write!(f, "[{base}{offset:+}]"),
            MemAddr::AbsIndex { addr, index } => write!(f, "[{addr}+{index}]"),
            MemAddr::BaseIndex {
                base,
                index,
                offset,
            } if *offset == 0 => write!(f, "[{base}+{index}]"),
            MemAddr::BaseIndex {
                base,
                index,
                offset,
            } => write!(f, "[{base}+{index}{offset:+}]"),
        }
    }
}

/// An operation executed by a memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Load a word from `bank` into `dst`.
    Load {
        /// Destination register (any file).
        dst: Reg,
        /// Effective address within the bank.
        addr: MemAddr,
        /// Bank accessed; determines the unit (X→MU0, Y→MU1).
        bank: Bank,
    },
    /// Store the word in `src` into `bank`.
    Store {
        /// Source register (any file).
        src: Reg,
        /// Effective address within the bank.
        addr: MemAddr,
        /// Bank accessed; determines the unit (X→MU0, Y→MU1).
        bank: Bank,
    },
}

impl MemOp {
    /// Bank accessed by this operation.
    #[must_use]
    pub fn bank(&self) -> Bank {
        match self {
            MemOp::Load { bank, .. } | MemOp::Store { bank, .. } => *bank,
        }
    }

    /// The only functional unit that can execute this operation.
    #[must_use]
    pub fn unit(&self) -> FuncUnit {
        self.bank().memory_unit()
    }

    /// True for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store { .. })
    }
}

impl std::fmt::Display for MemOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemOp::Load { dst, addr, bank } => write!(f, "ld.{bank} {dst}, {addr}"),
            MemOp::Store { src, addr, bank } => write!(f, "st.{bank} {addr}, {src}"),
        }
    }
}

/// An operation executed by an address unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrOp {
    /// Load an absolute address (or any constant) into an address register.
    Lea {
        /// Destination address register.
        dst: AReg,
        /// Absolute word address.
        addr: u32,
    },
    /// `dst = base + index` where the index comes from the integer file.
    AddIndex {
        /// Destination address register.
        dst: AReg,
        /// Base address register.
        base: AReg,
        /// Integer register holding the (word) index.
        index: IReg,
    },
    /// `dst = base + imm`.
    AddImm {
        /// Destination address register.
        dst: AReg,
        /// Base address register.
        base: AReg,
        /// Immediate word displacement.
        imm: i32,
    },
    /// Copy one address register to another.
    Mov {
        /// Destination address register.
        dst: AReg,
        /// Source address register.
        src: AReg,
    },
    /// Move an address into the integer file (e.g. to pass an array
    /// argument).
    ToInt {
        /// Destination integer register.
        dst: IReg,
        /// Source address register.
        src: AReg,
    },
    /// Move an integer into the address file (e.g. to receive an array
    /// argument).
    FromInt {
        /// Destination address register.
        dst: AReg,
        /// Source integer register.
        src: IReg,
    },
}

impl std::fmt::Display for AddrOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddrOp::Lea { dst, addr } => write!(f, "lea {dst}, {addr}"),
            AddrOp::AddIndex { dst, base, index } => write!(f, "adda {dst}, {base}, {index}"),
            AddrOp::AddImm { dst, base, imm } => write!(f, "adda {dst}, {base}, #{imm}"),
            AddrOp::Mov { dst, src } => write!(f, "mova {dst}, {src}"),
            AddrOp::ToInt { dst, src } => write!(f, "mvai {dst}, {src}"),
            AddrOp::FromInt { dst, src } => write!(f, "mvia {dst}, {src}"),
        }
    }
}

/// Binary integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntBinKind {
    /// Two's-complement addition (wrapping).
    Add,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Two's-complement multiplication (wrapping; single cycle, as in DSP
    /// multiplier arrays).
    Mul,
    /// Signed division; division by zero yields 0, as on saturating DSPs.
    Div,
    /// Signed remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (by `rhs & 31`).
    Shl,
    /// Arithmetic shift right (by `rhs & 31`).
    Shr,
}

impl std::fmt::Display for IntBinKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IntBinKind::Add => "add",
            IntBinKind::Sub => "sub",
            IntBinKind::Mul => "mul",
            IntBinKind::Div => "div",
            IntBinKind::Rem => "rem",
            IntBinKind::And => "and",
            IntBinKind::Or => "or",
            IntBinKind::Xor => "xor",
            IntBinKind::Shl => "shl",
            IntBinKind::Shr => "shr",
        };
        write!(f, "{s}")
    }
}

/// Comparison predicates (integer and floating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed / ordered less-than.
    Lt,
    /// Signed / ordered less-or-equal.
    Le,
    /// Signed / ordered greater-than.
    Gt,
    /// Signed / ordered greater-or-equal.
    Ge,
}

impl std::fmt::Display for CmpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

/// The right-hand operand of an integer operation: a register or a small
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOperand {
    /// A register operand.
    Reg(IReg),
    /// An immediate operand.
    Imm(i32),
}

impl std::fmt::Display for IntOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntOperand::Reg(r) => write!(f, "{r}"),
            IntOperand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// An operation executed by an integer data unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// `dst = lhs <kind> rhs`.
    Bin {
        /// Operation kind.
        kind: IntBinKind,
        /// Destination register.
        dst: IReg,
        /// Left operand register.
        lhs: IReg,
        /// Right operand (register or immediate).
        rhs: IntOperand,
    },
    /// `dst = (lhs <kind> rhs) ? 1 : 0`.
    Cmp {
        /// Comparison predicate.
        kind: CmpKind,
        /// Destination register (receives 0 or 1).
        dst: IReg,
        /// Left operand register.
        lhs: IReg,
        /// Right operand (register or immediate).
        rhs: IntOperand,
    },
    /// Load an immediate.
    MovImm {
        /// Destination register.
        dst: IReg,
        /// Immediate value.
        imm: i32,
    },
    /// Register copy.
    Mov {
        /// Destination register.
        dst: IReg,
        /// Source register.
        src: IReg,
    },
    /// Arithmetic negation.
    Neg {
        /// Destination register.
        dst: IReg,
        /// Source register.
        src: IReg,
    },
    /// Bitwise complement.
    Not {
        /// Destination register.
        dst: IReg,
        /// Source register.
        src: IReg,
    },
}

impl std::fmt::Display for IntOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => write!(f, "{kind} {dst}, {lhs}, {rhs}"),
            IntOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => write!(f, "s{kind} {dst}, {lhs}, {rhs}"),
            IntOp::MovImm { dst, imm } => write!(f, "movi {dst}, #{imm}"),
            IntOp::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            IntOp::Neg { dst, src } => write!(f, "neg {dst}, {src}"),
            IntOp::Not { dst, src } => write!(f, "not {dst}, {src}"),
        }
    }
}

/// Binary floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpBinKind {
    /// IEEE-754 single-precision addition.
    Add,
    /// IEEE-754 single-precision subtraction.
    Sub,
    /// IEEE-754 single-precision multiplication.
    Mul,
    /// IEEE-754 single-precision division.
    Div,
}

impl std::fmt::Display for FpBinKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FpBinKind::Add => "fadd",
            FpBinKind::Sub => "fsub",
            FpBinKind::Mul => "fmul",
            FpBinKind::Div => "fdiv",
        };
        write!(f, "{s}")
    }
}

/// An operation executed by a floating-point unit.
///
/// Equality compares [`FpOp::MovImm`] immediates by their bits, as the
/// encoding does: an operation holding a NaN immediate equals itself,
/// and `0.0` differs from `-0.0`.
#[derive(Debug, Clone, Copy)]
pub enum FpOp {
    /// `dst = lhs <kind> rhs`.
    Bin {
        /// Operation kind.
        kind: FpBinKind,
        /// Destination register.
        dst: FReg,
        /// Left operand register.
        lhs: FReg,
        /// Right operand register.
        rhs: FReg,
    },
    /// Fused multiply-accumulate `dst = dst + a * b`, the signature DSP
    /// operation (single cycle, like the 56001's `MAC`).
    Mac {
        /// Accumulator register (read and written).
        dst: FReg,
        /// First factor.
        a: FReg,
        /// Second factor.
        b: FReg,
    },
    /// `dst = (lhs <kind> rhs) ? 1 : 0`, written to the integer file.
    Cmp {
        /// Comparison predicate.
        kind: CmpKind,
        /// Destination integer register (receives 0 or 1).
        dst: IReg,
        /// Left operand register.
        lhs: FReg,
        /// Right operand register.
        rhs: FReg,
    },
    /// Load a floating-point immediate.
    MovImm {
        /// Destination register.
        dst: FReg,
        /// Immediate value.
        imm: f32,
    },
    /// Register copy.
    Mov {
        /// Destination register.
        dst: FReg,
        /// Source register.
        src: FReg,
    },
    /// Arithmetic negation.
    Neg {
        /// Destination register.
        dst: FReg,
        /// Source register.
        src: FReg,
    },
    /// Convert a signed integer to float.
    CvtItoF {
        /// Destination floating-point register.
        dst: FReg,
        /// Source integer register.
        src: IReg,
    },
    /// Convert a float to a signed integer (truncating toward zero).
    CvtFtoI {
        /// Destination integer register.
        dst: IReg,
        /// Source floating-point register.
        src: FReg,
    },
}

impl PartialEq for FpOp {
    fn eq(&self, other: &FpOp) -> bool {
        use FpOp::{Bin, Cmp, CvtFtoI, CvtItoF, Mac, Mov, MovImm, Neg};
        match (*self, *other) {
            (
                Bin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                },
                Bin {
                    kind: k,
                    dst: d,
                    lhs: l,
                    rhs: r,
                },
            ) => (kind, dst, lhs, rhs) == (k, d, l, r),
            (Mac { dst, a, b }, Mac { dst: d, a: x, b: y }) => (dst, a, b) == (d, x, y),
            (
                Cmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                },
                Cmp {
                    kind: k,
                    dst: d,
                    lhs: l,
                    rhs: r,
                },
            ) => (kind, dst, lhs, rhs) == (k, d, l, r),
            (MovImm { dst, imm }, MovImm { dst: d, imm: i }) => {
                dst == d && imm.to_bits() == i.to_bits()
            }
            (Mov { dst, src }, Mov { dst: d, src: s })
            | (Neg { dst, src }, Neg { dst: d, src: s }) => (dst, src) == (d, s),
            (CvtItoF { dst, src }, CvtItoF { dst: d, src: s }) => (dst, src) == (d, s),
            (CvtFtoI { dst, src }, CvtFtoI { dst: d, src: s }) => (dst, src) == (d, s),
            _ => false,
        }
    }
}

impl Eq for FpOp {}

impl std::fmt::Display for FpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => write!(f, "{kind} {dst}, {lhs}, {rhs}"),
            FpOp::Mac { dst, a, b } => write!(f, "fmac {dst}, {a}, {b}"),
            FpOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => write!(f, "fs{kind} {dst}, {lhs}, {rhs}"),
            FpOp::MovImm { dst, imm } => write!(f, "fmovi {dst}, #{imm}"),
            FpOp::Mov { dst, src } => write!(f, "fmov {dst}, {src}"),
            FpOp::Neg { dst, src } => write!(f, "fneg {dst}, {src}"),
            FpOp::CvtItoF { dst, src } => write!(f, "itof {dst}, {src}"),
            FpOp::CvtFtoI { dst, src } => write!(f, "ftoi {dst}, {src}"),
        }
    }
}

/// An operation executed by the program control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcuOp {
    /// Unconditional jump.
    Jump(InstAddr),
    /// Branch to `target` if `cond` is non-zero.
    BranchNz {
        /// Condition register.
        cond: IReg,
        /// Branch target.
        target: InstAddr,
    },
    /// Branch to `target` if `cond` is zero.
    BranchZ {
        /// Condition register.
        cond: IReg,
        /// Branch target.
        target: InstAddr,
    },
    /// Call a function, pushing the return address on the hardware call
    /// stack (DSPs commonly provide one in hardware).
    Call(InstAddr),
    /// Return to the address on top of the hardware call stack.
    Ret,
    /// Stop the machine.
    Halt,
}

impl std::fmt::Display for PcuOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcuOp::Jump(t) => write!(f, "jmp {t}"),
            PcuOp::BranchNz { cond, target } => write!(f, "bnz {cond}, {target}"),
            PcuOp::BranchZ { cond, target } => write!(f, "bz {cond}, {target}"),
            PcuOp::Call(t) => write!(f, "call {t}"),
            PcuOp::Ret => write!(f, "ret"),
            PcuOp::Halt => write!(f, "halt"),
        }
    }
}

/// One very long instruction word: one optional operation per functional
/// unit, all issued in the same cycle.
///
/// Reads happen before writes within a cycle, so an operation may read a
/// register that a parallel operation overwrites (this is what lets the
/// compaction pass schedule anti-dependent operations together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VliwInst {
    /// Program-control slot.
    pub pcu: Option<PcuOp>,
    /// Memory unit 0 (bank X) slot.
    pub mu0: Option<MemOp>,
    /// Memory unit 1 (bank Y) slot.
    pub mu1: Option<MemOp>,
    /// Address unit 0 slot.
    pub au0: Option<AddrOp>,
    /// Address unit 1 slot.
    pub au1: Option<AddrOp>,
    /// Integer unit 0 slot.
    pub du0: Option<IntOp>,
    /// Integer unit 1 slot.
    pub du1: Option<IntOp>,
    /// Floating-point unit 0 slot.
    pub fpu0: Option<FpOp>,
    /// Floating-point unit 1 slot.
    pub fpu1: Option<FpOp>,
}

impl VliwInst {
    /// An empty instruction (all slots vacant; executes as a no-op cycle).
    #[must_use]
    pub fn new() -> VliwInst {
        VliwInst::default()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn op_count(&self) -> usize {
        usize::from(self.pcu.is_some())
            + usize::from(self.mu0.is_some())
            + usize::from(self.mu1.is_some())
            + usize::from(self.au0.is_some())
            + usize::from(self.au1.is_some())
            + usize::from(self.du0.is_some())
            + usize::from(self.du1.is_some())
            + usize::from(self.fpu0.is_some())
            + usize::from(self.fpu1.is_some())
    }

    /// True if no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.op_count() == 0
    }

    /// Number of memory operations (0, 1 or 2).
    #[must_use]
    pub fn mem_op_count(&self) -> usize {
        usize::from(self.mu0.is_some()) + usize::from(self.mu1.is_some())
    }

    /// Check the structural invariant that each memory slot holds an
    /// operation for the matching bank.
    ///
    /// When `dual_ported` is true (the paper's *Ideal* configuration) a
    /// memory operation may occupy either slot regardless of its bank.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated slot.
    pub fn check_bank_discipline(&self, dual_ported: bool) -> Result<(), String> {
        if dual_ported {
            return Ok(());
        }
        if let Some(op) = &self.mu0 {
            if op.bank() != Bank::X {
                return Err(format!("MU0 holds a bank-{} operation: {op}", op.bank()));
            }
        }
        if let Some(op) = &self.mu1 {
            if op.bank() != Bank::Y {
                return Err(format!("MU1 holds a bank-{} operation: {op}", op.bank()));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for VliwInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(op) = &self.pcu {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.du0 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.du1 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.fpu0 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.fpu1 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.au0 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.au1 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.mu0 {
            parts.push(op.to_string());
        }
        if let Some(op) = &self.mu1 {
            parts.push(op.to_string());
        }
        if parts.is_empty() {
            write!(f, "nop")
        } else {
            write!(f, "{}", parts.join(" || "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(bank: Bank) -> MemOp {
        MemOp::Load {
            dst: Reg::Int(IReg(0)),
            addr: MemAddr::Absolute(0),
            bank,
        }
    }

    #[test]
    fn fp_immediates_compare_by_bits() {
        let movi = |imm: f32| FpOp::MovImm { dst: FReg(1), imm };
        assert_eq!(movi(f32::NAN), movi(f32::NAN));
        assert_ne!(movi(0.0), movi(-0.0));
        assert_ne!(
            movi(1.0),
            FpOp::MovImm {
                dst: FReg(2),
                imm: 1.0
            }
        );
        let mov = FpOp::Mov {
            dst: FReg(1),
            src: FReg(2),
        };
        let neg = FpOp::Neg {
            dst: FReg(1),
            src: FReg(2),
        };
        assert_eq!(mov, mov);
        assert_ne!(mov, neg);
        let mut inst = VliwInst::new();
        inst.fpu0 = Some(movi(f32::NAN));
        assert_eq!(inst, inst);
    }

    #[test]
    fn empty_inst_is_nop() {
        let inst = VliwInst::new();
        assert!(inst.is_empty());
        assert_eq!(inst.op_count(), 0);
        assert_eq!(inst.to_string(), "nop");
    }

    #[test]
    fn op_count_counts_all_slots() {
        let mut inst = VliwInst::new();
        inst.pcu = Some(PcuOp::Halt);
        inst.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 3,
        });
        inst.mu1 = Some(load(Bank::Y));
        assert_eq!(inst.op_count(), 3);
        assert_eq!(inst.mem_op_count(), 1);
    }

    #[test]
    fn bank_discipline_enforced() {
        let mut inst = VliwInst::new();
        inst.mu0 = Some(load(Bank::X));
        inst.mu1 = Some(load(Bank::Y));
        assert!(inst.check_bank_discipline(false).is_ok());

        let mut bad = VliwInst::new();
        bad.mu0 = Some(load(Bank::Y));
        assert!(bad.check_bank_discipline(false).is_err());
        // Dual-ported (Ideal) memory tolerates any placement.
        assert!(bad.check_bank_discipline(true).is_ok());
    }

    #[test]
    fn unit_classes_cover_all_units() {
        let mut n = 0;
        for c in UnitClass::ALL {
            n += c.unit_count();
            for u in c.units() {
                assert_eq!(u.class(), c);
            }
        }
        assert_eq!(n, NUM_FUNC_UNITS);
    }

    #[test]
    fn display_smoke() {
        let mut inst = VliwInst::new();
        inst.du0 = Some(IntOp::Bin {
            kind: IntBinKind::Add,
            dst: IReg(2),
            lhs: IReg(0),
            rhs: IntOperand::Imm(4),
        });
        inst.mu0 = Some(load(Bank::X));
        let s = inst.to_string();
        assert!(s.contains("add r2, r0, #4"), "{s}");
        assert!(s.contains("ld.X r0, [0]"), "{s}");
    }

    #[test]
    fn mem_op_unit_follows_bank() {
        assert_eq!(load(Bank::X).unit(), FuncUnit::Mu0);
        assert_eq!(load(Bank::Y).unit(), FuncUnit::Mu1);
        assert!(!load(Bank::X).is_store());
    }
}
