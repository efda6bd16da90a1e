#![warn(missing_docs)]
//! Cycle-counting instruction-set simulator for the dual-bank VLIW DSP.
//!
//! The paper evaluates its algorithms by executing compiled code "on the
//! instruction-set simulator of our model DSP architecture" and counting
//! cycles (§4). This simulator does the same: every functional unit has
//! a single-cycle latency, so one [`VliwInst`] retires per cycle and the
//! cycle count *is* the executed-instruction count.
//!
//! Within a cycle, all operand reads happen before any write commits —
//! the semantics the compaction pass relies on when it packs
//! anti-dependent operations into one instruction. The decoder orders
//! each cycle's operations so that they can run one after another, in
//! place, with that effect.
//!
//! The simulator enforces the memory-bank discipline: in the normal
//! (single-ported) configuration, the MU0 slot may only hold bank-X
//! operations and MU1 only bank-Y operations. The *Ideal* configuration
//! of the paper — a dual-ported memory — is modelled by
//! [`SimOptions::dual_ported`], which lets either unit reach either
//! bank. The discipline is a static property of the program, so it is
//! checked once, through [`VliwProgram::validate`], with the rest of the
//! program's structure and its data layout. [`Simulator::new`] allocates
//! the banks only after that check passes; a program that fails it
//! allocates nothing and [`Simulator::run`] reports [`SimError::Invalid`].
//!
//! # The micro-op table
//!
//! [`Simulator::new`] decodes every instruction once. Each occupied
//! slot except the PCU's becomes one micro-op in a flat table, and the
//! decode resolves every operand:
//!
//! * **One register file.** The address, integer and floating-point
//!   files are three consecutive runs of one array of words, so every
//!   register operand is a single `u8` slot. Eight spare slots, a
//!   condition slot and a sink follow them, and a last slot always reads
//!   zero: nothing ever writes it.
//! * **One addressing form.** All four [`MemAddr`] modes become
//!   `(base, index, offset)`, with the zero slot standing in for any
//!   missing register. The effective address is
//!   `u32(base) + i32(index) + offset`, computed in `i64` and checked
//!   against the bank.
//! * **Operands resolved.** Immediates, `lea`, register copies within
//!   or across files, and address arithmetic become the micro-op of the
//!   operation they compute (a constant, a copy, an integer add).
//!
//! Each instruction's micro-ops are ordered for in-place execution:
//!
//! * A micro-op that writes a register comes after every other micro-op
//!   of the cycle that reads it. Where that order loops back on itself,
//!   as in the swap `r1 = r2 || r2 = r1`, one writer writes a spare slot
//!   instead and a trailing `Mov` copies the spare into its register.
//! * Of two slots writing one register, the later wins: the earlier one
//!   writes the sink.
//! * Memory micro-ops keep slot order, so the first memory unit to fault
//!   is the one reported. The exception is a store beside a load in the
//!   same bank (dual-ported memory only): the load must read the word
//!   before the store replaces it, so it runs first, after a load of the
//!   store's address into the sink that faults just as the store would.
//! * A branch whose condition register its own instruction writes reads
//!   a copy taken into the condition slot before the write.
//! * An instruction that writes a stack pointer ends in `MarkStack`,
//!   which raises the stack high-water marks.
//!
//! The instructions' micro-ops lie in program order, so a straight-line
//! stretch of instructions — up to and including the first with a
//! control operation, or the last of the program — is one contiguous run
//! of the table. Each PC gets a `Seg`: where the micro-ops of the
//! stretch starting there end, how many cycles it spans, and the
//! control operation that ends it. [`Simulator::run`] executes one
//! stretch per iteration of its one loop. When the fuel left is shorter
//! than the stretch, it runs only the instructions the fuel pays for and
//! reports [`SimError::FuelExhausted`]; a fault inside a stretch reports
//! the PC of the instruction that holds the faulting micro-op.
//!
//! After an error the machine state — registers, banks and visit
//! counts — is unspecified: a fault stops inside a cycle, after some of
//! its micro-ops have run, and the visit counts are still stretch
//! entries. The batch engine, the workload runner and the CLI return
//! the error before reading any state.
//!
//! # Statistics
//!
//! The statistics are static too, except for how often each instruction
//! runs. The same decoding pass builds a table of per-PC facts —
//! operations, loads, stores, dual-memory and same-bank cycles, unit
//! occupancy. A run counts one entry per stretch, at the stretch's first
//! PC; at halt it folds the entries into per-PC visits, which
//! [`Simulator::pc_visits`] returns: a PC runs once for every entry of a
//! stretch that covers it. Each [`SimStats`] count is the sum over the
//! program of visits × that PC's fact, and `cycles` is the sum of the
//! visits. Only the stack high-water marks depend on machine state;
//! `MarkStack` updates them after each instruction that writes a stack
//! pointer.
//!
//! # Outcomes
//!
//! [`simulate`] is the one way the tool chain runs a program: it builds
//! a [`Simulator`], runs it, and keeps what callers read of a halted
//! run — the [`SimStats`] and the final words of every data symbol, in
//! both banks for a duplicated one — as an [`Outcome`], or the
//! [`SimError`]. The banks themselves, stack included, are dropped. An
//! outcome is a pure function of the program and the [`SimOptions`],
//! which is what lets `dsp-driver` share one among the cells of a sweep
//! that run the same program under the same options.

use std::ops::Range;
use std::time::{Duration, Instant};

use dsp_machine::{
    AReg, AddrOp, Bank, CmpKind, DataSymbol, FReg, FpBinKind, FpOp, FuncUnit, IReg, IntBinKind,
    IntOp, IntOperand, MemAddr, MemOp, PcuOp, Reg, VliwInst, VliwProgram, Word, CALL_STACK_DEPTH,
    NUM_REGS_PER_FILE,
};

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Model a dual-ported memory: either memory unit may access either
    /// bank (the paper's *Ideal* configuration).
    pub dual_ported: bool,
    /// Cycle budget before aborting (runaway guard).
    pub fuel: u64,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            dual_ported: false,
            fuel: 2_000_000_000,
        }
    }
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles executed (== VLIW instructions retired).
    pub cycles: u64,
    /// Total operations executed across all slots.
    pub ops: u64,
    /// Memory loads performed.
    pub loads: u64,
    /// Memory stores performed.
    pub stores: u64,
    /// Cycles in which both memory units were busy — the parallelism the
    /// paper's techniques try to create.
    pub dual_mem_cycles: u64,
    /// Cycles in which both memory units hit the *same* bank. Only a
    /// dual-ported (Ideal) memory allows this; the count is exactly the
    /// bandwidth real banked hardware could not have delivered.
    pub bank_conflict_cycles: u64,
    /// High-water mark of the bank-X stack, in words above its base.
    pub max_stack_x: u32,
    /// High-water mark of the bank-Y stack, in words above its base.
    pub max_stack_y: u32,
    /// Operations executed per functional unit, indexed like
    /// [`dsp_machine::FuncUnit::ALL`].
    pub unit_ops: [u64; dsp_machine::NUM_FUNC_UNITS],
}

impl SimStats {
    /// Mean occupied slots per cycle — a VLIW utilization figure.
    #[must_use]
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }

    /// The larger of the two stack high-water marks, used as the `S`
    /// term of the paper's memory-cost model.
    #[must_use]
    pub fn max_stack_words(&self) -> u32 {
        self.max_stack_x.max(self.max_stack_y)
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed static validation, which includes the
    /// memory-bank discipline and the data layout.
    Invalid(String),
    /// An access fell outside the bank.
    AddrOutOfRange {
        /// Program counter.
        pc: u32,
        /// The bank accessed.
        bank: Bank,
        /// The offending word address.
        addr: i64,
    },
    /// The program counter left the instruction memory without halting.
    PcOutOfRange {
        /// The bad program counter.
        pc: u32,
    },
    /// `ret` with an empty hardware call stack.
    CallStackUnderflow {
        /// Program counter.
        pc: u32,
    },
    /// `call` with the hardware call stack already full.
    CallStackOverflow {
        /// Program counter.
        pc: u32,
    },
    /// The cycle budget was exhausted.
    FuelExhausted,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid program: {e}"),
            SimError::AddrOutOfRange { pc, bank, addr } => {
                write!(f, "address {addr} out of range for bank {bank} at pc {pc}")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            SimError::CallStackUnderflow { pc } => {
                write!(f, "call-stack underflow at pc {pc}")
            }
            SimError::CallStackOverflow { pc } => {
                write!(f, "call-stack overflow at pc {pc}")
            }
            SimError::FuelExhausted => write!(f, "cycle budget exhausted"),
        }
    }
}

impl std::error::Error for SimError {}

/// The final words of one data symbol after a halted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolWords {
    /// The symbol's name.
    pub name: String,
    /// Its words in its home bank.
    pub words: Vec<Word>,
    /// Its words in the other bank, for a duplicated symbol.
    pub copy: Option<Vec<Word>>,
}

/// What a halted run leaves for its callers: its statistics and every
/// data symbol's final words, in symbol-table order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The run's statistics.
    pub stats: SimStats,
    /// Each data symbol's final words.
    pub symbols: Vec<SymbolWords>,
}

impl Outcome {
    /// The final words of the data symbol `name`.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<&SymbolWords> {
        self.symbols.iter().find(|s| s.name == name)
    }
}

/// One simulation of a program ([`simulate`]): its outcome and where
/// its wall time went.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The outcome, or why the run stopped.
    pub outcome: Result<Outcome, SimError>,
    /// Wall time of [`Simulator::new`]: validation, decoding and the
    /// banks.
    pub decode: Duration,
    /// Wall time of [`Simulator::run`] and of reading the symbols.
    pub execute: Duration,
}

/// Run `program` under `options` to `halt` or an error, keeping the
/// [`Outcome`].
#[must_use]
pub fn simulate(program: &VliwProgram, options: SimOptions) -> SimRun {
    let start = Instant::now();
    let mut sim = Simulator::new(program, options);
    let decode = start.elapsed();
    let outcome = sim.run().map(|stats| Outcome {
        stats,
        symbols: program
            .symbols
            .iter()
            .filter_map(|s| {
                Some(SymbolWords {
                    name: s.name.clone(),
                    words: sim.symbol_words(s, s.home)?,
                    copy: if s.duplicated {
                        sim.symbol_words(s, s.home.other())
                    } else {
                        None
                    },
                })
            })
            .collect(),
    });
    SimRun {
        outcome,
        decode,
        execute: start.elapsed() - decode,
    }
}

/// Static facts about one instruction: what executing it adds to the
/// statistics, whatever the machine state.
#[derive(Debug, Clone, Copy)]
struct PcFacts {
    ops: u8,
    loads: u8,
    stores: u8,
    /// Both memory units busy.
    dual_mem: bool,
    /// Both memory units on the same bank (dual-ported memory only).
    bank_conflict: bool,
    /// Bit `i` is set when [`FuncUnit::ALL`]`[i]` is busy.
    units: u16,
}

impl PcFacts {
    fn decode(inst: &VliwInst) -> PcFacts {
        let mut units = 0u16;
        for (idx, unit) in FuncUnit::ALL.iter().enumerate() {
            let occupied = match unit {
                FuncUnit::Pcu => inst.pcu.is_some(),
                FuncUnit::Mu0 => inst.mu0.is_some(),
                FuncUnit::Mu1 => inst.mu1.is_some(),
                FuncUnit::Au0 => inst.au0.is_some(),
                FuncUnit::Au1 => inst.au1.is_some(),
                FuncUnit::Du0 => inst.du0.is_some(),
                FuncUnit::Du1 => inst.du1.is_some(),
                FuncUnit::Fpu0 => inst.fpu0.is_some(),
                FuncUnit::Fpu1 => inst.fpu1.is_some(),
            };
            if occupied {
                units |= 1 << idx;
            }
        }
        let mem_count = inst.mem_op_count() as u8;
        let stores = [&inst.mu0, &inst.mu1]
            .into_iter()
            .flatten()
            .filter(|op| op.is_store())
            .count() as u8;
        let dual_mem = mem_count == 2;
        PcFacts {
            ops: inst.op_count() as u8,
            loads: mem_count - stores,
            stores,
            dual_mem,
            bank_conflict: dual_mem
                && inst.mu0.as_ref().map(MemOp::bank) == inst.mu1.as_ref().map(MemOp::bank),
            units,
        }
    }
}

/// First slot of the address file in the unified register file.
const ADDR_FILE: usize = 0;
/// First slot of the integer file.
const INT_FILE: usize = NUM_REGS_PER_FILE;
/// First slot of the floating-point file.
const FP_FILE: usize = 2 * NUM_REGS_PER_FILE;
/// Registers the machine has: the three files.
const ARCH_SLOTS: usize = 3 * NUM_REGS_PER_FILE;
/// The first of [`MAX_WRITES`] spare slots. A writer that must run
/// before a reader of its register writes a spare instead, and a
/// trailing `Mov` copies the spare into the register.
const SPARE: u8 = ARCH_SLOTS as u8;
/// The copy of a branch condition that its own instruction overwrites.
const COND: u8 = SPARE + MAX_WRITES as u8;
/// Written by operations whose result no one reads: a register write
/// that a later slot of the same instruction overrides, and the address
/// probe of a store.
const SINK: u8 = COND + 1;
/// The slot that always reads zero.
const ZERO: u8 = SINK + 1;
/// Slots in the unified register file: the three files, the spare,
/// condition and sink slots, and the zero slot.
const REG_SLOTS: usize = ZERO as usize + 1;
/// The two stack pointers' slots.
const SP_X: u8 = (ADDR_FILE + AReg::SP_X.0 as usize) as u8;
const SP_Y: u8 = (ADDR_FILE + AReg::SP_Y.0 as usize) as u8;

/// A memory operand: `u32(regs[base]) + i32(regs[index]) + offset`.
#[derive(Debug, Clone, Copy)]
struct Addr {
    base: u8,
    index: u8,
    offset: i64,
}

/// One decoded operation of a functional unit other than the PCU.
/// Register operands are slots of the unified register file.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    /// `dst = word`: integer and float immediates, `lea`.
    Const {
        dst: u8,
        word: Word,
    },
    /// `dst = src`, within a file or across files.
    Mov {
        dst: u8,
        src: u8,
    },
    /// Integer `dst = lhs <kind> rhs`; also address-plus-index.
    IBin {
        kind: IntBinKind,
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    /// Integer `dst = lhs <kind> imm`; also address-plus-immediate.
    IBinImm {
        kind: IntBinKind,
        dst: u8,
        lhs: u8,
        imm: i32,
    },
    ICmp {
        kind: CmpKind,
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    ICmpImm {
        kind: CmpKind,
        dst: u8,
        lhs: u8,
        imm: i32,
    },
    INeg {
        dst: u8,
        src: u8,
    },
    INot {
        dst: u8,
        src: u8,
    },
    FBin {
        kind: FpBinKind,
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    /// `dst = acc + a * b`; `acc` is the instruction's `dst` register,
    /// read even when the result goes to a spare or the sink.
    FMac {
        dst: u8,
        acc: u8,
        a: u8,
        b: u8,
    },
    /// Floating-point compare into an integer slot.
    FCmp {
        kind: CmpKind,
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    FNeg {
        dst: u8,
        src: u8,
    },
    ItoF {
        dst: u8,
        src: u8,
    },
    FtoI {
        dst: u8,
        src: u8,
    },
    Load {
        dst: u8,
        bank: Bank,
        addr: Addr,
    },
    Store {
        src: u8,
        bank: Bank,
        addr: Addr,
    },
    /// Raise the stack high-water marks to the stack pointers; ends every
    /// instruction that writes one.
    MarkStack,
}

impl MicroOp {
    /// The slot it writes, if any.
    fn dst_mut(&mut self) -> Option<&mut u8> {
        match self {
            MicroOp::Const { dst, .. }
            | MicroOp::Mov { dst, .. }
            | MicroOp::IBin { dst, .. }
            | MicroOp::IBinImm { dst, .. }
            | MicroOp::ICmp { dst, .. }
            | MicroOp::ICmpImm { dst, .. }
            | MicroOp::INeg { dst, .. }
            | MicroOp::INot { dst, .. }
            | MicroOp::FBin { dst, .. }
            | MicroOp::FMac { dst, .. }
            | MicroOp::FCmp { dst, .. }
            | MicroOp::FNeg { dst, .. }
            | MicroOp::ItoF { dst, .. }
            | MicroOp::FtoI { dst, .. }
            | MicroOp::Load { dst, .. } => Some(dst),
            MicroOp::Store { .. } | MicroOp::MarkStack => None,
        }
    }

    fn dst(mut self) -> Option<u8> {
        self.dst_mut().copied()
    }

    /// The slots it reads, padded with [`ZERO`].
    fn reads(self) -> [u8; 3] {
        match self {
            MicroOp::Const { .. } | MicroOp::MarkStack => [ZERO; 3],
            MicroOp::Mov { src, .. }
            | MicroOp::INeg { src, .. }
            | MicroOp::INot { src, .. }
            | MicroOp::FNeg { src, .. }
            | MicroOp::ItoF { src, .. }
            | MicroOp::FtoI { src, .. } => [src, ZERO, ZERO],
            MicroOp::IBin { lhs, rhs, .. }
            | MicroOp::ICmp { lhs, rhs, .. }
            | MicroOp::FBin { lhs, rhs, .. }
            | MicroOp::FCmp { lhs, rhs, .. } => [lhs, rhs, ZERO],
            MicroOp::IBinImm { lhs, .. } | MicroOp::ICmpImm { lhs, .. } => [lhs, ZERO, ZERO],
            MicroOp::FMac { acc, a, b, .. } => [acc, a, b],
            MicroOp::Load { addr, .. } => [addr.base, addr.index, ZERO],
            MicroOp::Store { src, addr, .. } => [src, addr.base, addr.index],
        }
    }
}

/// A decoded PCU operation.
#[derive(Debug, Clone, Copy)]
enum Pcu {
    /// No control operation: fall through.
    Next,
    Jump(u32),
    BranchNz {
        cond: u8,
        target: u32,
    },
    BranchZ {
        cond: u8,
        target: u32,
    },
    Call(u32),
    Ret,
    Halt,
}

/// One PC's entry in the decoded program: the straight-line stretch
/// that starts there and runs to the first instruction with a control
/// operation, or to the last instruction.
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// This PC's own micro-ops start at `code[start]`; the stretch's are
    /// `code[start..end]`.
    start: u32,
    end: u32,
    /// Instructions in the stretch.
    cycles: u32,
    /// The control operation of its last instruction.
    ctl: Pcu,
}

/// A register index outside its file, found while decoding.
#[derive(Debug)]
struct BadReg(u8);

fn slot(file: usize, index: u8) -> Result<u8, BadReg> {
    if usize::from(index) < NUM_REGS_PER_FILE {
        Ok((file + usize::from(index)) as u8)
    } else {
        Err(BadReg(index))
    }
}

fn areg(r: AReg) -> Result<u8, BadReg> {
    slot(ADDR_FILE, r.0)
}

fn ireg(r: IReg) -> Result<u8, BadReg> {
    slot(INT_FILE, r.0)
}

fn freg(r: FReg) -> Result<u8, BadReg> {
    slot(FP_FILE, r.0)
}

fn any_reg(r: Reg) -> Result<u8, BadReg> {
    match r {
        Reg::Addr(r) => areg(r),
        Reg::Int(r) => ireg(r),
        Reg::Float(r) => freg(r),
    }
}

fn decode_addr(addr: MemAddr) -> Result<Addr, BadReg> {
    Ok(match addr {
        MemAddr::Absolute(offset) => Addr {
            base: ZERO,
            index: ZERO,
            offset: i64::from(offset),
        },
        MemAddr::Base { base, offset } => Addr {
            base: areg(base)?,
            index: ZERO,
            offset: i64::from(offset),
        },
        MemAddr::AbsIndex { addr, index } => Addr {
            base: ZERO,
            index: ireg(index)?,
            offset: i64::from(addr),
        },
        MemAddr::BaseIndex {
            base,
            index,
            offset,
        } => Addr {
            base: areg(base)?,
            index: ireg(index)?,
            offset: i64::from(offset),
        },
    })
}

fn decode_int(op: &IntOp) -> Result<MicroOp, BadReg> {
    Ok(match *op {
        IntOp::Bin {
            kind,
            dst,
            lhs,
            rhs: IntOperand::Reg(rhs),
        } => MicroOp::IBin {
            kind,
            dst: ireg(dst)?,
            lhs: ireg(lhs)?,
            rhs: ireg(rhs)?,
        },
        IntOp::Bin {
            kind,
            dst,
            lhs,
            rhs: IntOperand::Imm(imm),
        } => MicroOp::IBinImm {
            kind,
            dst: ireg(dst)?,
            lhs: ireg(lhs)?,
            imm,
        },
        IntOp::Cmp {
            kind,
            dst,
            lhs,
            rhs: IntOperand::Reg(rhs),
        } => MicroOp::ICmp {
            kind,
            dst: ireg(dst)?,
            lhs: ireg(lhs)?,
            rhs: ireg(rhs)?,
        },
        IntOp::Cmp {
            kind,
            dst,
            lhs,
            rhs: IntOperand::Imm(imm),
        } => MicroOp::ICmpImm {
            kind,
            dst: ireg(dst)?,
            lhs: ireg(lhs)?,
            imm,
        },
        IntOp::MovImm { dst, imm } => MicroOp::Const {
            dst: ireg(dst)?,
            word: Word::from_i32(imm),
        },
        IntOp::Mov { dst, src } => MicroOp::Mov {
            dst: ireg(dst)?,
            src: ireg(src)?,
        },
        IntOp::Neg { dst, src } => MicroOp::INeg {
            dst: ireg(dst)?,
            src: ireg(src)?,
        },
        IntOp::Not { dst, src } => MicroOp::INot {
            dst: ireg(dst)?,
            src: ireg(src)?,
        },
    })
}

fn decode_fp(op: &FpOp) -> Result<MicroOp, BadReg> {
    Ok(match *op {
        FpOp::Bin {
            kind,
            dst,
            lhs,
            rhs,
        } => MicroOp::FBin {
            kind,
            dst: freg(dst)?,
            lhs: freg(lhs)?,
            rhs: freg(rhs)?,
        },
        FpOp::Mac { dst, a, b } => MicroOp::FMac {
            dst: freg(dst)?,
            acc: freg(dst)?,
            a: freg(a)?,
            b: freg(b)?,
        },
        FpOp::Cmp {
            kind,
            dst,
            lhs,
            rhs,
        } => MicroOp::FCmp {
            kind,
            dst: ireg(dst)?,
            lhs: freg(lhs)?,
            rhs: freg(rhs)?,
        },
        FpOp::MovImm { dst, imm } => MicroOp::Const {
            dst: freg(dst)?,
            word: Word::from_f32(imm),
        },
        FpOp::Mov { dst, src } => MicroOp::Mov {
            dst: freg(dst)?,
            src: freg(src)?,
        },
        FpOp::Neg { dst, src } => MicroOp::FNeg {
            dst: freg(dst)?,
            src: freg(src)?,
        },
        FpOp::CvtItoF { dst, src } => MicroOp::ItoF {
            dst: freg(dst)?,
            src: ireg(src)?,
        },
        FpOp::CvtFtoI { dst, src } => MicroOp::FtoI {
            dst: ireg(dst)?,
            src: freg(src)?,
        },
    })
}

fn decode_addr_op(op: &AddrOp) -> Result<MicroOp, BadReg> {
    // Address arithmetic wraps modulo 2^32, exactly as integer addition.
    Ok(match *op {
        AddrOp::Lea { dst, addr } => MicroOp::Const {
            dst: areg(dst)?,
            word: Word(addr),
        },
        AddrOp::AddIndex { dst, base, index } => MicroOp::IBin {
            kind: IntBinKind::Add,
            dst: areg(dst)?,
            lhs: areg(base)?,
            rhs: ireg(index)?,
        },
        AddrOp::AddImm { dst, base, imm } => MicroOp::IBinImm {
            kind: IntBinKind::Add,
            dst: areg(dst)?,
            lhs: areg(base)?,
            imm,
        },
        AddrOp::Mov { dst, src } => MicroOp::Mov {
            dst: areg(dst)?,
            src: areg(src)?,
        },
        AddrOp::ToInt { dst, src } => MicroOp::Mov {
            dst: ireg(dst)?,
            src: areg(src)?,
        },
        AddrOp::FromInt { dst, src } => MicroOp::Mov {
            dst: areg(dst)?,
            src: ireg(src)?,
        },
    })
}

fn decode_mem(op: &MemOp) -> Result<MicroOp, BadReg> {
    Ok(match *op {
        MemOp::Load { dst, addr, bank } => MicroOp::Load {
            dst: any_reg(dst)?,
            bank,
            addr: decode_addr(addr)?,
        },
        MemOp::Store { src, addr, bank } => MicroOp::Store {
            src: any_reg(src)?,
            bank,
            addr: decode_addr(addr)?,
        },
    })
}

fn decode_pcu(op: Option<PcuOp>) -> Result<Pcu, BadReg> {
    Ok(match op {
        None => Pcu::Next,
        Some(PcuOp::Jump(t)) => Pcu::Jump(t.0),
        Some(PcuOp::BranchNz { cond, target }) => Pcu::BranchNz {
            cond: ireg(cond)?,
            target: target.0,
        },
        Some(PcuOp::BranchZ { cond, target }) => Pcu::BranchZ {
            cond: ireg(cond)?,
            target: target.0,
        },
        Some(PcuOp::Call(t)) => Pcu::Call(t.0),
        Some(PcuOp::Ret) => Pcu::Ret,
        Some(PcuOp::Halt) => Pcu::Halt,
    })
}

/// The most register writes one instruction makes: two each from the
/// integer, floating-point and address units, plus two loads.
const MAX_WRITES: usize = 8;
/// The most micro-ops one instruction orders: six non-memory operations,
/// a load, a store and the store's address probe, and a condition copy.
const MAX_OPS: usize = 10;

/// Append the operations of `inst` to `code` in slot order (integer,
/// floating-point, address, then memory units).
fn slot_ops(inst: &VliwInst, code: &mut Vec<MicroOp>) -> Result<(), BadReg> {
    for op in [&inst.du0, &inst.du1].into_iter().flatten() {
        code.push(decode_int(op)?);
    }
    for op in [&inst.fpu0, &inst.fpu1].into_iter().flatten() {
        code.push(decode_fp(op)?);
    }
    for op in [&inst.au0, &inst.au1].into_iter().flatten() {
        code.push(decode_addr_op(op)?);
    }
    for op in [&inst.mu0, &inst.mu1].into_iter().flatten() {
        code.push(decode_mem(op)?);
    }
    Ok(())
}

/// Append the micro-ops of `inst` to `code`, ordered so that running
/// them one after another, in place, has the effect of the cycle: every
/// operand reads the value from before the cycle, the last slot writing
/// a register wins, and the first memory unit to fault is reported.
/// Return the instruction's control operation, whose condition slot may
/// be [`COND`].
fn decode_inst(inst: &VliwInst, code: &mut Vec<MicroOp>) -> Result<Pcu, BadReg> {
    let first = code.len();
    slot_ops(inst, code)?;
    let mut mem = code.len() - inst.mem_op_count()..code.len();
    // A load beside a store to the same bank reads the word before the
    // store replaces it, so it runs first, after a probe of the store's
    // address that faults as the store would.
    if let &[store @ MicroOp::Store { bank, addr, .. }, load @ MicroOp::Load { bank: b, .. }] =
        &code[mem.clone()]
    {
        if bank == b {
            code.truncate(mem.start);
            code.extend([
                MicroOp::Load {
                    dst: SINK,
                    bank,
                    addr,
                },
                load,
                store,
            ]);
            mem.end += 1;
        }
    }
    // The slots written, as a bit set; a write that a later slot
    // overrides goes to the sink.
    let bit = |slot: u8| 1u128 << slot;
    let mut written = 0;
    for op in code[first..].iter_mut().rev() {
        if let Some(dst) = op.dst_mut() {
            if written & bit(*dst) != 0 {
                *dst = SINK;
            }
            written |= bit(*dst);
        }
    }
    let mut pcu = decode_pcu(inst.pcu)?;
    if let Pcu::BranchNz { cond, .. } | Pcu::BranchZ { cond, .. } = &mut pcu {
        if written & bit(*cond) != 0 {
            code.push(MicroOp::Mov {
                dst: COND,
                src: *cond,
            });
            *cond = COND;
        }
    }
    // Slot order already reads before it writes unless an operation
    // reads what another one writes.
    let clash = code[first..].iter().any(|op| {
        let others = written & !op.dst().map_or(0, bit);
        op.reads().iter().any(|&r| others & bit(r) != 0)
    });
    if clash {
        let mut ops = [MicroOp::MarkStack; MAX_OPS];
        let n = code.len() - first;
        ops[..n].copy_from_slice(&code[first..]);
        code.truncate(first);
        order(&mut ops[..n], mem.start - first..mem.end - first, code);
    }
    if written & (bit(SP_X) | bit(SP_Y)) != 0 {
        code.push(MicroOp::MarkStack);
    }
    Ok(pcu)
}

/// Append `ops` to `code` so that each runs after every other one that
/// reads a register it writes, and the memory operations `ops[mem]` in
/// their order. Operations are placed one at a time, the first ready one
/// each time. When every operation left waits on another, as in a swap,
/// the first writer whose memory order allows it writes a spare slot
/// instead, and a trailing `Mov` copies the spare into its register.
fn order(ops: &mut [MicroOp], mem: Range<usize>, code: &mut Vec<MicroOp>) {
    let n = ops.len();
    // Bit sets over `ops`: `fixed[i]` must run before op `i` (memory
    // order); `readers[i]` must too, unless op `i` writes a spare.
    let mut fixed = [0u16; MAX_OPS];
    let mut readers = [0u16; MAX_OPS];
    for (i, f) in fixed[..mem.end].iter_mut().enumerate().skip(mem.start + 1) {
        *f = 1 << (i - 1);
    }
    for (w, op) in ops.iter().enumerate() {
        if let Some(d) = op.dst() {
            for (r, other) in ops.iter().enumerate() {
                if r != w && other.reads().contains(&d) {
                    readers[w] |= 1 << r;
                }
            }
        }
    }
    let mut copies = [(ZERO, ZERO); MAX_WRITES];
    let mut n_copies = 0;
    let mut placed = 0u16;
    for _ in 0..n {
        let waits = |i: usize, mask: u16| placed & (1 << i) == 0 && mask & !placed != 0;
        let ready = |i: usize, mask: u16| placed & (1 << i) == 0 && mask & !placed == 0;
        let i = match (0..n).find(|&i| ready(i, fixed[i] | readers[i])) {
            Some(i) => i,
            None => {
                let i = (0..n)
                    .find(|&i| ready(i, fixed[i]) && waits(i, readers[i]))
                    .expect("memory order is acyclic, so some writer can move to a spare");
                let dst = ops[i].dst_mut().expect("only writers wait on readers");
                let spare = SPARE + n_copies as u8;
                copies[n_copies] = (*dst, spare);
                n_copies += 1;
                *dst = spare;
                i
            }
        };
        placed |= 1 << i;
        code.push(ops[i]);
    }
    code.extend(
        copies[..n_copies]
            .iter()
            .map(|&(dst, src)| MicroOp::Mov { dst, src }),
    );
}

/// Everything [`Simulator::new`] derives from a valid program.
#[derive(Default)]
struct Decoded {
    code: Vec<MicroOp>,
    /// Parallel to `program.insts`.
    segs: Vec<Seg>,
    /// Parallel to `program.insts`.
    facts: Vec<PcFacts>,
    /// Bank X then bank Y, sized and initialized.
    mem: [Vec<Word>; 2],
}

impl Decoded {
    /// Validate `program`, decode it in one pass, join its instructions
    /// into stretches, then allocate its banks.
    fn new(program: &VliwProgram, dual_ported: bool) -> Result<Decoded, String> {
        program.validate(dual_ported)?;
        let n = program.insts.len();
        let mut d = Decoded {
            code: Vec::with_capacity(2 * n),
            segs: Vec::with_capacity(n),
            facts: Vec::with_capacity(n),
            mem: Default::default(),
        };
        for (pc, inst) in program.insts.iter().enumerate() {
            let start = d.code.len() as u32;
            let ctl = decode_inst(inst, &mut d.code)
                .map_err(|BadReg(r)| format!("inst {pc}: register index {r} out of range"))?;
            d.segs.push(Seg {
                start,
                end: d.code.len() as u32,
                cycles: 1,
                ctl,
            });
            d.facts.push(PcFacts::decode(inst));
        }
        // An instruction without a control operation continues into the
        // stretch of the next one.
        for pc in (0..n.saturating_sub(1)).rev() {
            if let Pcu::Next = d.segs[pc].ctl {
                let next = d.segs[pc + 1];
                d.segs[pc] = Seg {
                    cycles: next.cycles + 1,
                    start: d.segs[pc].start,
                    ..next
                };
            }
        }
        let images = [(Bank::X, &program.x_image), (Bank::Y, &program.y_image)];
        for (mem, (bank, image)) in d.mem.iter_mut().zip(images) {
            *mem = vec![Word::ZERO; program.bank_words(bank)? as usize];
            mem[..image.init.len()].copy_from_slice(&image.init);
        }
        Ok(d)
    }
}

/// The stack pointers' bases and their high-water marks above them, bank
/// X then bank Y.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StackMarks {
    base: [u32; 2],
    max: [u32; 2],
}

impl StackMarks {
    fn mark(&mut self, regs: &[Word; REG_SLOTS]) {
        for (i, sp) in [SP_X, SP_Y].into_iter().enumerate() {
            let height = regs[usize::from(sp)].0.saturating_sub(self.base[i]);
            self.max[i] = self.max[i].max(height);
        }
    }
}

/// An access outside its bank by `code[at]` of the stretch being run.
struct Fault {
    at: usize,
    bank: Bank,
    addr: i64,
}

/// The machine state of the simulator.
pub struct Simulator<'p> {
    program: &'p VliwProgram,
    options: SimOptions,
    /// Why the program cannot run; nothing was decoded or allocated.
    invalid: Option<String>,
    /// The address, integer and floating-point files, then the spare,
    /// condition, sink and zero slots.
    regs: [Word; REG_SLOTS],
    /// The decoded program and the two banks.
    decoded: Decoded,
    call_stack: Vec<u32>,
    halted: bool,
    /// Parallel to `program.insts`: while running, how often the stretch
    /// starting at each PC was entered; after `halt`, how often each PC
    /// executed.
    visits: Vec<u64>,
    stack: StackMarks,
}

impl<'p> Simulator<'p> {
    /// Validate the program and decode its micro-op table, then create
    /// the memories initialized from the program images and the stack
    /// pointers pointing at their bases. An invalid program gets no
    /// memory; [`Simulator::run`] reports why.
    #[must_use]
    pub fn new(program: &'p VliwProgram, options: SimOptions) -> Simulator<'p> {
        let (decoded, invalid) = match Decoded::new(program, options.dual_ported) {
            Ok(d) => (d, None),
            Err(e) => (Decoded::default(), Some(e)),
        };
        let mut regs = [Word::ZERO; REG_SLOTS];
        regs[usize::from(SP_X)] = Word(program.x_stack_base);
        regs[usize::from(SP_Y)] = Word(program.y_stack_base);
        Simulator {
            program,
            options,
            invalid,
            regs,
            visits: vec![0; decoded.segs.len()],
            decoded,
            call_stack: Vec::new(),
            halted: false,
            stack: StackMarks {
                base: [program.x_stack_base, program.y_stack_base],
                max: [0; 2],
            },
        }
    }

    /// Run until `halt` or an error. After an error the machine state —
    /// registers, memory, visits — is unspecified; read nothing from a
    /// simulator whose run failed.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on validation failure (bank discipline
    /// and data layout included), out-of-range accesses or program
    /// counters, call-stack faults, or fuel exhaustion.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        if let Some(e) = &self.invalid {
            return Err(SimError::Invalid(e.clone()));
        }
        if !self.halted {
            self.execute()?;
            self.halted = true;
        }
        Ok(fold_stats(&self.decoded.facts, &self.visits, self.stack))
    }

    /// How often each instruction executed, parallel to the program's
    /// instructions, after a run that halted; the counts sum to
    /// [`SimStats::cycles`]. Before a run, or after a failed one, the
    /// counts are unspecified.
    #[must_use]
    pub fn pc_visits(&self) -> &[u64] {
        &self.visits
    }

    /// Run one stretch per iteration from the entry until `halt`, then
    /// turn the stretch entry counts into per-PC visits.
    fn execute(&mut self) -> Result<(), SimError> {
        let Decoded {
            code, segs, mem, ..
        } = &mut self.decoded;
        let regs = &mut self.regs;
        let fuel = self.options.fuel;
        let mut pc = self.program.entry.0;
        let mut cycles = 0u64;
        loop {
            let Some(&seg) = segs.get(pc as usize) else {
                return Err(if cycles >= fuel {
                    SimError::FuelExhausted
                } else {
                    SimError::PcOutOfRange { pc }
                });
            };
            let start = seg.start as usize;
            let left = fuel - cycles;
            if u64::from(seg.cycles) > left {
                // The fuel ends inside the stretch: run the instructions
                // it still pays for.
                let stop = segs[pc as usize + left as usize].start as usize;
                exec(&code[start..stop], regs, mem, &mut self.stack)
                    .map_err(|f| fault(segs, start, f))?;
                return Err(SimError::FuelExhausted);
            }
            cycles += u64::from(seg.cycles);
            self.visits[pc as usize] += 1;
            exec(&code[start..seg.end as usize], regs, mem, &mut self.stack)
                .map_err(|f| fault(segs, start, f))?;
            let last = pc + seg.cycles - 1;
            pc = match seg.ctl {
                Pcu::Next => last + 1,
                Pcu::Jump(t) => t,
                Pcu::BranchNz { cond, target } => {
                    if regs[usize::from(cond)].is_truthy() {
                        target
                    } else {
                        last + 1
                    }
                }
                Pcu::BranchZ { cond, target } => {
                    if regs[usize::from(cond)].is_truthy() {
                        last + 1
                    } else {
                        target
                    }
                }
                Pcu::Call(t) => {
                    if self.call_stack.len() >= CALL_STACK_DEPTH {
                        return Err(SimError::CallStackOverflow { pc: last });
                    }
                    self.call_stack.push(last + 1);
                    t
                }
                Pcu::Ret => self
                    .call_stack
                    .pop()
                    .ok_or(SimError::CallStackUnderflow { pc: last })?,
                Pcu::Halt => break,
            };
        }
        // A PC runs each time a stretch that covers it is entered: the
        // entries of its own stretch and of every stretch that falls
        // through into it.
        let mut entered = 0;
        for (v, seg) in self.visits.iter_mut().zip(segs.iter()) {
            entered += *v;
            *v = entered;
            if seg.cycles == 1 {
                entered = 0;
            }
        }
        Ok(())
    }

    /// The words of `sym` in `bank`, or `None` when the program never
    /// got its memory.
    fn symbol_words(&self, sym: &DataSymbol, bank: Bank) -> Option<Vec<Word>> {
        let start = sym.addr as usize;
        let words = self.decoded.mem[bank as usize].get(start..start + sym.size as usize)?;
        Some(words.to_vec())
    }

    /// Read the contents of a named data symbol from its home bank.
    #[must_use]
    pub fn read_symbol(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        self.symbol_words(sym, sym.home)
    }

    /// Read the *secondary* copy of a duplicated symbol (same address,
    /// other bank). Returns `None` for non-duplicated symbols.
    #[must_use]
    pub fn read_symbol_copy(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        if !sym.duplicated {
            return None;
        }
        self.symbol_words(sym, sym.home.other())
    }

    /// Current value of an integer register (for tests).
    #[must_use]
    pub fn ireg(&self, i: usize) -> Word {
        self.regs[INT_FILE..INT_FILE + NUM_REGS_PER_FILE][i]
    }
}

/// The statistics of a run: visits × per-PC facts, and the stack marks.
fn fold_stats(facts: &[PcFacts], visits: &[u64], stack: StackMarks) -> SimStats {
    let mut s = SimStats {
        max_stack_x: stack.max[0],
        max_stack_y: stack.max[1],
        ..SimStats::default()
    };
    for (f, &n) in facts.iter().zip(visits) {
        if n == 0 {
            continue;
        }
        s.cycles += n;
        s.ops += n * u64::from(f.ops);
        s.loads += n * u64::from(f.loads);
        s.stores += n * u64::from(f.stores);
        s.dual_mem_cycles += n * u64::from(f.dual_mem);
        s.bank_conflict_cycles += n * u64::from(f.bank_conflict);
        for (idx, unit_ops) in s.unit_ops.iter_mut().enumerate() {
            if f.units & (1 << idx) != 0 {
                *unit_ops += n;
            }
        }
    }
    s
}

/// The error of a fault in the stretch whose micro-ops start at
/// `code[start]`, at the PC whose micro-ops hold the faulting one.
#[cold]
fn fault(segs: &[Seg], start: usize, f: Fault) -> SimError {
    let op = start + f.at;
    let pc = segs.partition_point(|s| s.start as usize <= op) - 1;
    SimError::AddrOutOfRange {
        pc: pc as u32,
        bank: f.bank,
        addr: f.addr,
    }
}

/// Run `code` in place, one micro-op after another.
fn exec(
    code: &[MicroOp],
    regs: &mut [Word; REG_SLOTS],
    mem: &mut [Vec<Word>; 2],
    stack: &mut StackMarks,
) -> Result<(), Fault> {
    for (at, op) in code.iter().enumerate() {
        let r = |s: u8| regs[usize::from(s)];
        let (dst, word) = match *op {
            MicroOp::Const { dst, word } => (dst, word),
            MicroOp::Mov { dst, src } => (dst, r(src)),
            MicroOp::IBin {
                kind,
                dst,
                lhs,
                rhs,
            } => (
                dst,
                Word::from_i32(eval_ibin(kind, r(lhs).as_i32(), r(rhs).as_i32())),
            ),
            MicroOp::IBinImm {
                kind,
                dst,
                lhs,
                imm,
            } => (dst, Word::from_i32(eval_ibin(kind, r(lhs).as_i32(), imm))),
            MicroOp::ICmp {
                kind,
                dst,
                lhs,
                rhs,
            } => (
                dst,
                Word::from_i32(i32::from(eval_icmp(kind, r(lhs).as_i32(), r(rhs).as_i32()))),
            ),
            MicroOp::ICmpImm {
                kind,
                dst,
                lhs,
                imm,
            } => (
                dst,
                Word::from_i32(i32::from(eval_icmp(kind, r(lhs).as_i32(), imm))),
            ),
            MicroOp::INeg { dst, src } => (dst, Word::from_i32(r(src).as_i32().wrapping_neg())),
            MicroOp::INot { dst, src } => (dst, Word::from_i32(!r(src).as_i32())),
            MicroOp::FBin {
                kind,
                dst,
                lhs,
                rhs,
            } => (
                dst,
                Word::from_f32(eval_fbin(kind, r(lhs).as_f32(), r(rhs).as_f32())),
            ),
            MicroOp::FMac { dst, acc, a, b } => (
                dst,
                Word::from_f32(eval_fmac(r(acc).as_f32(), r(a).as_f32(), r(b).as_f32())),
            ),
            MicroOp::FCmp {
                kind,
                dst,
                lhs,
                rhs,
            } => (
                dst,
                Word::from_i32(i32::from(eval_fcmp(kind, r(lhs).as_f32(), r(rhs).as_f32()))),
            ),
            MicroOp::FNeg { dst, src } => (dst, Word::from_f32(-r(src).as_f32())),
            MicroOp::ItoF { dst, src } => (dst, Word::from_f32(r(src).as_i32() as f32)),
            MicroOp::FtoI { dst, src } => (dst, Word::from_i32(r(src).as_f32() as i32)),
            MicroOp::Load { dst, bank, addr } => {
                let bank_mem = &mem[bank as usize];
                let a = effective(regs, addr, bank_mem.len()).map_err(|addr| Fault {
                    at,
                    bank,
                    addr,
                })?;
                (dst, bank_mem[a])
            }
            MicroOp::Store { src, bank, addr } => {
                let bank_mem = &mut mem[bank as usize];
                let a = effective(regs, addr, bank_mem.len()).map_err(|addr| Fault {
                    at,
                    bank,
                    addr,
                })?;
                bank_mem[a] = r(src);
                continue;
            }
            MicroOp::MarkStack => {
                stack.mark(regs);
                continue;
            }
        };
        regs[usize::from(dst)] = word;
    }
    Ok(())
}

/// The word address `addr` reaches in a bank of `len` words, or the
/// address itself when it falls outside.
fn effective(regs: &[Word; REG_SLOTS], addr: Addr, len: usize) -> Result<usize, i64> {
    let a = i64::from(regs[usize::from(addr.base)].0)
        + i64::from(regs[usize::from(addr.index)].as_i32())
        + addr.offset;
    if a < 0 || a >= len as i64 {
        return Err(a);
    }
    Ok(a as usize)
}

// The arithmetic helpers are shared with the IR interpreter so the two
// execution engines can never drift apart.
use dsp_ir::interp::{eval_fbin, eval_fcmp, eval_fmac, eval_ibin, eval_icmp};

/// The per-cycle stepper that the stretch executor replaced, kept as its
/// specification: micro-ops in slot order, one cycle per step, every
/// write buffered until the cycle's last read.
#[cfg(test)]
mod spec {
    use super::*;

    /// One PC's entry: its micro-ops are `code[start..end]`.
    #[derive(Clone, Copy)]
    struct Span {
        start: u32,
        end: u32,
        pcu: Pcu,
        /// Writes `SP_X` or `SP_Y`, so the stack marks may move.
        writes_sp: bool,
    }

    /// The machine state of the stepper; the decoded banks and per-PC
    /// facts come from the production decoder.
    pub(crate) struct Stepper {
        pub(crate) regs: [Word; REG_SLOTS],
        pub(crate) decoded: Decoded,
        code: Vec<MicroOp>,
        spans: Vec<Span>,
        call_stack: Vec<u32>,
        pc: u32,
        halted: bool,
        pub(crate) visits: Vec<u64>,
        cycles: u64,
        stack: StackMarks,
        fuel: u64,
    }

    impl Stepper {
        pub(crate) fn new(program: &VliwProgram, options: SimOptions) -> Result<Stepper, SimError> {
            let decoded = Decoded::new(program, options.dual_ported).map_err(SimError::Invalid)?;
            let mut code = Vec::new();
            let mut spans = Vec::new();
            for inst in &program.insts {
                let start = code.len();
                slot_ops(inst, &mut code).expect("validated");
                spans.push(Span {
                    start: start as u32,
                    end: code.len() as u32,
                    pcu: decode_pcu(inst.pcu).expect("validated"),
                    writes_sp: code[start..]
                        .iter()
                        .any(|op| matches!(op.dst(), Some(SP_X | SP_Y))),
                });
            }
            let mut regs = [Word::ZERO; REG_SLOTS];
            regs[usize::from(SP_X)] = Word(program.x_stack_base);
            regs[usize::from(SP_Y)] = Word(program.y_stack_base);
            Ok(Stepper {
                regs,
                visits: vec![0; spans.len()],
                decoded,
                code,
                spans,
                call_stack: Vec::new(),
                pc: program.entry.0,
                halted: false,
                cycles: 0,
                stack: StackMarks {
                    base: [program.x_stack_base, program.y_stack_base],
                    max: [0; 2],
                },
                fuel: options.fuel,
            })
        }

        pub(crate) fn run(&mut self) -> Result<SimStats, SimError> {
            while !self.halted {
                if self.cycles >= self.fuel {
                    return Err(SimError::FuelExhausted);
                }
                self.cycles += 1;
                self.step()?;
            }
            let stats = fold_stats(&self.decoded.facts, &self.visits, self.stack);
            assert_eq!(stats.cycles, self.cycles);
            Ok(stats)
        }

        /// Execute one cycle.
        fn step(&mut self) -> Result<(), SimError> {
            let pc = self.pc;
            let span = *self
                .spans
                .get(pc as usize)
                .ok_or(SimError::PcOutOfRange { pc })?;
            self.visits[pc as usize] += 1;

            // Phase 1: read everything and compute results against
            // pre-state.
            let regs = &self.regs;
            let mem = &self.decoded.mem;
            let r = |s: u8| regs[usize::from(s)];
            let mut reg_writes = [(ZERO, Word::ZERO); MAX_WRITES];
            let mut n_reg = 0;
            let mut mem_writes = [(Bank::X, 0usize, Word::ZERO); 2];
            let mut n_mem = 0;
            let fault = |bank, addr| SimError::AddrOutOfRange { pc, bank, addr };
            for op in &self.code[span.start as usize..span.end as usize] {
                let write = match *op {
                    MicroOp::Load { dst, bank, addr } => {
                        let bank_mem = &mem[bank as usize];
                        let a =
                            effective(regs, addr, bank_mem.len()).map_err(|a| fault(bank, a))?;
                        (dst, bank_mem[a])
                    }
                    MicroOp::Store { src, bank, addr } => {
                        let a = effective(regs, addr, mem[bank as usize].len())
                            .map_err(|a| fault(bank, a))?;
                        mem_writes[n_mem] = (bank, a, r(src));
                        n_mem += 1;
                        continue;
                    }
                    MicroOp::Const { dst, word } => (dst, word),
                    MicroOp::Mov { dst, src } => (dst, r(src)),
                    MicroOp::IBin {
                        kind,
                        dst,
                        lhs,
                        rhs,
                    } => (
                        dst,
                        Word::from_i32(eval_ibin(kind, r(lhs).as_i32(), r(rhs).as_i32())),
                    ),
                    MicroOp::IBinImm {
                        kind,
                        dst,
                        lhs,
                        imm,
                    } => (dst, Word::from_i32(eval_ibin(kind, r(lhs).as_i32(), imm))),
                    MicroOp::ICmp {
                        kind,
                        dst,
                        lhs,
                        rhs,
                    } => (
                        dst,
                        Word::from_i32(i32::from(eval_icmp(
                            kind,
                            r(lhs).as_i32(),
                            r(rhs).as_i32(),
                        ))),
                    ),
                    MicroOp::ICmpImm {
                        kind,
                        dst,
                        lhs,
                        imm,
                    } => (
                        dst,
                        Word::from_i32(i32::from(eval_icmp(kind, r(lhs).as_i32(), imm))),
                    ),
                    MicroOp::INeg { dst, src } => {
                        (dst, Word::from_i32(r(src).as_i32().wrapping_neg()))
                    }
                    MicroOp::INot { dst, src } => (dst, Word::from_i32(!r(src).as_i32())),
                    MicroOp::FBin {
                        kind,
                        dst,
                        lhs,
                        rhs,
                    } => (
                        dst,
                        Word::from_f32(eval_fbin(kind, r(lhs).as_f32(), r(rhs).as_f32())),
                    ),
                    MicroOp::FMac { dst, acc, a, b } => (
                        dst,
                        Word::from_f32(eval_fmac(r(acc).as_f32(), r(a).as_f32(), r(b).as_f32())),
                    ),
                    MicroOp::FCmp {
                        kind,
                        dst,
                        lhs,
                        rhs,
                    } => (
                        dst,
                        Word::from_i32(i32::from(eval_fcmp(
                            kind,
                            r(lhs).as_f32(),
                            r(rhs).as_f32(),
                        ))),
                    ),
                    MicroOp::FNeg { dst, src } => (dst, Word::from_f32(-r(src).as_f32())),
                    MicroOp::ItoF { dst, src } => (dst, Word::from_f32(r(src).as_i32() as f32)),
                    MicroOp::FtoI { dst, src } => (dst, Word::from_i32(r(src).as_f32() as i32)),
                    MicroOp::MarkStack => unreachable!("slot order has no stack marks"),
                };
                reg_writes[n_reg] = write;
                n_reg += 1;
            }
            let mut next_pc = pc + 1;
            let mut push_ra = false;
            let mut pop_ra = false;
            match span.pcu {
                Pcu::Next => {}
                Pcu::Jump(t) => next_pc = t,
                Pcu::BranchNz { cond, target } => {
                    if r(cond).is_truthy() {
                        next_pc = target;
                    }
                }
                Pcu::BranchZ { cond, target } => {
                    if !r(cond).is_truthy() {
                        next_pc = target;
                    }
                }
                Pcu::Call(t) => {
                    push_ra = true;
                    next_pc = t;
                }
                Pcu::Ret => pop_ra = true,
                Pcu::Halt => self.halted = true,
            }

            // Phase 2: commit.
            for &(dst, w) in &reg_writes[..n_reg] {
                self.regs[usize::from(dst)] = w;
            }
            for &(bank, a, w) in &mem_writes[..n_mem] {
                self.decoded.mem[bank as usize][a] = w;
            }
            if push_ra {
                if self.call_stack.len() >= CALL_STACK_DEPTH {
                    return Err(SimError::CallStackOverflow { pc });
                }
                self.call_stack.push(pc + 1);
            }
            if pop_ra {
                next_pc = self
                    .call_stack
                    .pop()
                    .ok_or(SimError::CallStackUnderflow { pc })?;
            }
            self.pc = next_pc;
            if span.writes_sp {
                self.stack.mark(&self.regs);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_machine::{DataImage, DataSymbol, FReg, InstAddr, IntBinKind, Label, VliwFunction};

    fn program(insts: Vec<VliwInst>) -> VliwProgram {
        VliwProgram {
            insts,
            entry: InstAddr(0),
            x_image: DataImage::default(),
            y_image: DataImage::default(),
            x_static_words: 16,
            y_static_words: 16,
            x_stack_base: 16,
            y_stack_base: 16,
            stack_words: 64,
            symbols: vec![
                DataSymbol {
                    name: "vx".into(),
                    addr: 0,
                    size: 4,
                    home: Bank::X,
                    duplicated: false,
                },
                DataSymbol {
                    name: "vy".into(),
                    addr: 0,
                    size: 4,
                    home: Bank::Y,
                    duplicated: false,
                },
            ],
            functions: vec![VliwFunction {
                name: "main".into(),
                start: InstAddr(0),
                len: 0,
            }],
            labels: vec![Label {
                name: "main".into(),
                addr: InstAddr(0),
            }],
        }
    }

    fn halt() -> VliwInst {
        let mut i = VliwInst::new();
        i.pcu = Some(PcuOp::Halt);
        i
    }

    #[test]
    fn parallel_loads_one_cycle() {
        // movi r1,#7 ; store it to both banks ; load both back ; halt
        let mut setup = VliwInst::new();
        setup.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 7,
        });
        let mut stores = VliwInst::new();
        stores.mu0 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(2),
            bank: Bank::X,
        });
        stores.mu1 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(3),
            bank: Bank::Y,
        });
        let mut loads = VliwInst::new();
        loads.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(2)),
            addr: MemAddr::Absolute(2),
            bank: Bank::X,
        });
        loads.mu1 = Some(MemOp::Load {
            dst: Reg::Int(IReg(3)),
            addr: MemAddr::Absolute(3),
            bank: Bank::Y,
        });
        let p = program(vec![setup, stores, loads, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.cycles, 4);
        assert_eq!(stats.dual_mem_cycles, 2);
        assert_eq!(sim.ireg(2).as_i32(), 7);
        assert_eq!(sim.ireg(3).as_i32(), 7);
    }

    #[test]
    fn bank_conflict_detected() {
        let mut bad = VliwInst::new();
        bad.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(0),
            bank: Bank::Y, // wrong slot
        });
        let p = program(vec![bad, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(sim.run(), Err(SimError::Invalid(_))));
        // Dual-ported (Ideal) memory accepts it.
        let mut sim = Simulator::new(
            &p,
            SimOptions {
                dual_ported: true,
                ..SimOptions::default()
            },
        );
        assert!(sim.run().is_ok());
    }

    #[test]
    fn reads_before_writes_within_cycle() {
        // r1 = 5; then in ONE cycle: r2 = r1 + 0 || r1 = 9.
        // r2 must see the old r1 (5), not 9.
        let mut setup = VliwInst::new();
        setup.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 5,
        });
        let mut both = VliwInst::new();
        both.du0 = Some(IntOp::Bin {
            kind: IntBinKind::Add,
            dst: IReg(2),
            lhs: IReg(1),
            rhs: IntOperand::Imm(0),
        });
        both.du1 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 9,
        });
        let p = program(vec![setup, both, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(2).as_i32(), 5);
        assert_eq!(sim.ireg(1).as_i32(), 9);
    }

    #[test]
    fn call_and_ret_use_hardware_stack() {
        // 0: call 3
        // 1: halt           <- return lands here
        // 2: (unreachable)
        // 3: movi r1, 42
        // 4: ret
        let mut call = VliwInst::new();
        call.pcu = Some(PcuOp::Call(InstAddr(3)));
        let mut movi = VliwInst::new();
        movi.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 42,
        });
        let mut ret = VliwInst::new();
        ret.pcu = Some(PcuOp::Ret);
        let p = program(vec![call, halt(), halt(), movi, ret]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(sim.ireg(1).as_i32(), 42);
        assert_eq!(stats.cycles, 4); // call, movi, ret, halt
    }

    #[test]
    fn ret_without_call_underflows() {
        let mut ret = VliwInst::new();
        ret.pcu = Some(PcuOp::Ret);
        let p = program(vec![ret]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::CallStackUnderflow { pc: 0 })
        ));
    }

    #[test]
    fn branches_select_path() {
        // 0: movi r1, 0
        // 1: bz r1 -> 3
        // 2: movi r2, 1 (skipped)
        // 3: halt
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 0,
        });
        let mut b = VliwInst::new();
        b.pcu = Some(PcuOp::BranchZ {
            cond: IReg(1),
            target: InstAddr(3),
        });
        let mut c = VliwInst::new();
        c.du0 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 1,
        });
        let p = program(vec![a, b, c, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(sim.ireg(2).as_i32(), 0);
        assert_eq!(stats.cycles, 3);
    }

    #[test]
    fn out_of_range_access_caught() {
        let mut bad = VliwInst::new();
        bad.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(10_000),
            bank: Bank::X,
        });
        let p = program(vec![bad, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::AddrOutOfRange { bank: Bank::X, .. })
        ));
    }

    #[test]
    fn fuel_guard() {
        let mut spin = VliwInst::new();
        spin.pcu = Some(PcuOp::Jump(InstAddr(0)));
        let p = program(vec![spin]);
        let mut sim = Simulator::new(
            &p,
            SimOptions {
                fuel: 100,
                ..SimOptions::default()
            },
        );
        assert_eq!(sim.run(), Err(SimError::FuelExhausted));
    }

    #[test]
    fn float_pipeline_and_mac() {
        // f1 = 2.0, f2 = 3.0; f3 = 0; f3 += f1*f2 (mac); ftoi r1, f3.
        let mut a = VliwInst::new();
        a.fpu0 = Some(FpOp::MovImm {
            dst: FReg(1),
            imm: 2.0,
        });
        a.fpu1 = Some(FpOp::MovImm {
            dst: FReg(2),
            imm: 3.0,
        });
        let mut b = VliwInst::new();
        b.fpu0 = Some(FpOp::MovImm {
            dst: FReg(3),
            imm: 0.5,
        });
        let mut c = VliwInst::new();
        c.fpu0 = Some(FpOp::Mac {
            dst: FReg(3),
            a: FReg(1),
            b: FReg(2),
        });
        let mut d = VliwInst::new();
        d.fpu0 = Some(FpOp::CvtFtoI {
            dst: IReg(1),
            src: FReg(3),
        });
        let p = program(vec![a, b, c, d, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(1).as_i32(), 6); // 0.5 + 6.0 truncated
    }

    #[test]
    fn stack_high_water_tracked() {
        // Bump SP_X by 10, then back down.
        let mut up = VliwInst::new();
        up.au0 = Some(AddrOp::AddImm {
            dst: AReg::SP_X,
            base: AReg::SP_X,
            imm: 10,
        });
        let mut down = VliwInst::new();
        down.au0 = Some(AddrOp::AddImm {
            dst: AReg::SP_X,
            base: AReg::SP_X,
            imm: -10,
        });
        let p = program(vec![up, down, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.max_stack_x, 10);
        assert_eq!(stats.max_stack_y, 0);
        assert_eq!(stats.max_stack_words(), 10);
    }

    #[test]
    fn symbol_readback() {
        let mut st = VliwInst::new();
        st.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 11,
        });
        let mut st2 = VliwInst::new();
        st2.mu1 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(1),
            bank: Bank::Y,
        });
        let p = program(vec![st, st2, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        let vy = sim.read_symbol("vy").unwrap();
        assert_eq!(vy[1].as_i32(), 11);
        assert!(sim.read_symbol_copy("vy").is_none());
    }

    #[test]
    fn indexed_addressing_modes() {
        // r1 = 2 (index); store 99 at X[base 4 + r1]; load it back via
        // BaseIndex with a0 = 4.
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 2,
        });
        a.du1 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 99,
        });
        a.au0 = Some(AddrOp::Lea {
            dst: AReg(0),
            addr: 3,
        });
        let mut b = VliwInst::new();
        b.mu0 = Some(MemOp::Store {
            src: Reg::Int(IReg(2)),
            addr: MemAddr::AbsIndex {
                addr: 4,
                index: IReg(1),
            },
            bank: Bank::X,
        });
        let mut c = VliwInst::new();
        c.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(3)),
            addr: MemAddr::BaseIndex {
                base: AReg(0),
                index: IReg(1),
                offset: 1,
            },
            bank: Bank::X,
        });
        let p = program(vec![a, b, c, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(3).as_i32(), 99); // 3 + 2 + 1 == 4 + 2
    }

    #[test]
    fn folded_stats_count_every_visit() {
        // 0: movi r1, 3
        // 1: ld.Y r2, [0] || ld.Y r3, [1] || r1 = r1 - 1   (same bank)
        // 2: st.X r2, [0] || bnz r1 -> 1
        // 3: halt
        let mut init = VliwInst::new();
        init.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 3,
        });
        let mut body = VliwInst::new();
        body.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(2)),
            addr: MemAddr::Absolute(0),
            bank: Bank::Y,
        });
        body.mu1 = Some(MemOp::Load {
            dst: Reg::Int(IReg(3)),
            addr: MemAddr::Absolute(1),
            bank: Bank::Y,
        });
        body.du0 = Some(IntOp::Bin {
            kind: IntBinKind::Sub,
            dst: IReg(1),
            lhs: IReg(1),
            rhs: IntOperand::Imm(1),
        });
        let mut tail = VliwInst::new();
        tail.mu0 = Some(MemOp::Store {
            src: Reg::Int(IReg(2)),
            addr: MemAddr::Absolute(0),
            bank: Bank::X,
        });
        tail.pcu = Some(PcuOp::BranchNz {
            cond: IReg(1),
            target: InstAddr(1),
        });
        let p = program(vec![init, body, tail, halt()]);
        let mut sim = Simulator::new(
            &p,
            SimOptions {
                dual_ported: true,
                ..SimOptions::default()
            },
        );
        let stats = sim.run().unwrap();
        assert_eq!(sim.pc_visits(), [1, 3, 3, 1]);
        let mut unit_ops = [0; dsp_machine::NUM_FUNC_UNITS];
        unit_ops[0] = 4; // PCU: 3 branches + halt
        unit_ops[1] = 6; // MU0: 3 loads + 3 stores
        unit_ops[2] = 3; // MU1: 3 loads
        unit_ops[5] = 4; // DU0: movi + 3 decrements
        assert_eq!(
            stats,
            SimStats {
                cycles: 8,
                ops: 17,
                loads: 6,
                stores: 3,
                dual_mem_cycles: 3,
                bank_conflict_cycles: 3,
                max_stack_x: 0,
                max_stack_y: 0,
                unit_ops,
            }
        );
    }

    #[test]
    fn stack_mark_follows_a_load_into_the_stack_pointer() {
        // SP_Y = Y[0] (= 16 + 5), then back to its base.
        let mut p = program(Vec::new());
        p.y_image.init = vec![Word(16 + 5)];
        let mut load = VliwInst::new();
        load.mu1 = Some(MemOp::Load {
            dst: Reg::Addr(AReg::SP_Y),
            addr: MemAddr::Absolute(0),
            bank: Bank::Y,
        });
        let mut reset = VliwInst::new();
        reset.au1 = Some(AddrOp::Lea {
            dst: AReg::SP_Y,
            addr: 16,
        });
        p.insts = vec![load, reset, halt()];
        let stats = Simulator::new(&p, SimOptions::default()).run().unwrap();
        assert_eq!((stats.max_stack_x, stats.max_stack_y), (0, 5));
    }

    #[test]
    fn a_layout_outside_its_banks_is_invalid_and_allocates_nothing() {
        type Craft = (&'static str, fn(&mut VliwProgram));
        let crafts: [Craft; 3] = [
            ("overflows", |p| p.stack_words = u32::MAX),
            ("limit", |p| p.y_stack_base = dsp_machine::MAX_BANK_WORDS),
            // Bank X holds 16 + 64 words.
            ("outside bank X", |p| p.symbols[0].addr = 77),
        ];
        for (expect, craft) in crafts {
            let mut p = program(vec![halt()]);
            craft(&mut p);
            let mut sim = Simulator::new(&p, SimOptions::default());
            assert!(
                matches!(sim.run(), Err(SimError::Invalid(e)) if e.contains(expect)),
                "{expect}"
            );
            assert!(sim.decoded.mem.iter().all(Vec::is_empty));
            assert!(sim.decoded.code.is_empty());
            assert_eq!(sim.read_symbol("vy"), None);
        }
    }

    #[test]
    fn a_register_outside_its_file_is_invalid() {
        let mut bad = VliwInst::new();
        bad.fpu1 = Some(FpOp::Mov {
            dst: FReg(3),
            src: FReg(32),
        });
        let p = program(vec![halt(), bad]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert_eq!(
            sim.run(),
            Err(SimError::Invalid(
                "inst 1: register index 32 out of range".into()
            ))
        );
    }

    #[test]
    fn every_addressing_mode_decodes_to_base_index_offset() {
        let modes = [
            (MemAddr::Absolute(7), (ZERO, ZERO, 7)),
            (
                MemAddr::Base {
                    base: AReg(2),
                    offset: -3,
                },
                (2, ZERO, -3),
            ),
            (
                MemAddr::AbsIndex {
                    addr: -1,
                    index: IReg(4),
                },
                (ZERO, 32 + 4, -1),
            ),
            (
                MemAddr::BaseIndex {
                    base: AReg::SP_Y,
                    index: IReg(31),
                    offset: 5,
                },
                (SP_Y, 63, 5),
            ),
        ];
        for (mode, (base, index, offset)) in modes {
            let a = decode_addr(mode).unwrap();
            assert_eq!((a.base, a.index, a.offset), (base, index, offset), "{mode}");
        }
        assert_eq!(usize::from(ZERO), REG_SLOTS - 1);
    }

    /// SplitMix64: the seeded stream behind the random programs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value in `lo..hi`.
        fn range(&mut self, lo: i32, hi: i32) -> i32 {
            lo + self.below((hi - lo) as u64) as i32
        }

        fn chance(&mut self, pct: u64) -> bool {
            self.below(100) < pct
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    // Few registers per file, so that operations of one instruction
    // often share them; the address file includes both stack pointers.
    fn rand_ireg(g: &mut Rng) -> IReg {
        IReg(g.below(4) as u8)
    }

    fn rand_freg(g: &mut Rng) -> FReg {
        FReg(g.below(4) as u8)
    }

    fn rand_areg(g: &mut Rng) -> AReg {
        g.pick(&[AReg(0), AReg(1), AReg(2), AReg::SP_X, AReg::SP_Y])
    }

    fn rand_reg(g: &mut Rng) -> Reg {
        match g.below(3) {
            0 => Reg::Int(rand_ireg(g)),
            1 => Reg::Float(rand_freg(g)),
            _ => Reg::Addr(rand_areg(g)),
        }
    }

    /// An address in or a little outside the 80-word banks.
    fn rand_addr(g: &mut Rng) -> MemAddr {
        match g.below(4) {
            0 => MemAddr::Absolute(g.below(90) as u32),
            1 => MemAddr::Base {
                base: rand_areg(g),
                offset: g.range(-4, 8),
            },
            2 => MemAddr::AbsIndex {
                addr: g.range(-2, 84),
                index: rand_ireg(g),
            },
            _ => MemAddr::BaseIndex {
                base: rand_areg(g),
                index: rand_ireg(g),
                offset: g.range(-3, 4),
            },
        }
    }

    fn rand_int(g: &mut Rng) -> IntOp {
        use IntBinKind::*;
        let kinds = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr];
        let cmps = [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
        ];
        let rhs = |g: &mut Rng| {
            if g.chance(50) {
                IntOperand::Reg(rand_ireg(g))
            } else {
                IntOperand::Imm(g.range(-3, 9))
            }
        };
        let (dst, src) = (rand_ireg(g), rand_ireg(g));
        match g.below(6) {
            0 => IntOp::MovImm {
                dst,
                imm: g.range(-3, 20),
            },
            1 => IntOp::Mov { dst, src },
            2 => IntOp::Bin {
                kind: g.pick(&kinds),
                dst,
                lhs: src,
                rhs: rhs(g),
            },
            3 => IntOp::Cmp {
                kind: g.pick(&cmps),
                dst,
                lhs: src,
                rhs: rhs(g),
            },
            4 => IntOp::Neg { dst, src },
            _ => IntOp::Not { dst, src },
        }
    }

    fn rand_fp(g: &mut Rng) -> FpOp {
        use FpBinKind::*;
        let (dst, lhs, rhs) = (rand_freg(g), rand_freg(g), rand_freg(g));
        match g.below(8) {
            0 => FpOp::MovImm {
                dst,
                imm: g.pick(&[0.0, 1.5, -2.0, 1e30, f32::NAN]),
            },
            1 => FpOp::Mov { dst, src: lhs },
            2 => FpOp::Bin {
                kind: g.pick(&[Add, Sub, Mul, Div]),
                dst,
                lhs,
                rhs,
            },
            3 => FpOp::Mac {
                dst,
                a: lhs,
                b: rhs,
            },
            4 => FpOp::Cmp {
                kind: CmpKind::Lt,
                dst: rand_ireg(g),
                lhs,
                rhs,
            },
            5 => FpOp::Neg { dst, src: lhs },
            6 => FpOp::CvtItoF {
                dst,
                src: rand_ireg(g),
            },
            _ => FpOp::CvtFtoI {
                dst: rand_ireg(g),
                src: lhs,
            },
        }
    }

    fn rand_addr_op(g: &mut Rng) -> AddrOp {
        let (dst, base) = (rand_areg(g), rand_areg(g));
        match g.below(6) {
            0 => AddrOp::Lea {
                dst,
                addr: g.below(70) as u32,
            },
            1 => AddrOp::AddIndex {
                dst,
                base,
                index: rand_ireg(g),
            },
            // Pushes and pops when `dst` and `base` are a stack pointer.
            2 => AddrOp::AddImm {
                dst,
                base: if g.chance(50) { dst } else { base },
                imm: g.range(-6, 7),
            },
            3 => AddrOp::Mov { dst, src: base },
            4 => AddrOp::ToInt {
                dst: rand_ireg(g),
                src: base,
            },
            _ => AddrOp::FromInt {
                dst,
                src: rand_ireg(g),
            },
        }
    }

    fn rand_mem(g: &mut Rng, bank: Bank) -> MemOp {
        if g.chance(50) {
            MemOp::Load {
                dst: rand_reg(g),
                addr: rand_addr(g),
                bank,
            }
        } else {
            MemOp::Store {
                src: rand_reg(g),
                addr: rand_addr(g),
                bank,
            }
        }
    }

    /// One random instruction of an `n`-instruction program.
    fn rand_inst(g: &mut Rng, n: u32, dual_ported: bool) -> VliwInst {
        let mut i = VliwInst::new();
        match g.below(8) {
            // Same-cycle swaps, within a file.
            0 => {
                let (a, b) = (rand_ireg(g), rand_ireg(g));
                i.du0 = Some(IntOp::Mov { dst: a, src: b });
                i.du1 = Some(IntOp::Mov { dst: b, src: a });
            }
            1 => {
                let (a, b) = (rand_freg(g), rand_freg(g));
                i.fpu0 = Some(FpOp::Mov { dst: a, src: b });
                i.fpu1 = Some(FpOp::Mac { dst: b, a, b: a });
            }
            2 => {
                let (a, b) = (rand_areg(g), rand_areg(g));
                i.au0 = Some(AddrOp::Mov { dst: a, src: b });
                i.au1 = Some(AddrOp::AddImm {
                    dst: b,
                    base: a,
                    imm: g.range(-2, 3),
                });
            }
            _ => {}
        }
        if i.du0.is_none() && g.chance(40) {
            i.du0 = Some(rand_int(g));
        }
        if i.du1.is_none() && g.chance(30) {
            i.du1 = Some(rand_int(g));
        }
        if i.fpu0.is_none() && g.chance(30) {
            i.fpu0 = Some(rand_fp(g));
        }
        if i.fpu1.is_none() && g.chance(20) {
            i.fpu1 = Some(rand_fp(g));
        }
        if i.au0.is_none() && g.chance(30) {
            i.au0 = Some(rand_addr_op(g));
        }
        if i.au1.is_none() && g.chance(20) {
            i.au1 = Some(rand_addr_op(g));
        }
        if dual_ported && g.chance(20) {
            // A load and a store in one bank, often on one address and
            // sometimes both outside it.
            let bank = g.pick(&[Bank::X, Bank::Y]);
            let addr = rand_addr(g);
            let other = if g.chance(50) { addr } else { rand_addr(g) };
            let load = MemOp::Load {
                dst: rand_reg(g),
                addr,
                bank,
            };
            let store = MemOp::Store {
                src: rand_reg(g),
                addr: other,
                bank,
            };
            let (a, b) = if g.chance(50) {
                (store, load)
            } else {
                (load, store)
            };
            i.mu0 = Some(a);
            i.mu1 = Some(b);
        } else {
            let banks = if dual_ported {
                [g.pick(&[Bank::X, Bank::Y]), g.pick(&[Bank::X, Bank::Y])]
            } else {
                [Bank::X, Bank::Y]
            };
            if g.chance(45) {
                i.mu0 = Some(rand_mem(g, banks[0]));
            }
            if g.chance(45) {
                i.mu1 = Some(rand_mem(g, banks[1]));
            }
        }
        if g.chance(30) {
            let target = InstAddr(g.below(u64::from(n)) as u32);
            // Often a branch on a register its own instruction writes.
            let cond = match i.du0 {
                Some(
                    IntOp::MovImm { dst, .. }
                    | IntOp::Mov { dst, .. }
                    | IntOp::Bin { dst, .. }
                    | IntOp::Cmp { dst, .. },
                ) if g.chance(60) => dst,
                _ => rand_ireg(g),
            };
            i.pcu = Some(match g.below(8) {
                0 => PcuOp::Jump(target),
                1 | 2 => PcuOp::BranchNz { cond, target },
                3 | 4 => PcuOp::BranchZ { cond, target },
                5 => PcuOp::Call(target),
                6 => PcuOp::Ret,
                _ => PcuOp::Halt,
            });
        }
        i
    }

    /// A random program and the options to run it with.
    fn rand_program(g: &mut Rng) -> (VliwProgram, SimOptions) {
        let dual_ported = g.chance(50);
        let n = 2 + g.below(18) as u32;
        let mut insts: Vec<_> = (0..n).map(|_| rand_inst(g, n, dual_ported)).collect();
        if g.chance(85) {
            insts[n as usize - 1].pcu = Some(PcuOp::Halt);
        }
        let mut p = program(insts);
        p.x_image.init = (0..8).map(|_| Word::from_i32(g.range(-2, 40))).collect();
        p.y_image.init = (0..8).map(|_| Word::from_i32(g.range(-2, 40))).collect();
        let fuel = if g.chance(60) { 2_000 } else { g.below(40) };
        (p, SimOptions { dual_ported, fuel })
    }

    #[test]
    fn stretch_executor_matches_the_stepper_on_random_programs() {
        let mut g = Rng(0x5eed_da7a);
        let (mut halted, mut fuel, mut faults, mut control) = (0, 0, 0, 0);
        let (mut spares, mut conds, mut probes) = (0, 0, 0);
        for case in 0..2_400 {
            let (p, options) = rand_program(&mut g);
            let mut sim = Simulator::new(&p, options);
            let got = sim.run();
            let mut spec = spec::Stepper::new(&p, options).expect("valid");
            let want = spec.run();
            assert_eq!(got, want, "case {case}: {p:#?}");
            match want {
                Ok(stats) => {
                    halted += 1;
                    assert_eq!(
                        sim.regs[..ARCH_SLOTS],
                        spec.regs[..ARCH_SLOTS],
                        "case {case}"
                    );
                    assert_eq!(sim.decoded.mem, spec.decoded.mem, "case {case}");
                    assert_eq!(sim.pc_visits(), spec.visits, "case {case}");
                    assert_eq!(sim.pc_visits().iter().sum::<u64>(), stats.cycles);
                }
                Err(SimError::FuelExhausted) => fuel += 1,
                Err(SimError::AddrOutOfRange { .. }) => faults += 1,
                Err(_) => control += 1,
            }
            let code = &sim.decoded.code;
            spares += code
                .iter()
                .any(|op| matches!(op, MicroOp::Mov { src, .. } if (SPARE..COND).contains(src)))
                as u32;
            conds += code
                .iter()
                .any(|op| matches!(op, MicroOp::Mov { dst: COND, .. })) as u32;
            probes +=
                code.iter()
                    .any(|op| matches!(op, MicroOp::Load { dst: SINK, .. })) as u32;
        }
        // Every outcome and every reordering device is exercised.
        for (what, count) in [
            ("halted", halted),
            ("fuel", fuel),
            ("fault", faults),
            ("control", control),
            ("spare", spares),
            ("cond", conds),
            ("probe", probes),
        ] {
            assert!(count >= 100, "{what}: {count}");
        }
    }

    #[test]
    fn stats_utilization() {
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 1,
        });
        a.du1 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 2,
        });
        let p = program(vec![a, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.ops, 3);
        assert!((stats.ops_per_cycle() - 1.5).abs() < 1e-9);
    }
}
