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
//! anti-dependent operations into one instruction. A cycle buffers its
//! register and memory writes on the stack and commits them after its
//! last read.
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
//! slot except the PCU's becomes one micro-op in a flat table, in slot
//! order (integer, floating-point, address, then memory units), and
//! each PC gets a span of that table plus its decoded control
//! operation. A cycle is one loop over its span: nothing is re-matched
//! and no slot is skipped. The decode resolves every operand:
//!
//! * **One register file.** The address, integer and floating-point
//!   files are three consecutive runs of one array of words, so every
//!   register operand is a single `u8` slot. A last, extra slot always
//!   reads zero: nothing ever writes it.
//! * **One addressing form.** All four [`MemAddr`] modes become
//!   `(base, index, offset)`, with the zero slot standing in for any
//!   missing register. The effective address is
//!   `u32(base) + i32(index) + offset`, computed in `i64` and checked
//!   against the bank.
//! * **Operands resolved.** Immediates, `lea`, register copies within
//!   or across files, and address arithmetic become the micro-op of the
//!   operation they compute (a constant, a copy, an integer add).
//!
//! # Statistics
//!
//! The statistics are static too, except for how often each instruction
//! runs. The same decoding pass builds a table of per-PC facts —
//! operations, loads, stores, dual-memory and same-bank cycles, unit
//! occupancy — and a cycle only bumps the visit counter of its PC. At
//! halt, each [`SimStats`] count is the sum over the program of visits ×
//! that PC's fact, and `cycles` is the sum of the visits. Only the stack
//! high-water marks depend on machine state; they are updated after the
//! instructions that write a stack pointer.

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
/// The slot that always reads zero.
const ZERO: u8 = (3 * NUM_REGS_PER_FILE) as u8;
/// Slots in the unified register file: three files and the zero slot.
const REG_SLOTS: usize = 3 * NUM_REGS_PER_FILE + 1;
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
    /// `dst = dst + a * b`.
    FMac {
        dst: u8,
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

/// One PC's entry in the decoded program.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Its micro-ops are `code[start..end]`.
    start: u32,
    end: u32,
    pcu: Pcu,
    /// Writes `SP_X` or `SP_Y`, so the stack marks may move.
    writes_sp: bool,
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

/// Append the micro-ops of `inst` to `code` in slot order; return its
/// control operation and whether a micro-op writes a stack pointer.
fn decode_inst(inst: &VliwInst, code: &mut Vec<MicroOp>) -> Result<(Pcu, bool), BadReg> {
    let first = code.len();
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
    let writes_sp = code[first..].iter().any(|op| match *op {
        MicroOp::Const { dst, .. }
        | MicroOp::Mov { dst, .. }
        | MicroOp::IBin { dst, .. }
        | MicroOp::IBinImm { dst, .. }
        | MicroOp::Load { dst, .. } => dst == SP_X || dst == SP_Y,
        _ => false,
    });
    Ok((decode_pcu(inst.pcu)?, writes_sp))
}

/// Everything [`Simulator::new`] derives from a valid program.
#[derive(Default)]
struct Decoded {
    code: Vec<MicroOp>,
    /// Parallel to `program.insts`.
    spans: Vec<Span>,
    /// Parallel to `program.insts`.
    facts: Vec<PcFacts>,
    /// Bank X then bank Y, sized and initialized.
    mem: [Vec<Word>; 2],
}

impl Decoded {
    /// Validate `program`, decode it in one pass, then allocate its
    /// banks.
    fn new(program: &VliwProgram, dual_ported: bool) -> Result<Decoded, String> {
        program.validate(dual_ported)?;
        let n = program.insts.len();
        let mut d = Decoded {
            code: Vec::with_capacity(2 * n),
            spans: Vec::with_capacity(n),
            facts: Vec::with_capacity(n),
            mem: Default::default(),
        };
        for (pc, inst) in program.insts.iter().enumerate() {
            let start = d.code.len() as u32;
            let (pcu, writes_sp) = decode_inst(inst, &mut d.code)
                .map_err(|BadReg(r)| format!("inst {pc}: register index {r} out of range"))?;
            d.spans.push(Span {
                start,
                end: d.code.len() as u32,
                pcu,
                writes_sp,
            });
            d.facts.push(PcFacts::decode(inst));
        }
        let images = [(Bank::X, &program.x_image), (Bank::Y, &program.y_image)];
        for (mem, (bank, image)) in d.mem.iter_mut().zip(images) {
            *mem = vec![Word::ZERO; program.bank_words(bank)? as usize];
            mem[..image.init.len()].copy_from_slice(&image.init);
        }
        Ok(d)
    }
}

/// Register writes one instruction can make: two each from the integer,
/// floating-point and address units, plus two loads.
const MAX_REG_WRITES: usize = 8;
/// Memory writes one instruction can make: one store per memory unit.
const MAX_MEM_WRITES: usize = 2;

/// The machine state of the simulator.
pub struct Simulator<'p> {
    program: &'p VliwProgram,
    options: SimOptions,
    /// Why the program cannot run; nothing was decoded or allocated.
    invalid: Option<String>,
    /// The address, integer and floating-point files, then the zero slot.
    regs: [Word; REG_SLOTS],
    /// The decoded program and the two banks.
    decoded: Decoded,
    call_stack: Vec<u32>,
    pc: u32,
    halted: bool,
    /// Times each PC has executed, parallel to `program.insts`.
    visits: Vec<u64>,
    /// Cycles executed so far (the fuel meter; equals the visit sum).
    cycles: u64,
    max_stack_x: u32,
    max_stack_y: u32,
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
            visits: vec![0; decoded.spans.len()],
            decoded,
            call_stack: Vec::new(),
            pc: program.entry.0,
            halted: false,
            cycles: 0,
            max_stack_x: 0,
            max_stack_y: 0,
        }
    }

    /// Run until `halt` or an error.
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
        while !self.halted {
            if self.cycles >= self.options.fuel {
                return Err(SimError::FuelExhausted);
            }
            self.cycles += 1;
            self.step()?;
        }
        Ok(self.fold_stats())
    }

    /// The statistics of the cycles run so far: visits × per-PC facts.
    fn fold_stats(&self) -> SimStats {
        let mut s = SimStats {
            max_stack_x: self.max_stack_x,
            max_stack_y: self.max_stack_y,
            ..SimStats::default()
        };
        for (f, &n) in self.decoded.facts.iter().zip(&self.visits) {
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
        debug_assert_eq!(s.cycles, self.cycles);
        s
    }

    /// Execute one cycle of a validated program.
    fn step(&mut self) -> Result<(), SimError> {
        let pc = self.pc;
        let span = *self
            .decoded
            .spans
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;
        self.visits[pc as usize] += 1;

        // Phase 1: read everything and compute results against pre-state.
        let regs = &self.regs;
        let mem = &self.decoded.mem;
        let r = |s: u8| regs[usize::from(s)];
        let mut reg_writes = [(ZERO, Word::ZERO); MAX_REG_WRITES];
        let mut n_reg = 0;
        let mut mem_writes = [(Bank::X, 0u32, Word::ZERO); MAX_MEM_WRITES];
        let mut n_mem = 0;
        for op in &self.decoded.code[span.start as usize..span.end as usize] {
            let write = match *op {
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
                MicroOp::FMac { dst, a, b } => (
                    dst,
                    Word::from_f32(eval_fmac(r(dst).as_f32(), r(a).as_f32(), r(b).as_f32())),
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
                    (dst, bank_mem[effective(regs, addr, bank_mem, pc, bank)?])
                }
                MicroOp::Store { src, bank, addr } => {
                    let a = effective(regs, addr, &mem[bank as usize], pc, bank)?;
                    mem_writes[n_mem] = (bank, a as u32, r(src));
                    n_mem += 1;
                    continue;
                }
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
            self.decoded.mem[bank as usize][a as usize] = w;
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
            let spx = self.regs[usize::from(SP_X)].0;
            let spy = self.regs[usize::from(SP_Y)].0;
            let hx = spx.saturating_sub(self.program.x_stack_base);
            let hy = spy.saturating_sub(self.program.y_stack_base);
            self.max_stack_x = self.max_stack_x.max(hx);
            self.max_stack_y = self.max_stack_y.max(hy);
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

    /// Snapshot every data symbol's final contents, in symbol-table
    /// order: the simulator side of a differential comparison against
    /// the reference interpreter's global state. Duplicated symbols read
    /// from their home bank (the copies' coherence is a separate
    /// invariant, checked via [`Simulator::read_symbol_copy`]). An
    /// invalid program has no memory, so its snapshot is empty.
    #[must_use]
    pub fn snapshot_symbols(&self) -> Vec<(String, Vec<Word>)> {
        self.program
            .symbols
            .iter()
            .filter_map(|s| Some((s.name.clone(), self.symbol_words(s, s.home)?)))
            .collect()
    }

    /// Current value of an integer register (for tests).
    #[must_use]
    pub fn ireg(&self, i: usize) -> Word {
        self.regs[INT_FILE..INT_FILE + NUM_REGS_PER_FILE][i]
    }
}

/// The word address `addr` reaches in a bank of `mem.len()` words.
fn effective(
    regs: &[Word; REG_SLOTS],
    addr: Addr,
    mem: &[Word],
    pc: u32,
    bank: Bank,
) -> Result<usize, SimError> {
    let a = i64::from(regs[usize::from(addr.base)].0)
        + i64::from(regs[usize::from(addr.index)].as_i32())
        + addr.offset;
    if a < 0 || a >= mem.len() as i64 {
        return Err(SimError::AddrOutOfRange { pc, bank, addr: a });
    }
    Ok(a as usize)
}

// The arithmetic helpers are shared with the IR interpreter so the two
// execution engines can never drift apart.
use dsp_ir::interp::{eval_fbin, eval_fcmp, eval_fmac, eval_ibin, eval_icmp};

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
            assert!(sim.snapshot_symbols().is_empty());
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
