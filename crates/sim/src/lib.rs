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
//! anti-dependent operations into one instruction.
//!
//! The simulator enforces the memory-bank discipline: in the normal
//! (single-ported) configuration, the MU0 slot may only hold bank-X
//! operations and MU1 only bank-Y operations. The *Ideal* configuration
//! of the paper — a dual-ported memory — is modelled by
//! [`SimOptions::dual_ported`], which lets either unit reach either
//! bank. The discipline is a static property of the program, so
//! [`Simulator::run`] checks it once, through [`VliwProgram::validate`],
//! before the first cycle.
//!
//! The statistics are static too, except for how often each instruction
//! runs. [`Simulator::new`] decodes every instruction once into a table
//! of per-PC facts — operations, loads, stores, dual-memory and
//! same-bank cycles, unit occupancy — and a cycle only bumps the visit
//! counter of its PC. At halt, each [`SimStats`] count is the sum over
//! the program of visits × that PC's fact, and `cycles` is the sum of
//! the visits. Only the stack high-water marks depend on machine state;
//! they are updated after the instructions that write a stack pointer.

use dsp_machine::{
    AReg, AddrOp, Bank, FpOp, FuncUnit, IReg, IntOp, IntOperand, MemAddr, MemOp, PcuOp, Reg,
    VliwInst, VliwProgram, Word, NUM_REGS_PER_FILE,
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
    /// memory-bank discipline.
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
    /// Writes `SP_X` or `SP_Y`, so the stack marks may move.
    writes_sp: bool,
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
        let mem_ops = || [&inst.mu0, &inst.mu1].into_iter().flatten();
        let mem_count = inst.mem_op_count() as u8;
        let stores = mem_ops().filter(|op| op.is_store()).count() as u8;
        let is_sp = |r: AReg| r == AReg::SP_X || r == AReg::SP_Y;
        let au_writes_sp = [&inst.au0, &inst.au1]
            .into_iter()
            .flatten()
            .any(|op| match *op {
                AddrOp::Lea { dst, .. }
                | AddrOp::AddIndex { dst, .. }
                | AddrOp::AddImm { dst, .. }
                | AddrOp::Mov { dst, .. }
                | AddrOp::FromInt { dst, .. } => is_sp(dst),
                AddrOp::ToInt { .. } => false,
            });
        let load_writes_sp =
            mem_ops().any(|op| matches!(*op, MemOp::Load { dst: Reg::Addr(r), .. } if is_sp(r)));
        let dual_mem = mem_count == 2;
        PcFacts {
            ops: inst.op_count() as u8,
            loads: mem_count - stores,
            stores,
            dual_mem,
            bank_conflict: dual_mem
                && inst.mu0.as_ref().map(MemOp::bank) == inst.mu1.as_ref().map(MemOp::bank),
            units,
            writes_sp: au_writes_sp || load_writes_sp,
        }
    }
}

/// The writes of one cycle, held until every read of the cycle is done.
struct Pending<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> Pending<T, N> {
    fn new(fill: T) -> Self {
        Pending {
            items: [fill; N],
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
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
    aregs: [Word; NUM_REGS_PER_FILE],
    iregs: [Word; NUM_REGS_PER_FILE],
    fregs: [Word; NUM_REGS_PER_FILE],
    mem_x: Vec<Word>,
    mem_y: Vec<Word>,
    call_stack: Vec<u32>,
    pc: u32,
    halted: bool,
    /// Static facts per PC, parallel to `program.insts`.
    facts: Vec<PcFacts>,
    /// Times each PC has executed, parallel to `program.insts`.
    visits: Vec<u64>,
    /// Cycles executed so far (the fuel meter; equals the visit sum).
    cycles: u64,
    max_stack_x: u32,
    max_stack_y: u32,
}

/// Hardware call-stack depth (the DSP56001 has a 15-deep one; we are a
/// little more generous for recursive benchmarks).
const CALL_STACK_DEPTH: usize = 4096;

impl<'p> Simulator<'p> {
    /// Create a simulator with memories initialized from the program
    /// images and the stack pointers pointing at their bases, and decode
    /// the program's per-PC facts.
    #[must_use]
    pub fn new(program: &'p VliwProgram, options: SimOptions) -> Simulator<'p> {
        let x_size = (program.x_stack_base + program.stack_words) as usize;
        let y_size = (program.y_stack_base + program.stack_words) as usize;
        let mut mem_x = vec![Word::ZERO; x_size.max(program.x_image.init.len())];
        let mut mem_y = vec![Word::ZERO; y_size.max(program.y_image.init.len())];
        mem_x[..program.x_image.init.len()].copy_from_slice(&program.x_image.init);
        mem_y[..program.y_image.init.len()].copy_from_slice(&program.y_image.init);
        let mut sim = Simulator {
            program,
            options,
            aregs: [Word::ZERO; NUM_REGS_PER_FILE],
            iregs: [Word::ZERO; NUM_REGS_PER_FILE],
            fregs: [Word::ZERO; NUM_REGS_PER_FILE],
            mem_x,
            mem_y,
            call_stack: Vec::new(),
            pc: program.entry.0,
            halted: false,
            facts: program.insts.iter().map(PcFacts::decode).collect(),
            visits: vec![0; program.insts.len()],
            cycles: 0,
            max_stack_x: 0,
            max_stack_y: 0,
        };
        sim.aregs[AReg::SP_X.index()] = Word(program.x_stack_base);
        sim.aregs[AReg::SP_Y.index()] = Word(program.y_stack_base);
        sim
    }

    /// Run until `halt` or an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on validation failure (bank discipline
    /// included), out-of-range accesses or program counters, call-stack
    /// faults, or fuel exhaustion.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.program
            .validate(self.options.dual_ported)
            .map_err(SimError::Invalid)?;
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
        for (f, &n) in self.facts.iter().zip(&self.visits) {
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
        let inst = self
            .program
            .insts
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;
        self.visits[pc as usize] += 1;

        // Phase 1: read everything and compute results against pre-state.
        let mut reg_writes: Pending<(Reg, Word), MAX_REG_WRITES> =
            Pending::new((Reg::Int(IReg(0)), Word::ZERO));
        let mut mem_writes: Pending<(Bank, u32, Word), MAX_MEM_WRITES> =
            Pending::new((Bank::X, 0, Word::ZERO));
        let mut next_pc = pc + 1;
        let mut push_ra: Option<u32> = None;
        let mut pop_ra = false;

        for op in [&inst.du0, &inst.du1].into_iter().flatten() {
            let (dst, w) = self.eval_int(op);
            reg_writes.push((Reg::Int(dst), w));
        }
        for op in [&inst.fpu0, &inst.fpu1].into_iter().flatten() {
            reg_writes.push(self.eval_fp(op));
        }
        for op in [&inst.au0, &inst.au1].into_iter().flatten() {
            reg_writes.push(self.eval_addr(op));
        }
        for op in [&inst.mu0, &inst.mu1].into_iter().flatten() {
            match op {
                MemOp::Load { dst, addr, bank } => {
                    let a = self.effective(addr, pc, *bank)?;
                    reg_writes.push((*dst, self.mem(*bank)[a as usize]));
                }
                MemOp::Store { src, addr, bank } => {
                    let a = self.effective(addr, pc, *bank)?;
                    mem_writes.push((*bank, a, self.read_reg(*src)));
                }
            }
        }
        if let Some(op) = &inst.pcu {
            match op {
                PcuOp::Jump(t) => next_pc = t.0,
                PcuOp::BranchNz { cond, target } => {
                    if self.iregs[cond.index()].is_truthy() {
                        next_pc = target.0;
                    }
                }
                PcuOp::BranchZ { cond, target } => {
                    if !self.iregs[cond.index()].is_truthy() {
                        next_pc = target.0;
                    }
                }
                PcuOp::Call(t) => {
                    push_ra = Some(pc + 1);
                    next_pc = t.0;
                }
                PcuOp::Ret => pop_ra = true,
                PcuOp::Halt => {
                    self.halted = true;
                }
            }
        }

        // Phase 2: commit.
        for &(r, w) in reg_writes.as_slice() {
            self.write_reg(r, w);
        }
        for &(bank, a, w) in mem_writes.as_slice() {
            self.mem_mut(bank)[a as usize] = w;
        }
        if let Some(ra) = push_ra {
            if self.call_stack.len() >= CALL_STACK_DEPTH {
                return Err(SimError::CallStackOverflow { pc });
            }
            self.call_stack.push(ra);
        }
        if pop_ra {
            next_pc = self
                .call_stack
                .pop()
                .ok_or(SimError::CallStackUnderflow { pc })?;
        }
        self.pc = next_pc;

        if self.facts[pc as usize].writes_sp {
            let spx = self.aregs[AReg::SP_X.index()].0;
            let spy = self.aregs[AReg::SP_Y.index()].0;
            let hx = spx.saturating_sub(self.program.x_stack_base);
            let hy = spy.saturating_sub(self.program.y_stack_base);
            self.max_stack_x = self.max_stack_x.max(hx);
            self.max_stack_y = self.max_stack_y.max(hy);
        }
        Ok(())
    }

    fn eval_int(&self, op: &IntOp) -> (dsp_machine::IReg, Word) {
        let iop = |o: IntOperand| match o {
            IntOperand::Reg(r) => self.iregs[r.index()].as_i32(),
            IntOperand::Imm(v) => v,
        };
        match *op {
            IntOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let v = eval_ibin(kind, self.iregs[lhs.index()].as_i32(), iop(rhs));
                (dst, Word::from_i32(v))
            }
            IntOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let v = eval_icmp(kind, self.iregs[lhs.index()].as_i32(), iop(rhs));
                (dst, Word::from_i32(i32::from(v)))
            }
            IntOp::MovImm { dst, imm } => (dst, Word::from_i32(imm)),
            IntOp::Mov { dst, src } => (dst, self.iregs[src.index()]),
            IntOp::Neg { dst, src } => (
                dst,
                Word::from_i32(self.iregs[src.index()].as_i32().wrapping_neg()),
            ),
            IntOp::Not { dst, src } => (dst, Word::from_i32(!self.iregs[src.index()].as_i32())),
        }
    }

    fn eval_fp(&self, op: &FpOp) -> (Reg, Word) {
        match *op {
            FpOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.fregs[lhs.index()].as_f32();
                let b = self.fregs[rhs.index()].as_f32();
                (Reg::Float(dst), Word::from_f32(eval_fbin(kind, a, b)))
            }
            FpOp::Mac { dst, a, b } => {
                let v = eval_fmac(
                    self.fregs[dst.index()].as_f32(),
                    self.fregs[a.index()].as_f32(),
                    self.fregs[b.index()].as_f32(),
                );
                (Reg::Float(dst), Word::from_f32(v))
            }
            FpOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.fregs[lhs.index()].as_f32();
                let b = self.fregs[rhs.index()].as_f32();
                (
                    Reg::Int(dst),
                    Word::from_i32(i32::from(eval_fcmp(kind, a, b))),
                )
            }
            FpOp::MovImm { dst, imm } => (Reg::Float(dst), Word::from_f32(imm)),
            FpOp::Mov { dst, src } => (Reg::Float(dst), self.fregs[src.index()]),
            FpOp::Neg { dst, src } => (
                Reg::Float(dst),
                Word::from_f32(-self.fregs[src.index()].as_f32()),
            ),
            FpOp::CvtItoF { dst, src } => (
                Reg::Float(dst),
                Word::from_f32(self.iregs[src.index()].as_i32() as f32),
            ),
            FpOp::CvtFtoI { dst, src } => (
                Reg::Int(dst),
                Word::from_i32(self.fregs[src.index()].as_f32() as i32),
            ),
        }
    }

    fn eval_addr(&self, op: &AddrOp) -> (Reg, Word) {
        match *op {
            AddrOp::Lea { dst, addr } => (Reg::Addr(dst), Word(addr)),
            AddrOp::AddIndex { dst, base, index } => {
                let v = (self.aregs[base.index()].0 as i64
                    + i64::from(self.iregs[index.index()].as_i32())) as u32;
                (Reg::Addr(dst), Word(v))
            }
            AddrOp::AddImm { dst, base, imm } => {
                let v = (self.aregs[base.index()].0 as i64 + i64::from(imm)) as u32;
                (Reg::Addr(dst), Word(v))
            }
            AddrOp::Mov { dst, src } => (Reg::Addr(dst), self.aregs[src.index()]),
            AddrOp::ToInt { dst, src } => (Reg::Int(dst), self.aregs[src.index()]),
            AddrOp::FromInt { dst, src } => (Reg::Addr(dst), self.iregs[src.index()]),
        }
    }

    fn effective(&self, addr: &MemAddr, pc: u32, bank: Bank) -> Result<u32, SimError> {
        let a: i64 = match *addr {
            MemAddr::Absolute(a) => i64::from(a),
            MemAddr::Base { base, offset } => {
                i64::from(self.aregs[base.index()].0) + i64::from(offset)
            }
            MemAddr::AbsIndex { addr, index } => {
                i64::from(addr) + i64::from(self.iregs[index.index()].as_i32())
            }
            MemAddr::BaseIndex {
                base,
                index,
                offset,
            } => {
                i64::from(self.aregs[base.index()].0)
                    + i64::from(self.iregs[index.index()].as_i32())
                    + i64::from(offset)
            }
        };
        let size = self.mem(bank).len() as i64;
        if a < 0 || a >= size {
            return Err(SimError::AddrOutOfRange { pc, bank, addr: a });
        }
        Ok(a as u32)
    }

    fn mem(&self, bank: Bank) -> &[Word] {
        match bank {
            Bank::X => &self.mem_x,
            Bank::Y => &self.mem_y,
        }
    }

    fn mem_mut(&mut self, bank: Bank) -> &mut [Word] {
        match bank {
            Bank::X => &mut self.mem_x,
            Bank::Y => &mut self.mem_y,
        }
    }

    fn read_reg(&self, r: Reg) -> Word {
        match r {
            Reg::Addr(r) => self.aregs[r.index()],
            Reg::Int(r) => self.iregs[r.index()],
            Reg::Float(r) => self.fregs[r.index()],
        }
    }

    fn write_reg(&mut self, r: Reg, w: Word) {
        match r {
            Reg::Addr(r) => self.aregs[r.index()] = w,
            Reg::Int(r) => self.iregs[r.index()] = w,
            Reg::Float(r) => self.fregs[r.index()] = w,
        }
    }

    /// Read the contents of a named data symbol from its home bank.
    #[must_use]
    pub fn read_symbol(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        let mem = self.mem(sym.home);
        let start = sym.addr as usize;
        Some(mem[start..start + sym.size as usize].to_vec())
    }

    /// Read the *secondary* copy of a duplicated symbol (same address,
    /// other bank). Returns `None` for non-duplicated symbols.
    #[must_use]
    pub fn read_symbol_copy(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        if !sym.duplicated {
            return None;
        }
        let mem = self.mem(sym.home.other());
        let start = sym.addr as usize;
        Some(mem[start..start + sym.size as usize].to_vec())
    }

    /// Snapshot every data symbol's final contents, in symbol-table
    /// order: the simulator side of a differential comparison against
    /// the reference interpreter's global state. Duplicated symbols read
    /// from their home bank (the copies' coherence is a separate
    /// invariant, checked via [`Simulator::read_symbol_copy`]).
    #[must_use]
    pub fn snapshot_symbols(&self) -> Vec<(String, Vec<Word>)> {
        self.program
            .symbols
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    self.read_symbol(&s.name).expect("symbol table name"),
                )
            })
            .collect()
    }

    /// Current value of an integer register (for tests).
    #[must_use]
    pub fn ireg(&self, i: usize) -> Word {
        self.iregs[i]
    }
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
