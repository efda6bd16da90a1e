//! Lowering from register-allocated IR to LIR.
//!
//! Responsibilities:
//!
//! * addressing-mode selection (absolute, absolute+index, SP-relative);
//! * the calling convention (argument moves, return-value moves);
//! * prologue/epilogue: callee-saved register saves/restores split
//!   across the two stacks in alternation, and the dual stack-pointer
//!   adjustments (the paper's two program stacks, §3.1);
//! * spill-slot reloads/write-backs through the scratch registers;
//! * **duplicated-data maintenance**: a store to a duplicated variable
//!   emits one store per bank, and loads from duplicated variables are
//!   tagged [`MemClaim::Either`] so the compaction pass may satisfy them
//!   from whichever bank has a free memory unit (paper §3.2).

use dsp_bankalloc::BankAllocation;
use dsp_ir::ops::{Arg, MemBase, MemRef, Op};
use dsp_ir::{BlockId, FuncId, Function, ParamKind, Program, Type, VReg};
use dsp_machine::{AReg, AddrOp, Bank, FReg, FpOp, IReg, IntOp, IntOperand, MemAddr, MemOp, Reg};
use dsp_sched::MemClaim;

use crate::conv;
use crate::layout::{DataLayout, FrameLayout};
use crate::lir::{AliasKey, LirFunction, LirOp, MemMeta};
use crate::regalloc::{allocate, used_regs, Assignment, Loc};

/// Errors produced while lowering to LIR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LirGenError {
    /// A call passes more arguments of one kind than the convention has
    /// registers for.
    TooManyArgs {
        /// The offending function.
        func: String,
    },
}

impl std::fmt::Display for LirGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LirGenError::TooManyArgs { func } => {
                write!(
                    f,
                    "function `{func}` exceeds the {}-argument-per-kind convention",
                    conv::MAX_ARGS
                )
            }
        }
    }
}

impl std::error::Error for LirGenError {}

/// Code-generation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct LirGenOptions {
    /// Emit duplicated-data stores as atomic [`LirOp::DupStorePair`]s
    /// that update both bank copies in one cycle, so interrupts can
    /// never observe the copies out of sync (paper §3.2). Costs
    /// schedule flexibility: the pair needs both memory units free.
    pub interrupt_safe_dup: bool,
}

/// Lower one function, allocating its registers first
/// ([`allocate_registers`]).
///
/// # Errors
///
/// Returns [`LirGenError`] when a signature or call site exceeds the
/// argument-register convention.
pub fn lower_function(
    program: &Program,
    func: FuncId,
    alloc: &BankAllocation,
    layout: &DataLayout,
) -> Result<LirFunction, LirGenError> {
    let asn = allocate_registers(program.func(func))?;
    lower_function_with(program, func, alloc, layout, &asn, LirGenOptions::default())
}

/// Check `f`'s signature against the argument-register convention, then
/// allocate its registers. The assignment reads only the IR, so one
/// serves every bank allocation of the program.
///
/// # Errors
///
/// Returns [`LirGenError::TooManyArgs`] when the signature exceeds the
/// convention; allocation is not attempted then.
pub fn allocate_registers(f: &Function) -> Result<Assignment, LirGenError> {
    check_arg_counts(f)?;
    Ok(allocate(f))
}

/// Lower one function whose registers `asn` assigns (from
/// [`allocate_registers`] of the same function).
///
/// # Errors
///
/// Returns [`LirGenError`] when a call site exceeds the
/// argument-register convention.
pub fn lower_function_with(
    program: &Program,
    func: FuncId,
    alloc: &BankAllocation,
    layout: &DataLayout,
    asn: &Assignment,
    options: LirGenOptions,
) -> Result<LirFunction, LirGenError> {
    let f = program.func(func);

    // The save set: every allocatable register the body writes, the
    // homes of scalar and array parameters, and the spill scratches if
    // spilling happens at all.
    let mut saves: Vec<Reg> = Vec::new();
    for (ty, r) in used_regs(f, asn) {
        saves.push(match ty {
            Type::Int => Reg::Int(IReg(r)),
            Type::Float => Reg::Float(FReg(r)),
        });
    }
    let mut scalar_seen = 0usize;
    let mut arrays_seen = 0usize;
    for (pi, p) in f.params.iter().enumerate() {
        match p.kind {
            ParamKind::Value(_) => {
                if let Loc::Reg(r) = asn.of(VReg(scalar_seen as u32)) {
                    let reg = match f.vreg_ty(VReg(scalar_seen as u32)) {
                        Type::Int => Reg::Int(IReg(r)),
                        Type::Float => Reg::Float(FReg(r)),
                    };
                    if !saves.contains(&reg) {
                        saves.push(reg);
                    }
                }
                scalar_seen += 1;
            }
            ParamKind::Array(_) => {
                let home = Reg::Addr(conv::param_home(pi_to_array_index(f, pi)));
                if !saves.contains(&home) {
                    saves.push(home);
                }
                arrays_seen += 1;
            }
        }
    }
    let _ = arrays_seen;
    if asn.spill_slots > 0 {
        for s in conv::SCRATCH_I {
            saves.push(Reg::Int(s));
        }
        for s in conv::SCRATCH_F {
            saves.push(Reg::Float(s));
        }
    }

    let frame = FrameLayout::compute(program, alloc, func, saves.len(), asn.spill_slots);

    let mut cx = Cx {
        program,
        func,
        f,
        alloc,
        layout,
        asn,
        frame: &frame,
        saves: &saves,
        options,
    };

    let mut blocks: Vec<Vec<LirOp>> = Vec::with_capacity(f.blocks.len() + 1);
    for (bi, block) in f.iter_blocks() {
        let mut out = Vec::new();
        for op in &block.ops {
            cx.lower_op(op, &mut out)?;
        }
        let _ = bi;
        blocks.push(out);
    }
    // Dedicated prologue block jumping to the IR entry (the IR entry may
    // be a branch target; the prologue must execute exactly once).
    let prologue_id = BlockId(blocks.len() as u32);
    let mut prologue = Vec::new();
    cx.emit_prologue(&mut prologue);
    prologue.push(LirOp::Jump(f.entry));
    blocks.push(prologue);

    Ok(LirFunction {
        name: f.name.clone(),
        blocks,
        entry: prologue_id,
        frame,
    })
}

/// The index of parameter `pi` among the *array* parameters.
fn pi_to_array_index(f: &Function, pi: usize) -> usize {
    f.params[..pi]
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::Array(_)))
        .count()
}

fn check_arg_counts(f: &Function) -> Result<(), LirGenError> {
    let ints = f
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::Value(Type::Int)))
        .count();
    let floats = f
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::Value(Type::Float)))
        .count();
    let arrays = f
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::Array(_)))
        .count();
    if ints > conv::MAX_ARGS || floats > conv::MAX_ARGS || arrays > conv::MAX_ARGS {
        return Err(LirGenError::TooManyArgs {
            func: f.name.clone(),
        });
    }
    Ok(())
}

struct Cx<'a> {
    program: &'a Program,
    func: FuncId,
    f: &'a Function,
    alloc: &'a BankAllocation,
    layout: &'a DataLayout,
    asn: &'a Assignment,
    frame: &'a FrameLayout,
    saves: &'a [Reg],
    options: LirGenOptions,
}

impl Cx<'_> {
    /// Spill-slot address within its bank's frame, relative to the
    /// *current* (bumped) stack pointer.
    fn spill_addr(&self, slot: u32) -> (Bank, MemAddr, AliasKey) {
        let (bank, off) = self.frame.spill_off[slot as usize];
        let sp = sp_of(bank);
        let disp = off as i32 - self.frame.frame_words(bank) as i32;
        (
            bank,
            MemAddr::Base {
                base: sp,
                offset: disp,
            },
            AliasKey::Frame(bank, off),
        )
    }

    fn spill_load(&self, slot: u32, dst: Reg, out: &mut Vec<LirOp>) {
        let (bank, addr, alias) = self.spill_addr(slot);
        out.push(LirOp::Mem {
            op: MemOp::Load { dst, addr, bank },
            meta: MemMeta {
                alias,
                claim: MemClaim::Fixed(bank),
            },
        });
    }

    fn spill_store(&self, slot: u32, src: Reg, out: &mut Vec<LirOp>) {
        let (bank, addr, alias) = self.spill_addr(slot);
        out.push(LirOp::Mem {
            op: MemOp::Store { src, addr, bank },
            meta: MemMeta {
                alias,
                claim: MemClaim::Fixed(bank),
            },
        });
    }

    /// Materialize an integer vreg for reading; spilled vregs reload
    /// into scratch `which`.
    fn read_i(&self, v: VReg, which: usize, out: &mut Vec<LirOp>) -> IReg {
        match self.asn.of(v) {
            Loc::Reg(r) => IReg(r),
            Loc::Spill(slot) => {
                let s = conv::SCRATCH_I[which];
                self.spill_load(slot, Reg::Int(s), out);
                s
            }
        }
    }

    fn read_f(&self, v: VReg, which: usize, out: &mut Vec<LirOp>) -> FReg {
        match self.asn.of(v) {
            Loc::Reg(r) => FReg(r),
            Loc::Spill(slot) => {
                let s = conv::SCRATCH_F[which];
                self.spill_load(slot, Reg::Float(s), out);
                s
            }
        }
    }

    /// The destination register for defining `v`; spilled vregs compute
    /// into scratch 0 and `finish_write` stores it back.
    fn write_i(&self, v: VReg) -> IReg {
        match self.asn.of(v) {
            Loc::Reg(r) => IReg(r),
            Loc::Spill(_) => conv::SCRATCH_I[0],
        }
    }

    fn write_f(&self, v: VReg) -> FReg {
        match self.asn.of(v) {
            Loc::Reg(r) => FReg(r),
            Loc::Spill(_) => conv::SCRATCH_F[0],
        }
    }

    fn finish_write(&self, v: VReg, out: &mut Vec<LirOp>) {
        if let Loc::Spill(slot) = self.asn.of(v) {
            let reg = match self.f.vreg_ty(v) {
                Type::Int => Reg::Int(conv::SCRATCH_I[0]),
                Type::Float => Reg::Float(conv::SCRATCH_F[0]),
            };
            self.spill_store(slot, reg, out);
        }
    }

    /// Build the machine address + claim info for an IR memory
    /// reference.
    fn mem_addr(&self, addr: &MemRef, out: &mut Vec<LirOp>) -> (MemAddr, Bank, bool, AliasKey) {
        let bank = self.alloc.bank_of_base(self.func, addr.base);
        let dup = self.alloc.is_duplicated_base(self.func, addr.base);
        let class = self.alloc.alias().class_of_base(self.func, addr.base);
        let alias = AliasKey::Class(class, *addr);
        let idx = addr.index.map(|v| self.read_i(v, 1, out));
        let machine = match addr.base {
            MemBase::Global(g) => {
                let base = self.layout.global_addr[g.index()] as i64 + i64::from(addr.offset);
                match idx {
                    None => {
                        debug_assert!(base >= 0, "direct access below the bank");
                        MemAddr::Absolute(base as u32)
                    }
                    Some(i) => MemAddr::AbsIndex {
                        addr: base as i32,
                        index: i,
                    },
                }
            }
            MemBase::Local(l) => {
                let (lbank, off) = self.frame.local_off[l.index()];
                debug_assert_eq!(lbank, bank, "local bank mismatch");
                let sp = sp_of(bank);
                let disp = off as i32 + addr.offset - self.frame.frame_words(bank) as i32;
                match idx {
                    None => MemAddr::Base {
                        base: sp,
                        offset: disp,
                    },
                    Some(i) => MemAddr::BaseIndex {
                        base: sp,
                        index: i,
                        offset: disp,
                    },
                }
            }
            MemBase::Param(pi) => {
                let home = conv::param_home(pi_to_array_index(self.f, pi));
                match idx {
                    None => MemAddr::Base {
                        base: home,
                        offset: addr.offset,
                    },
                    Some(i) => MemAddr::BaseIndex {
                        base: home,
                        index: i,
                        offset: addr.offset,
                    },
                }
            }
        };
        (machine, bank, dup, alias)
    }

    #[allow(clippy::too_many_lines)]
    fn lower_op(&mut self, op: &Op, out: &mut Vec<LirOp>) -> Result<(), LirGenError> {
        match op {
            Op::MovI { dst, src } => {
                let d = self.write_i(*dst);
                let lir = match src {
                    dsp_ir::ops::IOperand::Imm(c) => IntOp::MovImm { dst: d, imm: *c },
                    dsp_ir::ops::IOperand::Reg(r) => IntOp::Mov {
                        dst: d,
                        src: self.read_i(*r, 0, out),
                    },
                };
                out.push(LirOp::Int(lir));
                self.finish_write(*dst, out);
            }
            Op::MovF { dst, src } => {
                let d = self.write_f(*dst);
                let lir = match src {
                    dsp_ir::ops::FOperand::Imm(c) => FpOp::MovImm { dst: d, imm: *c },
                    dsp_ir::ops::FOperand::Reg(r) => FpOp::Mov {
                        dst: d,
                        src: self.read_f(*r, 0, out),
                    },
                };
                out.push(LirOp::Fp(lir));
                self.finish_write(*dst, out);
            }
            Op::IBin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.read_i(*lhs, 0, out);
                let b = match rhs {
                    dsp_ir::ops::IOperand::Imm(c) => IntOperand::Imm(*c),
                    dsp_ir::ops::IOperand::Reg(r) => IntOperand::Reg(self.read_i(*r, 1, out)),
                };
                let d = self.write_i(*dst);
                out.push(LirOp::Int(IntOp::Bin {
                    kind: *kind,
                    dst: d,
                    lhs: a,
                    rhs: b,
                }));
                self.finish_write(*dst, out);
            }
            Op::ICmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.read_i(*lhs, 0, out);
                let b = match rhs {
                    dsp_ir::ops::IOperand::Imm(c) => IntOperand::Imm(*c),
                    dsp_ir::ops::IOperand::Reg(r) => IntOperand::Reg(self.read_i(*r, 1, out)),
                };
                let d = self.write_i(*dst);
                out.push(LirOp::Int(IntOp::Cmp {
                    kind: *kind,
                    dst: d,
                    lhs: a,
                    rhs: b,
                }));
                self.finish_write(*dst, out);
            }
            Op::INeg { dst, src } => {
                let s = self.read_i(*src, 0, out);
                let d = self.write_i(*dst);
                out.push(LirOp::Int(IntOp::Neg { dst: d, src: s }));
                self.finish_write(*dst, out);
            }
            Op::INot { dst, src } => {
                let s = self.read_i(*src, 0, out);
                let d = self.write_i(*dst);
                out.push(LirOp::Int(IntOp::Not { dst: d, src: s }));
                self.finish_write(*dst, out);
            }
            Op::FBin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.read_f(*lhs, 0, out);
                let b = self.read_f(*rhs, 1, out);
                let d = self.write_f(*dst);
                out.push(LirOp::Fp(FpOp::Bin {
                    kind: *kind,
                    dst: d,
                    lhs: a,
                    rhs: b,
                }));
                self.finish_write(*dst, out);
            }
            Op::FCmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.read_f(*lhs, 0, out);
                let b = self.read_f(*rhs, 1, out);
                let d = self.write_i(*dst);
                out.push(LirOp::Fp(FpOp::Cmp {
                    kind: *kind,
                    dst: d,
                    lhs: a,
                    rhs: b,
                }));
                self.finish_write(*dst, out);
            }
            Op::FNeg { dst, src } => {
                let s = self.read_f(*src, 0, out);
                let d = self.write_f(*dst);
                out.push(LirOp::Fp(FpOp::Neg { dst: d, src: s }));
                self.finish_write(*dst, out);
            }
            Op::FMac { acc, a, b } => {
                let fa = self.read_f(*a, 0, out);
                let fb = self.read_f(*b, 1, out);
                // The accumulator is read and written; a spilled
                // accumulator flows through the float return register,
                // which is free between calls (both scratches may be
                // busy with the factors).
                let d = match self.asn.of(*acc) {
                    Loc::Reg(r) => FReg(r),
                    Loc::Spill(slot) => {
                        let s = conv::RET_F;
                        self.spill_load(slot, Reg::Float(s), out);
                        s
                    }
                };
                out.push(LirOp::Fp(FpOp::Mac {
                    dst: d,
                    a: fa,
                    b: fb,
                }));
                if let Loc::Spill(slot) = self.asn.of(*acc) {
                    self.spill_store(slot, Reg::Float(d), out);
                }
            }
            Op::ItoF { dst, src } => {
                let s = self.read_i(*src, 0, out);
                let d = self.write_f(*dst);
                out.push(LirOp::Fp(FpOp::CvtItoF { dst: d, src: s }));
                self.finish_write(*dst, out);
            }
            Op::FtoI { dst, src } => {
                let s = self.read_f(*src, 0, out);
                let d = self.write_i(*dst);
                out.push(LirOp::Fp(FpOp::CvtFtoI { dst: d, src: s }));
                self.finish_write(*dst, out);
            }
            Op::Load { dst, addr } => {
                let (machine, bank, dup, alias) = self.mem_addr(addr, out);
                let d = match self.f.vreg_ty(*dst) {
                    Type::Int => Reg::Int(self.write_i(*dst)),
                    Type::Float => Reg::Float(self.write_f(*dst)),
                };
                let claim = if dup {
                    MemClaim::Either
                } else {
                    MemClaim::Fixed(bank)
                };
                out.push(LirOp::Mem {
                    op: MemOp::Load {
                        dst: d,
                        addr: machine,
                        bank,
                    },
                    meta: MemMeta { alias, claim },
                });
                self.finish_write(*dst, out);
            }
            Op::Store { src, addr } => {
                let (machine, bank, dup, alias) = self.mem_addr(addr, out);
                let s = match self.f.vreg_ty(*src) {
                    Type::Int => Reg::Int(self.read_i(*src, 0, out)),
                    Type::Float => Reg::Float(self.read_f(*src, 0, out)),
                };
                if dup && self.options.interrupt_safe_dup {
                    // Atomic pair: both copies written in one cycle.
                    let (xb, yb) = match bank {
                        Bank::X => (bank, bank.other()),
                        Bank::Y => (bank.other(), bank),
                    };
                    out.push(LirOp::DupStorePair {
                        x: MemOp::Store {
                            src: s,
                            addr: machine,
                            bank: xb,
                        },
                        y: MemOp::Store {
                            src: s,
                            addr: machine,
                            bank: yb,
                        },
                        alias,
                    });
                } else {
                    out.push(LirOp::Mem {
                        op: MemOp::Store {
                            src: s,
                            addr: machine,
                            bank,
                        },
                        meta: MemMeta {
                            alias,
                            claim: MemClaim::Fixed(bank),
                        },
                    });
                    if dup {
                        // The bookkeeping store keeping the second copy
                        // coherent (paper §3.2).
                        let other = bank.other();
                        out.push(LirOp::Mem {
                            op: MemOp::Store {
                                src: s,
                                addr: machine,
                                bank: other,
                            },
                            meta: MemMeta {
                                alias,
                                claim: MemClaim::Fixed(other),
                            },
                        });
                    }
                }
            }
            Op::Call { dst, callee, args } => {
                let callee_f = self.program.func(*callee);
                let mut reads = Vec::new();
                let mut ints = 0usize;
                let mut floats = 0usize;
                let mut arrays = 0usize;
                for (a, p) in args.iter().zip(&callee_f.params) {
                    match (a, p.kind) {
                        (Arg::Value(v), ParamKind::Value(Type::Int)) => {
                            if ints >= conv::MAX_ARGS {
                                return Err(LirGenError::TooManyArgs {
                                    func: callee_f.name.clone(),
                                });
                            }
                            let dst = conv::arg_i(ints);
                            let s = self.read_i(*v, 0, out);
                            out.push(LirOp::Int(IntOp::Mov { dst, src: s }));
                            reads.push(Reg::Int(dst));
                            ints += 1;
                        }
                        (Arg::Value(v), ParamKind::Value(Type::Float)) => {
                            if floats >= conv::MAX_ARGS {
                                return Err(LirGenError::TooManyArgs {
                                    func: callee_f.name.clone(),
                                });
                            }
                            let dst = conv::arg_f(floats);
                            let s = self.read_f(*v, 0, out);
                            out.push(LirOp::Fp(FpOp::Mov { dst, src: s }));
                            reads.push(Reg::Float(dst));
                            floats += 1;
                        }
                        (Arg::Array(base), ParamKind::Array(_)) => {
                            if arrays >= conv::MAX_ARGS {
                                return Err(LirGenError::TooManyArgs {
                                    func: callee_f.name.clone(),
                                });
                            }
                            let dst = conv::arg_a(arrays);
                            let op = match base {
                                MemBase::Global(g) => AddrOp::Lea {
                                    dst,
                                    addr: self.layout.global_addr[g.index()],
                                },
                                MemBase::Local(l) => {
                                    let (bank, off) = self.frame.local_off[l.index()];
                                    AddrOp::AddImm {
                                        dst,
                                        base: sp_of(bank),
                                        imm: off as i32 - self.frame.frame_words(bank) as i32,
                                    }
                                }
                                MemBase::Param(pi) => AddrOp::Mov {
                                    dst,
                                    src: conv::param_home(pi_to_array_index(self.f, *pi)),
                                },
                            };
                            out.push(LirOp::Addr(op));
                            reads.push(Reg::Addr(dst));
                            arrays += 1;
                        }
                        _ => unreachable!("validated call matches signature"),
                    }
                }
                let ret = dst.map(|d| match self.f.vreg_ty(d) {
                    Type::Int => Reg::Int(conv::RET_I),
                    Type::Float => Reg::Float(conv::RET_F),
                });
                out.push(LirOp::Call {
                    callee: *callee,
                    reads,
                    ret,
                });
                if let Some(d) = dst {
                    match self.f.vreg_ty(*d) {
                        Type::Int => {
                            let t = self.write_i(*d);
                            out.push(LirOp::Int(IntOp::Mov {
                                dst: t,
                                src: conv::RET_I,
                            }));
                        }
                        Type::Float => {
                            let t = self.write_f(*d);
                            out.push(LirOp::Fp(FpOp::Mov {
                                dst: t,
                                src: conv::RET_F,
                            }));
                        }
                    }
                    self.finish_write(*d, out);
                }
            }
            Op::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.read_i(*cond, 0, out);
                out.push(LirOp::Br {
                    cond: c,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                });
            }
            Op::Jmp(b) => out.push(LirOp::Jump(*b)),
            Op::Ret(v) => {
                let mut reads = Vec::new();
                if let Some(v) = v {
                    match self.f.vreg_ty(*v) {
                        Type::Int => {
                            let s = self.read_i(*v, 0, out);
                            out.push(LirOp::Int(IntOp::Mov {
                                dst: conv::RET_I,
                                src: s,
                            }));
                            reads.push(Reg::Int(conv::RET_I));
                        }
                        Type::Float => {
                            let s = self.read_f(*v, 0, out);
                            out.push(LirOp::Fp(FpOp::Mov {
                                dst: conv::RET_F,
                                src: s,
                            }));
                            reads.push(Reg::Float(conv::RET_F));
                        }
                    }
                }
                self.emit_epilogue(out);
                out.push(LirOp::Ret { reads });
            }
        }
        Ok(())
    }

    /// Saves, stack bumps, and parameter moves.
    fn emit_prologue(&self, out: &mut Vec<LirOp>) {
        // 1. Save callee-saved registers at [entry SP + save offset].
        for (k, reg) in self.saves.iter().enumerate() {
            let (bank, off) = self.frame.save_off[k];
            out.push(LirOp::Mem {
                op: MemOp::Store {
                    src: *reg,
                    addr: MemAddr::Base {
                        base: sp_of(bank),
                        offset: off as i32,
                    },
                    bank,
                },
                meta: MemMeta {
                    alias: AliasKey::Frame(bank, off),
                    claim: MemClaim::Fixed(bank),
                },
            });
        }
        // 2. Bump both stack pointers.
        for bank in Bank::ALL {
            let words = self.frame.frame_words(bank);
            if words > 0 {
                out.push(LirOp::Addr(AddrOp::AddImm {
                    dst: sp_of(bank),
                    base: sp_of(bank),
                    imm: words as i32,
                }));
            }
        }
        // 3. Move incoming arguments into their homes.
        let mut scalar_vreg = 0u32;
        let mut ints = 0usize;
        let mut floats = 0usize;
        let mut arrays = 0usize;
        for p in &self.f.params {
            match p.kind {
                ParamKind::Value(Type::Int) => {
                    let v = VReg(scalar_vreg);
                    match self.asn.of(v) {
                        Loc::Reg(r) => out.push(LirOp::Int(IntOp::Mov {
                            dst: IReg(r),
                            src: conv::arg_i(ints),
                        })),
                        Loc::Spill(slot) => {
                            self.spill_store(slot, Reg::Int(conv::arg_i(ints)), out);
                        }
                    }
                    ints += 1;
                    scalar_vreg += 1;
                }
                ParamKind::Value(Type::Float) => {
                    let v = VReg(scalar_vreg);
                    match self.asn.of(v) {
                        Loc::Reg(r) => out.push(LirOp::Fp(FpOp::Mov {
                            dst: FReg(r),
                            src: conv::arg_f(floats),
                        })),
                        Loc::Spill(slot) => {
                            self.spill_store(slot, Reg::Float(conv::arg_f(floats)), out);
                        }
                    }
                    floats += 1;
                    scalar_vreg += 1;
                }
                ParamKind::Array(_) => {
                    out.push(LirOp::Addr(AddrOp::Mov {
                        dst: conv::param_home(arrays),
                        src: conv::arg_a(arrays),
                    }));
                    arrays += 1;
                }
            }
        }
    }

    /// Stack release and register restores (emitted before every `ret`).
    fn emit_epilogue(&self, out: &mut Vec<LirOp>) {
        // 1. Release the frames: SP returns to the frame base…
        for bank in Bank::ALL {
            let words = self.frame.frame_words(bank);
            if words > 0 {
                out.push(LirOp::Addr(AddrOp::AddImm {
                    dst: sp_of(bank),
                    base: sp_of(bank),
                    imm: -(words as i32),
                }));
            }
        }
        // 2. …so the save slots are at [SP + save offset] again.
        for (k, reg) in self.saves.iter().enumerate() {
            let (bank, off) = self.frame.save_off[k];
            out.push(LirOp::Mem {
                op: MemOp::Load {
                    dst: *reg,
                    addr: MemAddr::Base {
                        base: sp_of(bank),
                        offset: off as i32,
                    },
                    bank,
                },
                meta: MemMeta {
                    alias: AliasKey::Frame(bank, off),
                    claim: MemClaim::Fixed(bank),
                },
            });
        }
    }
}

/// The stack-pointer register of a bank.
#[must_use]
pub fn sp_of(bank: Bank) -> AReg {
    match bank {
        Bank::X => AReg::SP_X,
        Bank::Y => AReg::SP_Y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_bankalloc::{AllocOptions, DuplicationMode};
    use dsp_frontend::compile_str;

    fn lower_main(src: &str, opts: &AllocOptions) -> (Program, LirFunction) {
        let mut p = compile_str(src).unwrap();
        crate::opt::optimize(&mut p);
        let alloc = BankAllocation::compute(&p, &dsp_bankalloc::trial_conflicts(&p), opts, None);
        let layout = DataLayout::compute(&p, &alloc);
        let main = p.main.unwrap();
        let lir = lower_function(&p, main, &alloc, &layout).unwrap();
        (p, lir)
    }

    fn all_ops(lir: &LirFunction) -> impl Iterator<Item = &LirOp> {
        lir.blocks.iter().flatten()
    }

    #[test]
    fn store_to_duplicated_global_is_doubled() {
        let src = "float s[8]; float R[4];
                   void main() {
                     int n;
                     for (n = 0; n < 4; n++) R[n] += s[n] * s[n + 1];
                     s[0] = R[0];
                   }";
        let opts = AllocOptions {
            duplication: DuplicationMode::Partial,
            ..AllocOptions::default()
        };
        let (p, lir) = lower_main(src, &opts);
        let s = p.global_by_name("s").unwrap();
        let _ = s;
        // Count stores per bank touching class `s` (absolute addressing
        // of address 0..8 in both banks).
        let dup_stores: Vec<&LirOp> = all_ops(&lir)
            .filter(|o| {
                matches!(o, LirOp::Mem { op: MemOp::Store { .. }, meta }
                    if matches!(meta.alias, AliasKey::Class(v, _)
                        if matches!(v, dsp_bankalloc::Var::Global(g) if g == s)))
            })
            .collect();
        assert_eq!(dup_stores.len(), 2, "one store per bank: {dup_stores:?}");
        let banks: Vec<Bank> = dup_stores
            .iter()
            .filter_map(|o| match o {
                LirOp::Mem {
                    op: MemOp::Store { bank, .. },
                    ..
                } => Some(*bank),
                _ => None,
            })
            .collect();
        assert!(banks.contains(&Bank::X) && banks.contains(&Bank::Y));
    }

    #[test]
    fn duplicated_loads_claim_either_unit() {
        let src = "float s[8]; float R[4];
                   void main() {
                     int n;
                     for (n = 0; n < 4; n++) R[n] += s[n] * s[n + 1];
                   }";
        let opts = AllocOptions {
            duplication: DuplicationMode::Partial,
            ..AllocOptions::default()
        };
        let (_, lir) = lower_main(src, &opts);
        let either_loads = all_ops(&lir)
            .filter(|o| {
                matches!(o, LirOp::Mem { op: MemOp::Load { .. }, meta }
                    if meta.claim == MemClaim::Either)
            })
            .count();
        assert!(either_loads >= 2, "both s-loads should claim Either");
    }

    #[test]
    fn prologue_saves_alternate_banks() {
        let src = "int out; void main() { int a; int b; a = 1; b = 2; out = a * b; }";
        let (_, lir) = lower_main(src, &AllocOptions::default());
        let prologue = &lir.blocks[lir.entry.index()];
        let save_banks: Vec<Bank> = prologue
            .iter()
            .filter_map(|o| match o {
                LirOp::Mem {
                    op: MemOp::Store { bank, .. },
                    meta,
                } if matches!(meta.alias, AliasKey::Frame(..)) => Some(*bank),
                _ => None,
            })
            .collect();
        assert!(!save_banks.is_empty());
        for pair in save_banks.windows(2) {
            assert_ne!(pair[0], pair[1], "saves must alternate: {save_banks:?}");
        }
    }

    #[test]
    fn epilogue_restores_what_prologue_saves() {
        let src = "int out; void main() { int a; a = 3; out = a + a; }";
        let (_, lir) = lower_main(src, &AllocOptions::default());
        let saves: usize = lir.blocks[lir.entry.index()]
            .iter()
            .filter(|o| {
                matches!(o, LirOp::Mem { op: MemOp::Store { .. }, meta }
                    if matches!(meta.alias, AliasKey::Frame(..)))
            })
            .count();
        let restores: usize = all_ops(&lir)
            .filter(|o| {
                matches!(o, LirOp::Mem { op: MemOp::Load { .. }, meta }
                    if matches!(meta.alias, AliasKey::Frame(..)))
            })
            .count();
        assert_eq!(saves, restores);
    }

    #[test]
    fn local_arrays_use_stack_relative_addressing() {
        let src = "int out;
                   void main() {
                     int t[4]; int i;
                     for (i = 0; i < 4; i++) t[i] = i;
                     out = t[2];
                   }";
        let (_, lir) = lower_main(src, &AllocOptions::default());
        let stack_mem = all_ops(&lir)
            .filter(|o| {
                matches!(o, LirOp::Mem { op, .. }
                    if matches!(op, MemOp::Store { addr: MemAddr::BaseIndex { .. }, .. }
                              | MemOp::Load { addr: MemAddr::Base { .. }, .. }
                              | MemOp::Load { addr: MemAddr::BaseIndex { .. }, .. }))
            })
            .count();
        assert!(stack_mem >= 2, "local array accesses must be SP-relative");
    }

    #[test]
    fn global_scalar_uses_absolute_addressing() {
        let src = "int g; int out; void main() { g = 3; out = g; }";
        let (_, lir) = lower_main(src, &AllocOptions::default());
        let absolute = all_ops(&lir)
            .filter(|o| {
                matches!(o, LirOp::Mem { op, .. }
                    if matches!(op, MemOp::Store { addr: MemAddr::Absolute(_), .. }
                              | MemOp::Load { addr: MemAddr::Absolute(_), .. }))
            })
            .count();
        assert!(absolute >= 2);
    }

    #[test]
    fn call_sequence_loads_arg_regs() {
        let src = "float A[4]; float out;
                   float head(float v[], int n) { return v[n]; }
                   void main() { out = head(A, 2); }";
        let mut p = compile_str(src).unwrap();
        crate::opt::optimize(&mut p);
        let alloc = BankAllocation::compute(
            &p,
            &dsp_bankalloc::trial_conflicts(&p),
            &AllocOptions::default(),
            None,
        );
        let layout = DataLayout::compute(&p, &alloc);
        let lir = lower_function(&p, p.main.unwrap(), &alloc, &layout).unwrap();
        let call = all_ops(&lir)
            .find_map(|o| match o {
                LirOp::Call { reads, ret, .. } => Some((reads.clone(), *ret)),
                _ => None,
            })
            .expect("has a call");
        assert!(call.0.contains(&Reg::Addr(conv::arg_a(0))));
        assert!(call.0.contains(&Reg::Int(conv::arg_i(0))));
        assert_eq!(call.1, Some(Reg::Float(conv::RET_F)));
    }
}
