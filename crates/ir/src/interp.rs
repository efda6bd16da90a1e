//! Reference interpreter for the IR.
//!
//! The interpreter defines the *semantics* of a program independently of
//! the whole back-end: scheduling, bank allocation, register allocation
//! and simulation must all preserve the values it computes. It also
//! doubles as the profiler — its [`ExecStats`] report per-block
//! execution counts, which the `Pr` configuration of the paper uses as
//! interference-edge weights in place of loop nesting depth (§4.1).

use std::collections::HashMap;

use crate::func::{Function, ParamKind, Program};
use crate::ids::{BlockId, FuncId, GlobalId, LocalId, VReg};
use crate::ops::{Arg, FOperand, IOperand, MemBase, MemRef, Op};
use dsp_machine::{CmpKind, FpBinKind, IntBinKind, Word};

/// Execution statistics gathered by the interpreter.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Total IR operations executed.
    pub ops_executed: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Calls executed.
    pub calls: u64,
    /// Times each basic block was entered, per function.
    pub block_counts: HashMap<(FuncId, BlockId), u64>,
}

impl ExecStats {
    /// Execution count of one block.
    #[must_use]
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_counts.get(&(f, b)).copied().unwrap_or(0)
    }
}

/// Interpretation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program has no `main`.
    NoMain,
    /// An array access fell outside the object.
    OutOfBounds {
        /// Name of the object.
        name: String,
        /// The offending word index.
        index: i64,
        /// The object's size in words.
        size: u32,
    },
    /// The per-run operation budget was exhausted (runaway loop guard).
    FuelExhausted,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::NoMain => write!(f, "program has no main function"),
            InterpError::OutOfBounds { name, index, size } => {
                write!(f, "access to `{name}[{index}]` out of bounds (size {size})")
            }
            InterpError::FuelExhausted => write!(f, "operation budget exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Where an array parameter is bound at run time.
#[derive(Debug, Clone, Copy)]
enum ArrPlace {
    Global(GlobalId),
    FrameLocal(usize, LocalId),
}

struct Frame {
    func: FuncId,
    vregs: Vec<Word>,
    locals: Vec<Vec<Word>>,
    arr_params: Vec<Option<ArrPlace>>,
}

/// The reference interpreter.
///
/// # Example
///
/// ```
/// use dsp_ir::{Function, Interpreter, Program, Type};
/// use dsp_ir::ops::{IOperand, Op};
///
/// let mut program = Program::new();
/// let mut f = Function::new("main");
/// f.ret = Some(Type::Int);
/// let v = f.new_vreg(Type::Int);
/// let entry = f.entry;
/// f.block_mut(entry).push(Op::MovI { dst: v, src: IOperand::Imm(41) });
/// f.block_mut(entry).push(Op::IBin {
///     kind: dsp_machine::IntBinKind::Add,
///     dst: v, lhs: v, rhs: IOperand::Imm(1),
/// });
/// f.block_mut(entry).push(Op::Ret(Some(v)));
/// program.add_function(f);
///
/// let mut interp = Interpreter::new(&program);
/// let (ret, _stats) = interp.run()?;
/// assert_eq!(ret.unwrap().as_i32(), 42);
/// # Ok::<(), dsp_ir::InterpError>(())
/// ```
pub struct Interpreter<'p> {
    program: &'p Program,
    globals: Vec<Vec<Word>>,
    frames: Vec<Frame>,
    stats: ExecStats,
    fuel: u64,
}

/// Default operation budget per run.
const DEFAULT_FUEL: u64 = 500_000_000;

impl<'p> Interpreter<'p> {
    /// Create an interpreter with globals initialized from the program.
    #[must_use]
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        let globals = program
            .globals
            .iter()
            .map(|g| {
                let mut mem = vec![Word::ZERO; g.size as usize];
                for (i, w) in g.init.iter().enumerate().take(g.size as usize) {
                    mem[i] = *w;
                }
                mem
            })
            .collect();
        Interpreter {
            program,
            globals,
            frames: Vec::new(),
            stats: ExecStats::default(),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replace the default operation budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Run `main` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on missing `main`, out-of-bounds access,
    /// or fuel exhaustion.
    pub fn run(&mut self) -> Result<(Option<Word>, ExecStats), InterpError> {
        let main = self.program.main.ok_or(InterpError::NoMain)?;
        let ret = self.call(main, &[])?;
        Ok((ret, std::mem::take(&mut self.stats)))
    }

    /// Final contents of a global after (or during) execution.
    #[must_use]
    pub fn global_mem(&self, id: GlobalId) -> &[Word] {
        &self.globals[id.index()]
    }

    /// Final contents of a global located by name.
    #[must_use]
    pub fn global_mem_by_name(&self, name: &str) -> Option<&[Word]> {
        let id = self.program.global_by_name(name)?;
        Some(self.global_mem(id))
    }

    fn resolve_arr(&self, frame: usize, base: MemBase) -> Option<ArrPlace> {
        match base {
            MemBase::Global(g) => Some(ArrPlace::Global(g)),
            MemBase::Local(l) => Some(ArrPlace::FrameLocal(frame, l)),
            MemBase::Param(i) => self.frames[frame].arr_params[i],
        }
    }

    fn call(
        &mut self,
        func: FuncId,
        args: &[(Option<Word>, Option<ArrPlace>)],
    ) -> Result<Option<Word>, InterpError> {
        let f = self.program.func(func);
        let frame_idx = self.frames.len();
        let mut frame = Frame {
            func,
            vregs: vec![Word::ZERO; f.vregs.len()],
            locals: f
                .locals
                .iter()
                .map(|l| vec![Word::ZERO; l.size as usize])
                .collect(),
            arr_params: vec![None; f.params.len()],
        };
        // Bind parameters: scalar params occupy the first vregs in
        // declaration order (the front-end lowers them that way).
        let mut scalar_vreg = 0u32;
        for (i, (p, a)) in f.params.iter().zip(args).enumerate() {
            match p.kind {
                ParamKind::Value(_) => {
                    frame.vregs[scalar_vreg as usize] = a.0.expect("validated call passes scalar");
                    scalar_vreg += 1;
                }
                ParamKind::Array(_) => {
                    frame.arr_params[i] = a.1;
                }
            }
        }
        self.frames.push(frame);
        let result = self.exec_function(func, frame_idx);
        self.frames.pop();
        result
    }

    fn exec_function(&mut self, func: FuncId, frame: usize) -> Result<Option<Word>, InterpError> {
        let f = self.program.func(func);
        let mut block = f.entry;
        loop {
            *self.stats.block_counts.entry((func, block)).or_insert(0) += 1;
            match self.exec_block(f, func, frame, block)? {
                Flow::Goto(b) => block = b,
                Flow::Return(v) => return Ok(v),
            }
        }
    }

    fn exec_block(
        &mut self,
        f: &Function,
        func: FuncId,
        frame: usize,
        block: BlockId,
    ) -> Result<Flow, InterpError> {
        // Iterate by index so `self` stays borrowable for calls.
        let nops = f.block(block).ops.len();
        for i in 0..nops {
            if self.stats.ops_executed >= self.fuel {
                return Err(InterpError::FuelExhausted);
            }
            self.stats.ops_executed += 1;
            let op = f.block(block).ops[i].clone();
            match op {
                Op::MovI { dst, src } => {
                    let v = self.ioperand(frame, src);
                    self.set(frame, dst, Word::from_i32(v));
                }
                Op::MovF { dst, src } => {
                    let v = self.foperand(frame, src);
                    self.set(frame, dst, Word::from_f32(v));
                }
                Op::IBin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = self.get(frame, lhs).as_i32();
                    let b = self.ioperand(frame, rhs);
                    self.set(frame, dst, Word::from_i32(eval_ibin(kind, a, b)));
                }
                Op::ICmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = self.get(frame, lhs).as_i32();
                    let b = self.ioperand(frame, rhs);
                    self.set(frame, dst, Word::from_i32(i32::from(eval_icmp(kind, a, b))));
                }
                Op::INeg { dst, src } => {
                    let v = self.get(frame, src).as_i32();
                    self.set(frame, dst, Word::from_i32(v.wrapping_neg()));
                }
                Op::INot { dst, src } => {
                    let v = self.get(frame, src).as_i32();
                    self.set(frame, dst, Word::from_i32(!v));
                }
                Op::FBin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = self.get(frame, lhs).as_f32();
                    let b = self.get(frame, rhs).as_f32();
                    self.set(frame, dst, Word::from_f32(eval_fbin(kind, a, b)));
                }
                Op::FCmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = self.get(frame, lhs).as_f32();
                    let b = self.get(frame, rhs).as_f32();
                    self.set(frame, dst, Word::from_i32(i32::from(eval_fcmp(kind, a, b))));
                }
                Op::FNeg { dst, src } => {
                    let v = self.get(frame, src).as_f32();
                    self.set(frame, dst, Word::from_f32(-v));
                }
                Op::FMac { acc, a, b } => {
                    let v = eval_fmac(
                        self.get(frame, acc).as_f32(),
                        self.get(frame, a).as_f32(),
                        self.get(frame, b).as_f32(),
                    );
                    self.set(frame, acc, Word::from_f32(v));
                }
                Op::ItoF { dst, src } => {
                    let v = self.get(frame, src).as_i32();
                    self.set(frame, dst, Word::from_f32(v as f32));
                }
                Op::FtoI { dst, src } => {
                    let v = self.get(frame, src).as_f32();
                    self.set(frame, dst, Word::from_i32(v as i32));
                }
                Op::Load { dst, addr } => {
                    self.stats.loads += 1;
                    let w = self.load(frame, &addr)?;
                    self.set(frame, dst, w);
                }
                Op::Store { src, addr } => {
                    self.stats.stores += 1;
                    let w = self.get(frame, src);
                    self.store(frame, &addr, w)?;
                }
                Op::Call { dst, callee, args } => {
                    self.stats.calls += 1;
                    let lowered: Vec<(Option<Word>, Option<ArrPlace>)> = args
                        .iter()
                        .map(|a| match a {
                            Arg::Value(v) => (Some(self.get(frame, *v)), None),
                            Arg::Array(b) => (None, self.resolve_arr(frame, *b)),
                        })
                        .collect();
                    let ret = self.call(callee, &lowered)?;
                    if let (Some(d), Some(r)) = (dst, ret) {
                        self.set(frame, d, r);
                    }
                }
                Op::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let taken = self.get(frame, cond).is_truthy();
                    return Ok(Flow::Goto(if taken { then_bb } else { else_bb }));
                }
                Op::Jmp(b) => return Ok(Flow::Goto(b)),
                Op::Ret(v) => {
                    let w = v.map(|v| self.get(frame, v));
                    return Ok(Flow::Return(w));
                }
            }
        }
        unreachable!("validated blocks end in a terminator; fn {func} block {block}")
    }

    fn get(&self, frame: usize, v: VReg) -> Word {
        self.frames[frame].vregs[v.index()]
    }

    fn set(&mut self, frame: usize, v: VReg, w: Word) {
        self.frames[frame].vregs[v.index()] = w;
    }

    fn ioperand(&self, frame: usize, o: IOperand) -> i32 {
        match o {
            IOperand::Reg(r) => self.get(frame, r).as_i32(),
            IOperand::Imm(v) => v,
        }
    }

    fn foperand(&self, frame: usize, o: FOperand) -> f32 {
        match o {
            FOperand::Reg(r) => self.get(frame, r).as_f32(),
            FOperand::Imm(v) => v,
        }
    }

    fn effective(&self, frame: usize, r: &MemRef) -> (ArrPlace, i64) {
        let place = self
            .resolve_arr(frame, r.base)
            .expect("array parameter bound at call");
        let idx = r
            .index
            .map_or(0, |v| i64::from(self.get(frame, v).as_i32()));
        (place, idx + i64::from(r.offset))
    }

    fn place_info(&self, place: ArrPlace) -> (String, u32) {
        match place {
            ArrPlace::Global(g) => {
                let g = &self.program.globals[g.index()];
                (g.name.clone(), g.size)
            }
            ArrPlace::FrameLocal(fr, l) => {
                let f = self.program.func(self.frames[fr].func);
                let l = &f.locals[l.index()];
                (l.name.clone(), l.size)
            }
        }
    }

    fn load(&mut self, frame: usize, r: &MemRef) -> Result<Word, InterpError> {
        let (place, idx) = self.effective(frame, r);
        let (name, size) = self.place_info(place);
        if idx < 0 || idx >= i64::from(size) {
            return Err(InterpError::OutOfBounds {
                name,
                index: idx,
                size,
            });
        }
        Ok(match place {
            ArrPlace::Global(g) => self.globals[g.index()][idx as usize],
            ArrPlace::FrameLocal(fr, l) => self.frames[fr].locals[l.index()][idx as usize],
        })
    }

    fn store(&mut self, frame: usize, r: &MemRef, w: Word) -> Result<(), InterpError> {
        let (place, idx) = self.effective(frame, r);
        let (name, size) = self.place_info(place);
        if idx < 0 || idx >= i64::from(size) {
            return Err(InterpError::OutOfBounds {
                name,
                index: idx,
                size,
            });
        }
        match place {
            ArrPlace::Global(g) => self.globals[g.index()][idx as usize] = w,
            ArrPlace::FrameLocal(fr, l) => self.frames[fr].locals[l.index()][idx as usize] = w,
        }
        Ok(())
    }
}

enum Flow {
    Goto(BlockId),
    Return(Option<Word>),
}

/// Evaluate an integer binary operation with the machine's semantics:
/// wrapping arithmetic, shift counts masked to 5 bits, and division or
/// remainder by zero yielding 0.
#[must_use]
#[inline]
pub fn eval_ibin(kind: IntBinKind, a: i32, b: i32) -> i32 {
    match kind {
        IntBinKind::Add => a.wrapping_add(b),
        IntBinKind::Sub => a.wrapping_sub(b),
        IntBinKind::Mul => a.wrapping_mul(b),
        IntBinKind::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IntBinKind::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        IntBinKind::And => a & b,
        IntBinKind::Or => a | b,
        IntBinKind::Xor => a ^ b,
        IntBinKind::Shl => a.wrapping_shl(b as u32 & 31),
        IntBinKind::Shr => a.wrapping_shr(b as u32 & 31),
    }
}

/// Evaluate an integer comparison.
#[must_use]
#[inline]
pub fn eval_icmp(kind: CmpKind, a: i32, b: i32) -> bool {
    match kind {
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
    }
}

/// The bit pattern of the one NaN that floating-point arithmetic
/// returns: the positive quiet NaN.
pub const CANONICAL_NAN: u32 = 0x7FC0_0000;

/// Evaluate a floating-point binary operation (IEEE-754 single).
///
/// Every NaN result is the canonical quiet NaN ([`CANONICAL_NAN`]).
/// IEEE-754 leaves open which NaN an operation on two NaNs returns, and
/// the host returns one that depends on operand order, which the
/// compiler is free to swap for commutative operations.
#[must_use]
#[inline]
pub fn eval_fbin(kind: FpBinKind, a: f32, b: f32) -> f32 {
    let v = match kind {
        FpBinKind::Add => a + b,
        FpBinKind::Sub => a - b,
        FpBinKind::Mul => a * b,
        FpBinKind::Div => a / b,
    };
    if v.is_nan() {
        f32::from_bits(CANONICAL_NAN)
    } else {
        v
    }
}

/// Evaluate a multiply-accumulate `acc + a * b`. Product and sum are
/// rounded separately, exactly as the unfused multiply and add would be.
#[must_use]
#[inline]
pub fn eval_fmac(acc: f32, a: f32, b: f32) -> f32 {
    eval_fbin(FpBinKind::Add, acc, eval_fbin(FpBinKind::Mul, a, b))
}

/// Evaluate a floating-point comparison (ordered; NaN compares false
/// except under `Ne`).
#[must_use]
#[inline]
pub fn eval_fcmp(kind: CmpKind, a: f32, b: f32) -> bool {
    match kind {
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Global, Param};
    use crate::Type;

    /// Build: global A[4] initialized, main sums it into global s.
    fn sum_program() -> Program {
        let mut p = Program::new();
        let a = p.add_global(Global {
            name: "A".into(),
            ty: Type::Int,
            size: 4,
            init: (1..=4).map(Word::from_i32).collect(),
        });
        let s = p.add_global(Global {
            name: "s".into(),
            ty: Type::Int,
            size: 1,
            init: vec![],
        });
        let mut f = Function::new("main");
        let i = f.new_vreg(Type::Int);
        let n = f.new_vreg(Type::Int);
        let acc = f.new_vreg(Type::Int);
        let elt = f.new_vreg(Type::Int);
        let cond = f.new_vreg(Type::Int);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        let entry = f.entry;
        f.block_mut(entry).push(Op::MovI {
            dst: i,
            src: IOperand::Imm(0),
        });
        f.block_mut(entry).push(Op::MovI {
            dst: n,
            src: IOperand::Imm(4),
        });
        f.block_mut(entry).push(Op::MovI {
            dst: acc,
            src: IOperand::Imm(0),
        });
        f.block_mut(entry).push(Op::Jmp(header));
        f.block_mut(header).push(Op::ICmp {
            kind: CmpKind::Lt,
            dst: cond,
            lhs: i,
            rhs: IOperand::Reg(n),
        });
        f.block_mut(header).push(Op::Br {
            cond,
            then_bb: body,
            else_bb: exit,
        });
        f.block_mut(body).push(Op::Load {
            dst: elt,
            addr: MemRef::indexed(MemBase::Global(a), i, 0),
        });
        f.block_mut(body).push(Op::IBin {
            kind: IntBinKind::Add,
            dst: acc,
            lhs: acc,
            rhs: IOperand::Reg(elt),
        });
        f.block_mut(body).push(Op::IBin {
            kind: IntBinKind::Add,
            dst: i,
            lhs: i,
            rhs: IOperand::Imm(1),
        });
        f.block_mut(body).push(Op::Jmp(header));
        f.block_mut(exit).push(Op::Store {
            src: acc,
            addr: MemRef::direct(MemBase::Global(s), 0),
        });
        f.block_mut(exit).push(Op::Ret(None));
        p.add_function(f);
        p
    }

    #[test]
    fn sums_array() {
        let p = sum_program();
        p.validate().expect("valid program");
        let mut interp = Interpreter::new(&p);
        let (_ret, stats) = interp.run().expect("runs");
        assert_eq!(interp.global_mem_by_name("s").unwrap()[0].as_i32(), 10);
        assert_eq!(stats.loads, 4);
        assert_eq!(stats.stores, 1);
        // header entered 5 times (4 iterations + exit check)
        assert_eq!(stats.block_count(FuncId(0), BlockId(1)), 5);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut p = sum_program();
        // Make the loop run to 5, off the end of A[4].
        if let Op::MovI { src, .. } = &mut p.funcs[0].blocks[0].ops[1] {
            *src = IOperand::Imm(5);
        }
        let mut interp = Interpreter::new(&p);
        match interp.run() {
            Err(InterpError::OutOfBounds { name, index, size }) => {
                assert_eq!(name, "A");
                assert_eq!(index, 4);
                assert_eq!(size, 4);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn fuel_guard_stops_infinite_loop() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let entry = f.entry;
        f.block_mut(entry).push(Op::Jmp(BlockId(0)));
        p.add_function(f);
        let mut interp = Interpreter::new(&p);
        interp.set_fuel(1000);
        assert_eq!(interp.run().unwrap_err(), InterpError::FuelExhausted);
    }

    #[test]
    fn array_params_bind_through_calls() {
        // fn first(arr A) -> int { return A[0]; }
        // main: calls first(G) where G[0] = 7.
        let mut p = Program::new();
        let g = p.add_global(Global {
            name: "G".into(),
            ty: Type::Int,
            size: 2,
            init: vec![Word::from_i32(7)],
        });
        let mut first = Function::new("first");
        first.ret = Some(Type::Int);
        first.params.push(Param {
            name: "A".into(),
            kind: ParamKind::Array(Type::Int),
        });
        let v = first.new_vreg(Type::Int);
        let entry = first.entry;
        first.block_mut(entry).push(Op::Load {
            dst: v,
            addr: MemRef::direct(MemBase::Param(0), 0),
        });
        first.block_mut(entry).push(Op::Ret(Some(v)));
        let first_id = p.add_function(first);

        let mut main = Function::new("main");
        main.ret = Some(Type::Int);
        let r = main.new_vreg(Type::Int);
        let entry = main.entry;
        main.block_mut(entry).push(Op::Call {
            dst: Some(r),
            callee: first_id,
            args: vec![Arg::Array(MemBase::Global(g))],
        });
        main.block_mut(entry).push(Op::Ret(Some(r)));
        p.add_function(main);

        p.validate().expect("valid");
        let mut interp = Interpreter::new(&p);
        let (ret, stats) = interp.run().expect("runs");
        assert_eq!(ret.unwrap().as_i32(), 7);
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn machine_semantics_div_by_zero_and_shifts() {
        assert_eq!(eval_ibin(IntBinKind::Div, 5, 0), 0);
        assert_eq!(eval_ibin(IntBinKind::Rem, 5, 0), 0);
        assert_eq!(eval_ibin(IntBinKind::Div, i32::MIN, -1), i32::MIN); // wrapping
        assert_eq!(eval_ibin(IntBinKind::Shl, 1, 33), 2); // masked count
        assert_eq!(eval_ibin(IntBinKind::Shr, -8, 1), -4); // arithmetic
    }

    #[test]
    fn nan_results_are_canonical_whatever_the_operand_order() {
        let neg = f32::from_bits(0xFFC0_0000);
        let pos = f32::from_bits(0x7FC0_0001);
        let ab = eval_fbin(FpBinKind::Add, neg, pos).to_bits();
        let ba = eval_fbin(FpBinKind::Add, pos, neg).to_bits();
        assert_eq!(ab, ba);
        assert_eq!(ab, CANONICAL_NAN);
        assert_eq!(eval_fmac(neg, pos, 1.0).to_bits(), CANONICAL_NAN);
        assert_eq!(eval_fmac(1.0, neg, pos).to_bits(), CANONICAL_NAN);
        assert_eq!(eval_fbin(FpBinKind::Div, 0.0, 0.0).to_bits(), CANONICAL_NAN);
    }

    #[test]
    fn fcmp_nan_behaviour() {
        assert!(!eval_fcmp(CmpKind::Eq, f32::NAN, f32::NAN));
        assert!(eval_fcmp(CmpKind::Ne, f32::NAN, 0.0));
        assert!(!eval_fcmp(CmpKind::Lt, f32::NAN, 0.0));
    }
}
