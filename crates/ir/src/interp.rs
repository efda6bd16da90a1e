//! Reference interpreter for the IR.
//!
//! The interpreter defines the *semantics* of a program independently of
//! the whole back-end: scheduling, bank allocation, register allocation
//! and simulation must all preserve the values it computes. It also
//! doubles as the profiler — its [`ExecStats`] report per-block
//! execution counts, which the `Pr` configuration of the paper uses as
//! interference-edge weights in place of loop nesting depth (§4.1).
//!
//! # Decoded code table
//!
//! [`Interpreter::new`] decodes the program once. Every function's ops
//! go into one table of small `Copy` micro-ops, block after block, under
//! one global block numbering (each function's blocks start at its block
//! base). Branch and jump targets become global block numbers, register
//! and immediate operands become separate micro-ops, a memory operand
//! becomes `(place, index register or none, offset)`, and a call's
//! arguments go into a side table. [`Interpreter::run`] is then one loop
//! over that table.
//!
//! # Register and local stacks
//!
//! A call frame is a set of base offsets, not an allocation. Its virtual
//! registers are a region of one register stack, and its local arrays a
//! region of one memory vector that holds the globals first; the offset
//! of each local within its region is fixed at decode time. A call
//! zeroes the callee's regions and a return truncates them. An array
//! parameter is bound, per frame, to the already-resolved location of
//! its argument. Block entries are counted in one flat vector indexed by
//! global block number.
//!
//! # Limits
//!
//! Frames live on an explicit stack, so the interpreter never recurses on
//! the host stack. Calls may nest at most [`CALL_STACK_DEPTH`] frames
//! deep, `main` included, the simulator's hardware limit; past it a run
//! ends in [`InterpError::CallStackOverflow`]. Every op spends one unit
//! of fuel (500 M by default, see [`Interpreter::set_fuel`]), checked
//! before the op runs. An out-of-bounds access names its array only when
//! the bounds check fails.

use std::ops::Range;

use crate::func::{Function, ParamKind, Program};
use crate::ids::{BlockId, FuncId, GlobalId, VReg};
use crate::ops::{Arg, FOperand, IOperand, MemBase, MemRef, Op};
use dsp_machine::{CmpKind, FpBinKind, IntBinKind, Word, CALL_STACK_DEPTH};

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
    /// First global block number of each function, then the total.
    block_base: Vec<u32>,
    /// Times each block was entered, by global block number.
    block_counts: Vec<u64>,
}

impl ExecStats {
    /// Execution count of one block.
    #[must_use]
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        let Some(&[lo, hi]) = self.block_base.get(f.index()..f.index() + 2) else {
            return 0;
        };
        if b.0 >= hi - lo {
            return 0;
        }
        self.block_counts[(lo + b.0) as usize]
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
    /// A call would nest more than [`CALL_STACK_DEPTH`] frames deep.
    CallStackOverflow,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::NoMain => write!(f, "program has no main function"),
            InterpError::OutOfBounds { name, index, size } => {
                write!(f, "access to `{name}[{index}]` out of bounds (size {size})")
            }
            InterpError::FuelExhausted => write!(f, "operation budget exhausted"),
            InterpError::CallStackOverflow => write!(
                f,
                "call-stack overflow: more than {CALL_STACK_DEPTH} nested calls"
            ),
        }
    }
}

impl std::error::Error for InterpError {}

/// An array's words in the interpreter's memory. `obj` numbers the
/// array for error messages: globals first, then each function's locals.
#[derive(Debug, Clone, Copy, Default)]
struct Bound {
    base: u32,
    size: u32,
    obj: u32,
}

/// Where a memory operand's array lives, as far as decoding can tell.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// A global, at its absolute location.
    Global(Bound),
    /// A local array, relative to the frame's local base.
    Local(Bound),
    /// An array parameter: a slot of the frame's bindings.
    Param(u32),
}

/// A decoded memory operand: `place[index + offset]`.
#[derive(Debug, Clone, Copy)]
struct Addr {
    place: Place,
    index: Option<u32>,
    offset: i32,
}

/// One decoded operation. Register operands are indices into the
/// current frame's register region; block targets are global block
/// numbers.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    Mov {
        dst: u32,
        src: u32,
    },
    Imm {
        dst: u32,
        val: Word,
    },
    IBin {
        kind: IntBinKind,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    IBinImm {
        kind: IntBinKind,
        dst: u32,
        lhs: u32,
        imm: i32,
    },
    ICmp {
        kind: CmpKind,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    ICmpImm {
        kind: CmpKind,
        dst: u32,
        lhs: u32,
        imm: i32,
    },
    INeg {
        dst: u32,
        src: u32,
    },
    INot {
        dst: u32,
        src: u32,
    },
    FBin {
        kind: FpBinKind,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    FCmp {
        kind: CmpKind,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    FNeg {
        dst: u32,
        src: u32,
    },
    FMac {
        acc: u32,
        a: u32,
        b: u32,
    },
    ItoF {
        dst: u32,
        src: u32,
    },
    FtoI {
        dst: u32,
        src: u32,
    },
    Load {
        dst: u32,
        addr: Addr,
    },
    Store {
        src: u32,
        addr: Addr,
    },
    /// A call, by index into the call-site table.
    Call(u32),
    Br {
        cond: u32,
        then_bb: u32,
        else_bb: u32,
    },
    Jmp(u32),
    Ret(Option<u32>),
    /// The end of a block that has no terminator (an unvalidated
    /// program); reaching it is a bug in the program's producer.
    Unterminated(u32),
}

/// One argument of a call site, with where it lands in the callee.
#[derive(Debug, Clone, Copy)]
enum CallArg {
    /// Copy a caller register into a callee register.
    Value { src: u32, dst: u32 },
    /// Bind an array to a callee binding slot.
    Array { place: Place, slot: u32 },
}

#[derive(Debug, Clone)]
struct CallSite {
    callee: u32,
    dst: Option<u32>,
    args: Range<usize>,
}

/// What a call needs to know about its callee.
#[derive(Debug, Clone, Copy)]
struct FuncInfo {
    entry: u32,
    regs: u32,
    local_words: u32,
    binds: u32,
}

/// The decoded program.
struct Code {
    ops: Vec<MicroOp>,
    /// First op of each global block.
    block_start: Vec<u32>,
    /// First global block number of each function, then the total.
    block_base: Vec<u32>,
    funcs: Vec<FuncInfo>,
    calls: Vec<CallSite>,
    args: Vec<CallArg>,
    /// Each global's location in memory.
    globals: Vec<Bound>,
    /// First object number of each function's locals.
    local_obj: Vec<u32>,
}

/// One active call: its bases in the register, memory and binding
/// stacks, and where its caller resumes.
#[derive(Debug, Clone, Copy)]
struct Frame {
    regs: usize,
    locals: u32,
    binds: usize,
    ret_pc: usize,
    ret_dst: Option<u32>,
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
    code: Code,
    /// The globals, then the local-array stack.
    mem: Vec<Word>,
    fuel: u64,
}

/// Default operation budget per run.
const DEFAULT_FUEL: u64 = 500_000_000;

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("program size fits in 32 bits")
}

impl<'p> Interpreter<'p> {
    /// Decode the program and create an interpreter with globals
    /// initialized from it.
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed in a way that
    /// [`Program::validate`] rejects: a register, block, local, global,
    /// parameter or callee out of range, or a call whose arguments do
    /// not match its callee's parameters.
    #[must_use]
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        let mut mem = Vec::new();
        let globals: Vec<Bound> = program
            .globals
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let base = to_u32(mem.len());
                let size = g.size as usize;
                mem.extend(g.init.iter().take(size));
                mem.resize(base as usize + size, Word::ZERO);
                Bound {
                    base,
                    size: g.size,
                    obj: to_u32(gi),
                }
            })
            .collect();
        let code = Code::decode(program, globals);
        Interpreter {
            program,
            code,
            mem,
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
    /// fuel exhaustion, or calls nested past [`CALL_STACK_DEPTH`].
    pub fn run(&mut self) -> Result<(Option<Word>, ExecStats), InterpError> {
        let program = self.program;
        let main = program.main.ok_or(InterpError::NoMain)?;
        let code = &self.code;
        let mem = &mut self.mem;
        let fuel = self.fuel;
        mem.truncate(
            code.globals
                .last()
                .map_or(0, |g| (g.base + g.size) as usize),
        );
        let mut stats = ExecStats {
            block_base: code.block_base.clone(),
            block_counts: vec![0; code.block_start.len()],
            ..ExecStats::default()
        };
        let mut regs: Vec<Word> = Vec::new();
        let mut binds: Vec<Bound> = Vec::new();
        let mut callers: Vec<Frame> = Vec::new();

        let info = code.funcs[main.index()];
        let mut frame = enter(info, &mut regs, mem, &mut binds, 0, None);
        stats.block_counts[info.entry as usize] += 1;
        let mut pc = code.block_start[info.entry as usize] as usize;

        // The current frame's register base, read by nearly every op.
        let mut rb = 0usize;
        macro_rules! reg {
            ($r:expr) => {
                regs[rb + $r as usize]
            };
        }
        loop {
            if stats.ops_executed >= fuel {
                return Err(InterpError::FuelExhausted);
            }
            stats.ops_executed += 1;
            let op = code.ops[pc];
            pc += 1;
            match op {
                MicroOp::Mov { dst, src } => reg!(dst) = reg!(src),
                MicroOp::Imm { dst, val } => reg!(dst) = val,
                MicroOp::IBin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = eval_ibin(kind, reg!(lhs).as_i32(), reg!(rhs).as_i32());
                    reg!(dst) = Word::from_i32(v);
                }
                MicroOp::IBinImm {
                    kind,
                    dst,
                    lhs,
                    imm,
                } => reg!(dst) = Word::from_i32(eval_ibin(kind, reg!(lhs).as_i32(), imm)),
                MicroOp::ICmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = eval_icmp(kind, reg!(lhs).as_i32(), reg!(rhs).as_i32());
                    reg!(dst) = Word::from_i32(i32::from(v));
                }
                MicroOp::ICmpImm {
                    kind,
                    dst,
                    lhs,
                    imm,
                } => {
                    let v = eval_icmp(kind, reg!(lhs).as_i32(), imm);
                    reg!(dst) = Word::from_i32(i32::from(v));
                }
                MicroOp::INeg { dst, src } => {
                    reg!(dst) = Word::from_i32(reg!(src).as_i32().wrapping_neg());
                }
                MicroOp::INot { dst, src } => reg!(dst) = Word::from_i32(!reg!(src).as_i32()),
                MicroOp::FBin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = eval_fbin(kind, reg!(lhs).as_f32(), reg!(rhs).as_f32());
                    reg!(dst) = Word::from_f32(v);
                }
                MicroOp::FCmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = eval_fcmp(kind, reg!(lhs).as_f32(), reg!(rhs).as_f32());
                    reg!(dst) = Word::from_i32(i32::from(v));
                }
                MicroOp::FNeg { dst, src } => reg!(dst) = Word::from_f32(-reg!(src).as_f32()),
                MicroOp::FMac { acc, a, b } => {
                    let v = eval_fmac(reg!(acc).as_f32(), reg!(a).as_f32(), reg!(b).as_f32());
                    reg!(acc) = Word::from_f32(v);
                }
                MicroOp::ItoF { dst, src } => reg!(dst) = Word::from_f32(reg!(src).as_i32() as f32),
                MicroOp::FtoI { dst, src } => reg!(dst) = Word::from_i32(reg!(src).as_f32() as i32),
                MicroOp::Load { dst, addr } => {
                    stats.loads += 1;
                    let at = locate(addr, &frame, &regs, &binds)
                        .map_err(|(b, index)| out_of_bounds(program, code, b, index))?;
                    reg!(dst) = mem[at];
                }
                MicroOp::Store { src, addr } => {
                    stats.stores += 1;
                    let at = locate(addr, &frame, &regs, &binds)
                        .map_err(|(b, index)| out_of_bounds(program, code, b, index))?;
                    mem[at] = reg!(src);
                }
                MicroOp::Call(site) => {
                    stats.calls += 1;
                    if callers.len() + 1 >= CALL_STACK_DEPTH {
                        return Err(InterpError::CallStackOverflow);
                    }
                    let site = &code.calls[site as usize];
                    let info = code.funcs[site.callee as usize];
                    let callee = enter(info, &mut regs, mem, &mut binds, pc, site.dst);
                    for arg in &code.args[site.args.clone()] {
                        match *arg {
                            CallArg::Value { src, dst } => {
                                regs[callee.regs + dst as usize] = reg!(src);
                            }
                            CallArg::Array { place, slot } => {
                                binds[callee.binds + slot as usize] =
                                    resolve(place, &frame, &binds);
                            }
                        }
                    }
                    callers.push(frame);
                    frame = callee;
                    rb = frame.regs;
                    stats.block_counts[info.entry as usize] += 1;
                    pc = code.block_start[info.entry as usize] as usize;
                }
                MicroOp::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let target = if reg!(cond).is_truthy() {
                        then_bb
                    } else {
                        else_bb
                    };
                    stats.block_counts[target as usize] += 1;
                    pc = code.block_start[target as usize] as usize;
                }
                MicroOp::Jmp(target) => {
                    stats.block_counts[target as usize] += 1;
                    pc = code.block_start[target as usize] as usize;
                }
                MicroOp::Ret(v) => {
                    let w = v.map(|r| reg!(r));
                    regs.truncate(frame.regs);
                    mem.truncate(frame.locals as usize);
                    binds.truncate(frame.binds);
                    let Some(caller) = callers.pop() else {
                        return Ok((w, stats));
                    };
                    if let (Some(d), Some(w)) = (frame.ret_dst, w) {
                        regs[caller.regs + d as usize] = w;
                    }
                    pc = frame.ret_pc;
                    frame = caller;
                    rb = frame.regs;
                }
                MicroOp::Unterminated(block) => {
                    unreachable!("validated blocks end in a terminator; global block {block}")
                }
            }
        }
    }

    /// Final contents of a global after (or during) execution.
    #[must_use]
    pub fn global_mem(&self, id: GlobalId) -> &[Word] {
        let g = self.code.globals[id.index()];
        &self.mem[g.base as usize..(g.base + g.size) as usize]
    }

    /// Final contents of a global located by name.
    #[must_use]
    pub fn global_mem_by_name(&self, name: &str) -> Option<&[Word]> {
        let id = self.program.global_by_name(name)?;
        Some(self.global_mem(id))
    }
}

/// Push zeroed regions for a call of `info` onto the register, memory
/// and binding stacks, and return the frame over them.
fn enter(
    info: FuncInfo,
    regs: &mut Vec<Word>,
    mem: &mut Vec<Word>,
    binds: &mut Vec<Bound>,
    ret_pc: usize,
    ret_dst: Option<u32>,
) -> Frame {
    let frame = Frame {
        regs: regs.len(),
        // Checked at the region's end, so every local's `Bound` fits.
        locals: to_u32(mem.len() + info.local_words as usize) - info.local_words,
        binds: binds.len(),
        ret_pc,
        ret_dst,
    };
    regs.resize(frame.regs + info.regs as usize, Word::ZERO);
    mem.resize(mem.len() + info.local_words as usize, Word::ZERO);
    binds.resize(frame.binds + info.binds as usize, Bound::default());
    frame
}

/// The error for an access at `index` outside `b`, naming the array.
fn out_of_bounds(program: &Program, code: &Code, b: Bound, index: i64) -> InterpError {
    let name = match program.globals.get(b.obj as usize) {
        Some(g) => &g.name,
        None => {
            let fi = code.local_obj.partition_point(|&o| o <= b.obj) - 1;
            let l = b.obj - code.local_obj[fi];
            &program.funcs[fi].locals[l as usize].name
        }
    };
    InterpError::OutOfBounds {
        name: name.clone(),
        index,
        size: b.size,
    }
}

/// The absolute location of `place` in `frame`.
fn resolve(place: Place, frame: &Frame, binds: &[Bound]) -> Bound {
    match place {
        Place::Global(b) => b,
        Place::Local(b) => Bound {
            base: b.base + frame.locals,
            ..b
        },
        Place::Param(slot) => binds[frame.binds + slot as usize],
    }
}

/// The memory index `addr` reaches in `frame`, or the array and word
/// index of an out-of-bounds access.
#[inline]
fn locate(
    addr: Addr,
    frame: &Frame,
    regs: &[Word],
    binds: &[Bound],
) -> Result<usize, (Bound, i64)> {
    let b = resolve(addr.place, frame, binds);
    let index = addr
        .index
        .map_or(0, |r| i64::from(regs[frame.regs + r as usize].as_i32()))
        + i64::from(addr.offset);
    if index < 0 || index >= i64::from(b.size) {
        return Err((b, index));
    }
    Ok(b.base as usize + index as usize)
}

impl Code {
    fn decode(program: &Program, globals: Vec<Bound>) -> Code {
        let mut block_base = Vec::with_capacity(program.funcs.len() + 1);
        let mut local_obj = Vec::with_capacity(program.funcs.len());
        let (mut blocks, mut objs) = (0, to_u32(program.globals.len()));
        for f in &program.funcs {
            block_base.push(blocks);
            local_obj.push(objs);
            blocks += to_u32(f.blocks.len());
            objs += to_u32(f.locals.len());
        }
        block_base.push(blocks);
        let mut code = Code {
            ops: Vec::new(),
            block_start: Vec::with_capacity(blocks as usize),
            block_base: Vec::new(),
            funcs: Vec::with_capacity(program.funcs.len()),
            calls: Vec::new(),
            args: Vec::new(),
            globals: Vec::new(),
            local_obj: Vec::new(),
        };
        for (fi, f) in program.funcs.iter().enumerate() {
            let decoder = FuncDecoder::new(program, &globals, f, block_base[fi], local_obj[fi]);
            decoder.decode(&mut code);
        }
        code.block_base = block_base;
        code.local_obj = local_obj;
        code.globals = globals;
        code
    }
}

/// Decodes one function into the code table.
struct FuncDecoder<'a> {
    program: &'a Program,
    globals: &'a [Bound],
    f: &'a Function,
    block_base: u32,
    /// Each local array's place in the frame's local region.
    locals: Vec<Bound>,
    local_words: u32,
    /// Each parameter's binding slot, for array parameters.
    param_slot: Vec<Option<u32>>,
    binds: u32,
}

impl<'a> FuncDecoder<'a> {
    fn new(
        program: &'a Program,
        globals: &'a [Bound],
        f: &'a Function,
        block_base: u32,
        local_obj: u32,
    ) -> FuncDecoder<'a> {
        let mut local_words = 0u32;
        let locals = f
            .locals
            .iter()
            .zip(local_obj..)
            .map(|(l, obj)| {
                let base = local_words;
                local_words = base
                    .checked_add(l.size)
                    .expect("local arrays fit in 32 bits");
                Bound {
                    base,
                    size: l.size,
                    obj,
                }
            })
            .collect();
        let mut binds = 0;
        let param_slot = f
            .params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Array(_) => {
                    binds += 1;
                    Some(binds - 1)
                }
                ParamKind::Value(_) => None,
            })
            .collect();
        FuncDecoder {
            program,
            globals,
            f,
            block_base,
            locals,
            local_words,
            param_slot,
            binds,
        }
    }

    fn decode(&self, code: &mut Code) {
        code.funcs.push(FuncInfo {
            entry: self.block(self.f.entry),
            regs: to_u32(self.f.vregs.len()),
            local_words: self.local_words,
            binds: self.binds,
        });
        for (bi, block) in self.f.blocks.iter().enumerate() {
            code.block_start.push(to_u32(code.ops.len()));
            for op in &block.ops {
                let op = self.op(op, code);
                code.ops.push(op);
            }
            if !block.is_terminated() {
                code.ops
                    .push(MicroOp::Unterminated(self.block_base + to_u32(bi)));
            }
        }
    }

    fn reg(&self, v: VReg) -> u32 {
        assert!(
            v.index() < self.f.vregs.len(),
            "fn `{}`: {v} out of range",
            self.f.name
        );
        v.0
    }

    fn block(&self, b: BlockId) -> u32 {
        assert!(
            b.index() < self.f.blocks.len(),
            "fn `{}`: {b} out of range",
            self.f.name
        );
        self.block_base + b.0
    }

    fn place(&self, base: MemBase) -> Place {
        match base {
            MemBase::Global(g) => Place::Global(self.globals[g.index()]),
            MemBase::Local(l) => Place::Local(self.locals[l.index()]),
            MemBase::Param(i) => Place::Param(
                self.param_slot[i]
                    .unwrap_or_else(|| panic!("fn `{}`: param {i} is not an array", self.f.name)),
            ),
        }
    }

    fn addr(&self, r: &MemRef) -> Addr {
        Addr {
            place: self.place(r.base),
            index: r.index.map(|v| self.reg(v)),
            offset: r.offset,
        }
    }

    fn op(&self, op: &Op, code: &mut Code) -> MicroOp {
        let r = |v| self.reg(v);
        match *op {
            Op::MovI {
                dst,
                src: IOperand::Reg(src),
            }
            | Op::MovF {
                dst,
                src: FOperand::Reg(src),
            } => MicroOp::Mov {
                dst: r(dst),
                src: r(src),
            },
            Op::MovI {
                dst,
                src: IOperand::Imm(v),
            } => MicroOp::Imm {
                dst: r(dst),
                val: Word::from_i32(v),
            },
            Op::MovF {
                dst,
                src: FOperand::Imm(v),
            } => MicroOp::Imm {
                dst: r(dst),
                val: Word::from_f32(v),
            },
            Op::IBin {
                kind,
                dst,
                lhs,
                rhs,
            } => match rhs {
                IOperand::Reg(rhs) => MicroOp::IBin {
                    kind,
                    dst: r(dst),
                    lhs: r(lhs),
                    rhs: r(rhs),
                },
                IOperand::Imm(imm) => MicroOp::IBinImm {
                    kind,
                    dst: r(dst),
                    lhs: r(lhs),
                    imm,
                },
            },
            Op::ICmp {
                kind,
                dst,
                lhs,
                rhs,
            } => match rhs {
                IOperand::Reg(rhs) => MicroOp::ICmp {
                    kind,
                    dst: r(dst),
                    lhs: r(lhs),
                    rhs: r(rhs),
                },
                IOperand::Imm(imm) => MicroOp::ICmpImm {
                    kind,
                    dst: r(dst),
                    lhs: r(lhs),
                    imm,
                },
            },
            Op::INeg { dst, src } => MicroOp::INeg {
                dst: r(dst),
                src: r(src),
            },
            Op::INot { dst, src } => MicroOp::INot {
                dst: r(dst),
                src: r(src),
            },
            Op::FBin {
                kind,
                dst,
                lhs,
                rhs,
            } => MicroOp::FBin {
                kind,
                dst: r(dst),
                lhs: r(lhs),
                rhs: r(rhs),
            },
            Op::FCmp {
                kind,
                dst,
                lhs,
                rhs,
            } => MicroOp::FCmp {
                kind,
                dst: r(dst),
                lhs: r(lhs),
                rhs: r(rhs),
            },
            Op::FNeg { dst, src } => MicroOp::FNeg {
                dst: r(dst),
                src: r(src),
            },
            Op::FMac { acc, a, b } => MicroOp::FMac {
                acc: r(acc),
                a: r(a),
                b: r(b),
            },
            Op::ItoF { dst, src } => MicroOp::ItoF {
                dst: r(dst),
                src: r(src),
            },
            Op::FtoI { dst, src } => MicroOp::FtoI {
                dst: r(dst),
                src: r(src),
            },
            Op::Load { dst, ref addr } => MicroOp::Load {
                dst: r(dst),
                addr: self.addr(addr),
            },
            Op::Store { src, ref addr } => MicroOp::Store {
                src: r(src),
                addr: self.addr(addr),
            },
            Op::Call {
                dst,
                callee,
                ref args,
            } => {
                let f = self.program.func(callee);
                assert_eq!(
                    args.len(),
                    f.params.len(),
                    "fn `{}`: call to `{}` with the wrong number of arguments",
                    self.f.name,
                    f.name
                );
                let start = code.args.len();
                let (mut scalars, mut slots) = (0, 0);
                for (arg, p) in args.iter().zip(&f.params) {
                    code.args.push(match (*arg, p.kind) {
                        (Arg::Value(v), ParamKind::Value(_)) => {
                            scalars += 1;
                            assert!(
                                scalars <= f.vregs.len(),
                                "fn `{}`: too few registers",
                                f.name
                            );
                            CallArg::Value {
                                src: r(v),
                                dst: to_u32(scalars - 1),
                            }
                        }
                        (Arg::Array(base), ParamKind::Array(_)) => {
                            slots += 1;
                            CallArg::Array {
                                place: self.place(base),
                                slot: slots - 1,
                            }
                        }
                        _ => panic!(
                            "fn `{}`: argument kind mismatch in call to `{}`",
                            self.f.name, f.name
                        ),
                    });
                }
                code.calls.push(CallSite {
                    callee: callee.0,
                    dst: dst.map(r),
                    args: start..code.args.len(),
                });
                MicroOp::Call(to_u32(code.calls.len() - 1))
            }
            Op::Br {
                cond,
                then_bb,
                else_bb,
            } => MicroOp::Br {
                cond: r(cond),
                then_bb: self.block(then_bb),
                else_bb: self.block(else_bb),
            },
            Op::Jmp(b) => MicroOp::Jmp(self.block(b)),
            Op::Ret(v) => MicroOp::Ret(v.map(r)),
        }
    }
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

    fn array_param(name: &str) -> Param {
        Param {
            name: name.into(),
            kind: ParamKind::Array(Type::Int),
        }
    }

    fn int_param(name: &str) -> Param {
        Param {
            name: name.into(),
            kind: ParamKind::Value(Type::Int),
        }
    }

    /// `leaf(P[], i)` returns `P[i + 1]`; `mid(Q[], i)` forwards both to
    /// `leaf`; main returns `mid(G, g_index) + mid(L, l_index)` for a
    /// global `G = {10, 20, 30}` and a local `L[2]` with `L[1] = 5`.
    fn forwarding_program(g_index: i32, l_index: i32) -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global {
            name: "G".into(),
            ty: Type::Int,
            size: 3,
            init: [10, 20, 30].map(Word::from_i32).to_vec(),
        });

        let mut leaf = Function::new("leaf");
        leaf.ret = Some(Type::Int);
        leaf.params = vec![array_param("P"), int_param("i")];
        let i = leaf.new_vreg(Type::Int);
        let v = leaf.new_vreg(Type::Int);
        let entry = leaf.entry;
        leaf.block_mut(entry).push(Op::Load {
            dst: v,
            addr: MemRef::indexed(MemBase::Param(0), i, 1),
        });
        leaf.block_mut(entry).push(Op::Ret(Some(v)));
        let leaf = p.add_function(leaf);

        let mut mid = Function::new("mid");
        mid.ret = Some(Type::Int);
        mid.params = vec![array_param("Q"), int_param("i")];
        let i = mid.new_vreg(Type::Int);
        let r = mid.new_vreg(Type::Int);
        let entry = mid.entry;
        mid.block_mut(entry).push(Op::Call {
            dst: Some(r),
            callee: leaf,
            args: vec![Arg::Array(MemBase::Param(0)), Arg::Value(i)],
        });
        mid.block_mut(entry).push(Op::Ret(Some(r)));
        let mid = p.add_function(mid);

        let mut main = Function::new("main");
        main.ret = Some(Type::Int);
        let l = main.new_local("L", Type::Int, 2);
        let [five, gi, li, a, b] = [(); 5].map(|()| main.new_vreg(Type::Int));
        let entry = main.entry;
        let ops = [
            Op::MovI {
                dst: five,
                src: IOperand::Imm(5),
            },
            Op::Store {
                src: five,
                addr: MemRef::direct(MemBase::Local(l), 1),
            },
            Op::MovI {
                dst: gi,
                src: IOperand::Imm(g_index),
            },
            Op::MovI {
                dst: li,
                src: IOperand::Imm(l_index),
            },
            Op::Call {
                dst: Some(a),
                callee: mid,
                args: vec![Arg::Array(MemBase::Global(g)), Arg::Value(gi)],
            },
            Op::Call {
                dst: Some(b),
                callee: mid,
                args: vec![Arg::Array(MemBase::Local(l)), Arg::Value(li)],
            },
            Op::IBin {
                kind: IntBinKind::Add,
                dst: a,
                lhs: a,
                rhs: IOperand::Reg(b),
            },
            Op::Ret(Some(a)),
        ];
        for op in ops {
            main.block_mut(entry).push(op);
        }
        p.add_function(main);
        p.validate().expect("valid program");
        p
    }

    #[test]
    fn array_params_forward_through_two_calls_and_bind_locals() {
        let p = forwarding_program(1, 0);
        let mut interp = Interpreter::new(&p);
        let (ret, stats) = interp.run().expect("runs");
        assert_eq!(ret.unwrap().as_i32(), 30 + 5);
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 1);
        // One entry per call of each callee.
        assert_eq!(stats.block_count(FuncId(0), BlockId(0)), 2);
        assert_eq!(stats.block_count(FuncId(1), BlockId(0)), 2);
        assert_eq!(stats.block_count(FuncId(2), BlockId(0)), 1);
    }

    #[test]
    fn out_of_bounds_through_a_parameter_names_the_bound_argument() {
        let p = forwarding_program(2, 0);
        assert_eq!(
            Interpreter::new(&p).run().unwrap_err(),
            InterpError::OutOfBounds {
                name: "G".into(),
                index: 3,
                size: 3,
            }
        );
        let p = forwarding_program(1, 1);
        assert_eq!(
            Interpreter::new(&p).run().unwrap_err(),
            InterpError::OutOfBounds {
                name: "L".into(),
                index: 2,
                size: 2,
            }
        );
    }

    #[test]
    fn negative_index_is_reported_exactly() {
        let p = forwarding_program(1, -4);
        assert_eq!(
            Interpreter::new(&p).run().unwrap_err(),
            InterpError::OutOfBounds {
                name: "L".into(),
                index: -3,
                size: 2,
            }
        );
        let mut p = sum_program();
        // Start the loop at -2 instead of 0.
        if let Op::MovI { src, .. } = &mut p.funcs[0].blocks[0].ops[0] {
            *src = IOperand::Imm(-2);
        }
        assert_eq!(
            Interpreter::new(&p).run().unwrap_err(),
            InterpError::OutOfBounds {
                name: "A".into(),
                index: -2,
                size: 4,
            }
        );
    }

    #[test]
    fn fuel_boundary_is_exact() {
        for p in [sum_program(), forwarding_program(1, 0)] {
            let (_, stats) = Interpreter::new(&p).run().expect("runs");
            let n = stats.ops_executed;
            let mut interp = Interpreter::new(&p);
            interp.set_fuel(n);
            assert_eq!(interp.run().expect("exactly enough fuel").1.ops_executed, n);
            let mut interp = Interpreter::new(&p);
            interp.set_fuel(n - 1);
            assert_eq!(interp.run().unwrap_err(), InterpError::FuelExhausted);
        }
    }

    /// `rec(n)` reads its local `L[0]` on entry (it must be 0), stores
    /// `n` there, recurses on `n - 1`, then reads `L[0]` again (it must
    /// still be `n`). It returns the number of violations seen in its
    /// own frame and below. Main calls `rec(3)` twice, so the second
    /// call's frames land where the first call's frames wrote.
    fn recursive_locals_program() -> Program {
        let mut p = Program::new();
        let mut rec = Function::new("rec");
        rec.ret = Some(Type::Int);
        rec.params = vec![int_param("n")];
        let l = rec.new_local("L", Type::Int, 2);
        let [n, first, stale, positive, m, below, again, changed, sum] =
            [(); 9].map(|()| rec.new_vreg(Type::Int));
        let recurse = rec.new_block();
        let bottom = rec.new_block();
        let slot = MemRef::direct(MemBase::Local(l), 0);
        let entry = rec.entry;
        let ops = [
            Op::Load {
                dst: first,
                addr: slot,
            },
            Op::ICmp {
                kind: CmpKind::Ne,
                dst: stale,
                lhs: first,
                rhs: IOperand::Imm(0),
            },
            Op::Store { src: n, addr: slot },
            Op::ICmp {
                kind: CmpKind::Gt,
                dst: positive,
                lhs: n,
                rhs: IOperand::Imm(0),
            },
            Op::Br {
                cond: positive,
                then_bb: recurse,
                else_bb: bottom,
            },
        ];
        for op in ops {
            rec.block_mut(entry).push(op);
        }
        let ops = [
            Op::IBin {
                kind: IntBinKind::Sub,
                dst: m,
                lhs: n,
                rhs: IOperand::Imm(1),
            },
            Op::Call {
                dst: Some(below),
                callee: FuncId(0),
                args: vec![Arg::Value(m)],
            },
            Op::Load {
                dst: again,
                addr: slot,
            },
            Op::ICmp {
                kind: CmpKind::Ne,
                dst: changed,
                lhs: again,
                rhs: IOperand::Reg(n),
            },
            Op::IBin {
                kind: IntBinKind::Add,
                dst: sum,
                lhs: below,
                rhs: IOperand::Reg(stale),
            },
            Op::IBin {
                kind: IntBinKind::Add,
                dst: sum,
                lhs: sum,
                rhs: IOperand::Reg(changed),
            },
            Op::Ret(Some(sum)),
        ];
        for op in ops {
            rec.block_mut(recurse).push(op);
        }
        rec.block_mut(bottom).push(Op::Ret(Some(stale)));
        let rec = p.add_function(rec);

        let mut main = Function::new("main");
        main.ret = Some(Type::Int);
        let [three, a, b] = [(); 3].map(|()| main.new_vreg(Type::Int));
        let entry = main.entry;
        let ops = [
            Op::MovI {
                dst: three,
                src: IOperand::Imm(3),
            },
            Op::Call {
                dst: Some(a),
                callee: rec,
                args: vec![Arg::Value(three)],
            },
            Op::Call {
                dst: Some(b),
                callee: rec,
                args: vec![Arg::Value(three)],
            },
            Op::IBin {
                kind: IntBinKind::Add,
                dst: a,
                lhs: a,
                rhs: IOperand::Reg(b),
            },
            Op::Ret(Some(a)),
        ];
        for op in ops {
            main.block_mut(entry).push(op);
        }
        p.add_function(main);
        p.validate().expect("valid program");
        p
    }

    #[test]
    fn recursive_local_arrays_start_zeroed_and_stay_per_frame() {
        let p = recursive_locals_program();
        let (ret, stats) = Interpreter::new(&p).run().expect("runs");
        assert_eq!(ret.unwrap().as_i32(), 0, "no stale or clobbered local");
        assert_eq!(stats.calls, 2 * 4);
        assert_eq!(stats.block_count(FuncId(0), BlockId(0)), 8);
        assert_eq!(stats.block_count(FuncId(0), BlockId(1)), 6);
        assert_eq!(stats.block_count(FuncId(0), BlockId(2)), 2);
    }

    #[test]
    fn a_discarded_call_result_still_runs_the_callee() {
        // fn seven() -> int { out = 7; return 7; }  main: seven(); (result dropped)
        let mut p = Program::new();
        let out = p.add_global(Global {
            name: "out".into(),
            ty: Type::Int,
            size: 1,
            init: vec![],
        });
        let mut seven = Function::new("seven");
        seven.ret = Some(Type::Int);
        let v = seven.new_vreg(Type::Int);
        let entry = seven.entry;
        seven.block_mut(entry).push(Op::MovI {
            dst: v,
            src: IOperand::Imm(7),
        });
        seven.block_mut(entry).push(Op::Store {
            src: v,
            addr: MemRef::direct(MemBase::Global(out), 0),
        });
        seven.block_mut(entry).push(Op::Ret(Some(v)));
        let seven = p.add_function(seven);
        let mut main = Function::new("main");
        let entry = main.entry;
        main.block_mut(entry).push(Op::Call {
            dst: None,
            callee: seven,
            args: vec![],
        });
        main.block_mut(entry).push(Op::Ret(None));
        p.add_function(main);
        p.validate().expect("valid program");
        let mut interp = Interpreter::new(&p);
        let (ret, stats) = interp.run().expect("runs");
        assert_eq!(ret, None);
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.ops_executed, 5);
        assert_eq!(interp.global_mem(out)[0].as_i32(), 7);
    }

    /// `down(n)` calls itself until `n` is 0; main calls `down(n)`, so
    /// the deepest point has `n + 2` frames.
    fn countdown_program(n: i32) -> Program {
        let mut p = Program::new();
        let mut down = Function::new("down");
        down.params = vec![int_param("n")];
        let [k, positive, m] = [(); 3].map(|()| down.new_vreg(Type::Int));
        let recurse = down.new_block();
        let bottom = down.new_block();
        let entry = down.entry;
        down.block_mut(entry).push(Op::ICmp {
            kind: CmpKind::Gt,
            dst: positive,
            lhs: k,
            rhs: IOperand::Imm(0),
        });
        down.block_mut(entry).push(Op::Br {
            cond: positive,
            then_bb: recurse,
            else_bb: bottom,
        });
        down.block_mut(recurse).push(Op::IBin {
            kind: IntBinKind::Sub,
            dst: m,
            lhs: k,
            rhs: IOperand::Imm(1),
        });
        down.block_mut(recurse).push(Op::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![Arg::Value(m)],
        });
        down.block_mut(recurse).push(Op::Ret(None));
        down.block_mut(bottom).push(Op::Ret(None));
        let down = p.add_function(down);
        let mut main = Function::new("main");
        let v = main.new_vreg(Type::Int);
        let entry = main.entry;
        main.block_mut(entry).push(Op::MovI {
            dst: v,
            src: IOperand::Imm(n),
        });
        main.block_mut(entry).push(Op::Call {
            dst: None,
            callee: down,
            args: vec![Arg::Value(v)],
        });
        main.block_mut(entry).push(Op::Ret(None));
        p.add_function(main);
        p.validate().expect("valid program");
        p
    }

    #[test]
    fn calls_nest_up_to_the_call_stack_depth_and_no_further() {
        let deepest = CALL_STACK_DEPTH as i32 - 2;
        let (_, stats) = Interpreter::new(&countdown_program(deepest))
            .run()
            .expect("exactly at the limit");
        assert_eq!(stats.calls, CALL_STACK_DEPTH as u64 - 1);
        let err = Interpreter::new(&countdown_program(deepest + 1))
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::CallStackOverflow);
        assert_eq!(
            err.to_string(),
            format!("call-stack overflow: more than {CALL_STACK_DEPTH} nested calls")
        );
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
