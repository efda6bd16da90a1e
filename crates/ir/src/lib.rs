#![warn(missing_docs)]
//! Intermediate representation for the dual-bank DSP compiler.
//!
//! The front-end lowers DSP-C into this IR: functions made of basic
//! blocks holding *unpacked machine operations* over an unbounded set of
//! virtual registers (the paper's GNU-C front-end produced the same
//! shape, §3). Scalar locals are promoted to virtual registers; only
//! arrays — global or stack-allocated — live in data memory, and every
//! [`ops::MemRef`] names the variable it touches, giving the data
//! allocation pass the exact alias information it needs (§2, last
//! paragraph).
//!
//! The crate also provides the analyses the back-end passes share:
//!
//! * [`cfg`] — control-flow graph, dominator tree, and natural-loop
//!   nesting depth (the default interference-edge weight heuristic);
//! * [`depgraph`] — the flow, anti, output and control edges of
//!   per-basic-block data-dependence graphs, and the memory-overlap test;
//! * [`interp`] — a reference interpreter used as the semantic oracle for
//!   the whole compiler: whatever the VLIW pipeline produces must compute
//!   the same values the interpreter does.
//!
//! # Example
//!
//! ```
//! use dsp_ir::{Function, Program, Type};
//! use dsp_ir::ops::{IOperand, Op};
//!
//! let mut program = Program::new();
//! let mut f = Function::new("answer");
//! f.ret = Some(Type::Int);
//! let v = f.new_vreg(Type::Int);
//! let entry = f.entry;
//! f.block_mut(entry).push(Op::MovI { dst: v, src: IOperand::Imm(42) });
//! f.block_mut(entry).push(Op::Ret(Some(v)));
//! let id = program.add_function(f);
//! program.main = Some(id);
//! assert!(program.validate().is_ok());
//! ```

pub mod cfg;
pub mod depgraph;
pub mod display;
pub mod func;
pub mod ids;
pub mod interp;
pub mod ops;

pub use cfg::{Cfg, LoopInfo, NaturalLoop};
pub use depgraph::{DepEdge, DepKind};
pub use func::{Block, Function, Global, LocalArray, Param, ParamKind, Program};
pub use ids::{BlockId, FuncId, GlobalId, LocalId, VReg};
pub use interp::{ExecStats, InterpError, Interpreter};
pub use ops::{Arg, FOperand, IOperand, MemBase, MemRef, Op};

/// The scalar value types of the IR.
///
/// Both occupy one 32-bit machine word; the type selects which register
/// file a virtual register maps to and which functional units operate on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit two's-complement integer.
    Int,
    /// IEEE-754 single-precision float.
    Float,
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
        }
    }
}
