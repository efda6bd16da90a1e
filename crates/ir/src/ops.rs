//! The IR operation set: unpacked machine operations over virtual
//! registers.
//!
//! Operations map one-to-one onto the functional-unit classes of the
//! target ([`dsp_machine::UnitClass`]): integer ops run on a DU, float
//! ops on an FPU, loads/stores on an MU, and control transfers on the
//! PCU. Address arithmetic is implicit in [`MemRef`] and materialized
//! onto the AUs by the back-end.

use crate::ids::{BlockId, FuncId, GlobalId, LocalId, VReg};
use dsp_machine::{CmpKind, FpBinKind, IntBinKind, UnitClass};

/// An integer operand: a virtual register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IOperand {
    /// Register operand.
    Reg(VReg),
    /// Immediate operand.
    Imm(i32),
}

impl IOperand {
    /// The register, if this operand is one.
    #[must_use]
    pub fn reg(self) -> Option<VReg> {
        match self {
            IOperand::Reg(r) => Some(r),
            IOperand::Imm(_) => None,
        }
    }
}

impl std::fmt::Display for IOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IOperand::Reg(r) => write!(f, "{r}"),
            IOperand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// A floating-point operand: a virtual register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FOperand {
    /// Register operand.
    Reg(VReg),
    /// Immediate operand.
    Imm(f32),
}

impl FOperand {
    /// The register, if this operand is one.
    #[must_use]
    pub fn reg(self) -> Option<VReg> {
        match self {
            FOperand::Reg(r) => Some(r),
            FOperand::Imm(_) => None,
        }
    }
}

impl std::fmt::Display for FOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FOperand::Reg(r) => write!(f, "{r}"),
            FOperand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// The memory object a load or store touches.
///
/// Because DSP-C has no raw pointers, every memory operation statically
/// names its object — the exact alias information the data allocation
/// pass needs. An array *parameter* ([`MemBase::Param`]) may be bound to
/// different arrays at different call sites; the allocator handles this
/// by unifying the parameter with every actual argument into one alias
/// class (a conservative allocation, as the paper anticipates in §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemBase {
    /// A program-level global scalar or array.
    Global(GlobalId),
    /// A stack-allocated local array of the enclosing function.
    Local(LocalId),
    /// The array bound to the `index`-th parameter of the enclosing
    /// function.
    Param(usize),
}

impl std::fmt::Display for MemBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemBase::Global(g) => write!(f, "{g}"),
            MemBase::Local(l) => write!(f, "{l}"),
            MemBase::Param(p) => write!(f, "p{p}"),
        }
    }
}

/// An effective address: `base[index + offset]` in word units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The object accessed.
    pub base: MemBase,
    /// Optional dynamic index register.
    pub index: Option<VReg>,
    /// Constant word displacement.
    pub offset: i32,
}

impl MemRef {
    /// A direct reference to element `offset` of `base`.
    #[must_use]
    pub fn direct(base: MemBase, offset: i32) -> MemRef {
        MemRef {
            base,
            index: None,
            offset,
        }
    }

    /// An indexed reference `base[index + offset]`.
    #[must_use]
    pub fn indexed(base: MemBase, index: VReg, offset: i32) -> MemRef {
        MemRef {
            base,
            index: Some(index),
            offset,
        }
    }
}

impl std::fmt::Display for MemRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.index, self.offset) {
            (None, o) => write!(f, "{}[{o}]", self.base),
            (Some(i), 0) => write!(f, "{}[{i}]", self.base),
            (Some(i), o) => write!(f, "{}[{i}{o:+}]", self.base),
        }
    }
}

/// An argument passed at a call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// A scalar value.
    Value(VReg),
    /// An array passed by reference.
    Array(MemBase),
}

impl std::fmt::Display for Arg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arg::Value(v) => write!(f, "{v}"),
            Arg::Array(b) => write!(f, "&{b}"),
        }
    }
}

/// One unpacked machine operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Integer move (register or immediate source).
    MovI {
        /// Destination.
        dst: VReg,
        /// Source operand.
        src: IOperand,
    },
    /// Floating-point move (register or immediate source).
    MovF {
        /// Destination.
        dst: VReg,
        /// Source operand.
        src: FOperand,
    },
    /// Integer binary operation `dst = lhs <kind> rhs`.
    IBin {
        /// Operation kind.
        kind: IntBinKind,
        /// Destination.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: IOperand,
    },
    /// Integer comparison producing 0/1.
    ICmp {
        /// Predicate.
        kind: CmpKind,
        /// Destination (integer).
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: IOperand,
    },
    /// Integer negation.
    INeg {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Bitwise complement.
    INot {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Floating-point binary operation.
    FBin {
        /// Operation kind.
        kind: FpBinKind,
        /// Destination.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// Fused multiply-accumulate `acc = acc + a * b` (the signature DSP
    /// operation; single cycle on the target's FPUs). `acc` is both
    /// read and written.
    FMac {
        /// Accumulator (read and written).
        acc: VReg,
        /// First factor.
        a: VReg,
        /// Second factor.
        b: VReg,
    },
    /// Floating-point comparison producing 0/1 in an integer register.
    FCmp {
        /// Predicate.
        kind: CmpKind,
        /// Destination (integer).
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// Floating-point negation.
    FNeg {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Convert integer to float.
    ItoF {
        /// Destination (float).
        dst: VReg,
        /// Source (integer).
        src: VReg,
    },
    /// Convert float to integer (truncating).
    FtoI {
        /// Destination (integer).
        dst: VReg,
        /// Source (float).
        src: VReg,
    },
    /// Load a word from memory.
    Load {
        /// Destination register.
        dst: VReg,
        /// Address.
        addr: MemRef,
    },
    /// Store a word to memory.
    Store {
        /// Source register.
        src: VReg,
        /// Address.
        addr: MemRef,
    },
    /// Call a function.
    Call {
        /// Destination for the return value, if any.
        dst: Option<VReg>,
        /// Callee.
        callee: FuncId,
        /// Arguments.
        args: Vec<Arg>,
    },
    /// Conditional branch: to `then_bb` if `cond` is non-zero, else to
    /// `else_bb`. Terminator.
    Br {
        /// Condition register.
        cond: VReg,
        /// Target when non-zero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Unconditional jump. Terminator.
    Jmp(BlockId),
    /// Return, optionally with a value. Terminator.
    Ret(Option<VReg>),
}

impl Op {
    /// True if this operation ends a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::Jmp(_) | Op::Ret(_))
    }

    /// True for loads and stores.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// The memory reference of a load/store.
    #[must_use]
    pub fn mem_ref(&self) -> Option<&MemRef> {
        match self {
            Op::Load { addr, .. } | Op::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// Mutable access to the memory reference of a load/store.
    pub fn mem_ref_mut(&mut self) -> Option<&mut MemRef> {
        match self {
            Op::Load { addr, .. } | Op::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The virtual register this operation defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<VReg> {
        match self {
            Op::MovI { dst, .. }
            | Op::MovF { dst, .. }
            | Op::IBin { dst, .. }
            | Op::ICmp { dst, .. }
            | Op::INeg { dst, .. }
            | Op::INot { dst, .. }
            | Op::FBin { dst, .. }
            | Op::FCmp { dst, .. }
            | Op::FNeg { dst, .. }
            | Op::ItoF { dst, .. }
            | Op::FtoI { dst, .. }
            | Op::Load { dst, .. } => Some(*dst),
            Op::FMac { acc, .. } => Some(*acc),
            Op::Call { dst, .. } => *dst,
            Op::Store { .. } | Op::Br { .. } | Op::Jmp(_) | Op::Ret(_) => None,
        }
    }

    /// The virtual registers this operation reads, in operand order.
    #[must_use]
    pub fn uses(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        self.for_each_use(|v| out.push(v));
        out
    }

    /// Visit each virtual register this operation reads, in the order
    /// of [`Op::uses`], without allocating. A register read twice is
    /// visited twice.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Op::MovI { src, .. } => src.reg().into_iter().for_each(f),
            Op::MovF { src, .. } => src.reg().into_iter().for_each(f),
            Op::IBin { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } => {
                f(*lhs);
                rhs.reg().into_iter().for_each(f);
            }
            Op::INeg { src, .. }
            | Op::INot { src, .. }
            | Op::FNeg { src, .. }
            | Op::ItoF { src, .. }
            | Op::FtoI { src, .. } => f(*src),
            Op::FBin { lhs, rhs, .. } | Op::FCmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Op::FMac { acc, a, b } => {
                f(*acc);
                f(*a);
                f(*b);
            }
            Op::Load { addr, .. } => addr.index.into_iter().for_each(f),
            Op::Store { src, addr } => {
                f(*src);
                addr.index.into_iter().for_each(f);
            }
            Op::Call { args, .. } => {
                for a in args {
                    if let Arg::Value(v) = a {
                        f(*v);
                    }
                }
            }
            Op::Br { cond, .. } => f(*cond),
            Op::Jmp(_) => {}
            Op::Ret(v) => v.iter().copied().for_each(f),
        }
    }

    /// Rewrite every register this operation *reads* through `f`.
    /// Definitions are left untouched.
    pub fn map_uses(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        let map_i = |o: &mut IOperand, f: &mut dyn FnMut(VReg) -> VReg| {
            if let IOperand::Reg(r) = o {
                *r = f(*r);
            }
        };
        let map_f = |o: &mut FOperand, f: &mut dyn FnMut(VReg) -> VReg| {
            if let FOperand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match self {
            Op::MovI { src, .. } => map_i(src, &mut f),
            Op::MovF { src, .. } => map_f(src, &mut f),
            Op::IBin { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                map_i(rhs, &mut f);
            }
            Op::INeg { src, .. }
            | Op::INot { src, .. }
            | Op::FNeg { src, .. }
            | Op::ItoF { src, .. }
            | Op::FtoI { src, .. } => *src = f(*src),
            Op::FBin { lhs, rhs, .. } | Op::FCmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            // The accumulator of a MAC is read *and* written; renaming
            // only the read would tear the register in half, so it is
            // left alone like other definitions.
            Op::FMac { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::Load { addr, .. } => {
                if let Some(i) = &mut addr.index {
                    *i = f(*i);
                }
            }
            Op::Store { src, addr } => {
                *src = f(*src);
                if let Some(i) = &mut addr.index {
                    *i = f(*i);
                }
            }
            Op::Call { args, .. } => {
                for a in args {
                    if let Arg::Value(v) = a {
                        *v = f(*v);
                    }
                }
            }
            Op::Br { cond, .. } => *cond = f(*cond),
            Op::Jmp(_) => {}
            Op::Ret(v) => {
                if let Some(v) = v {
                    *v = f(*v);
                }
            }
        }
    }

    /// The functional-unit class this operation executes on, or `None`
    /// for calls (which expand to a PCU transfer plus argument moves in
    /// the back-end).
    #[must_use]
    pub fn unit_class(&self) -> Option<UnitClass> {
        match self {
            Op::MovI { .. }
            | Op::IBin { .. }
            | Op::ICmp { .. }
            | Op::INeg { .. }
            | Op::INot { .. } => Some(UnitClass::Int),
            Op::MovF { .. }
            | Op::FBin { .. }
            | Op::FMac { .. }
            | Op::FCmp { .. }
            | Op::FNeg { .. }
            | Op::ItoF { .. }
            | Op::FtoI { .. } => Some(UnitClass::Fp),
            Op::Load { .. } | Op::Store { .. } => Some(UnitClass::Mem),
            Op::Br { .. } | Op::Jmp(_) | Op::Ret(_) => Some(UnitClass::Pcu),
            Op::Call { .. } => None,
        }
    }

    /// Successor blocks of a terminator (empty for non-terminators and
    /// returns).
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Op::Br {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Op::Jmp(b) => vec![*b],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let op = Op::IBin {
            kind: IntBinKind::Add,
            dst: VReg(2),
            lhs: VReg(0),
            rhs: IOperand::Reg(VReg(1)),
        };
        assert_eq!(op.def(), Some(VReg(2)));
        assert_eq!(op.uses(), vec![VReg(0), VReg(1)]);
    }

    #[test]
    fn store_has_no_def() {
        let op = Op::Store {
            src: VReg(3),
            addr: MemRef::indexed(MemBase::Global(GlobalId(0)), VReg(4), 0),
        };
        assert_eq!(op.def(), None);
        assert_eq!(op.uses(), vec![VReg(3), VReg(4)]);
        assert!(op.is_mem());
        assert_eq!(op.unit_class(), Some(UnitClass::Mem));
    }

    #[test]
    fn terminators_and_successors() {
        let br = Op::Br {
            cond: VReg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Op::Ret(None).is_terminator());
        assert!(Op::Ret(None).successors().is_empty());
        assert!(!Op::MovI {
            dst: VReg(0),
            src: IOperand::Imm(1)
        }
        .is_terminator());
    }

    #[test]
    fn map_uses_rewrites_reads_only() {
        let mut op = Op::IBin {
            kind: IntBinKind::Add,
            dst: VReg(2),
            lhs: VReg(0),
            rhs: IOperand::Reg(VReg(2)),
        };
        op.map_uses(|v| VReg(v.0 + 10));
        assert_eq!(op.def(), Some(VReg(2)));
        assert_eq!(op.uses(), vec![VReg(10), VReg(12)]);
    }

    #[test]
    fn call_uses_scalar_args() {
        let op = Op::Call {
            dst: Some(VReg(9)),
            callee: FuncId(1),
            args: vec![Arg::Value(VReg(4)), Arg::Array(MemBase::Local(LocalId(0)))],
        };
        assert_eq!(op.def(), Some(VReg(9)));
        assert_eq!(op.uses(), vec![VReg(4)]);
        assert_eq!(op.unit_class(), None);
    }

    #[test]
    fn memref_display() {
        let r = MemRef::indexed(MemBase::Global(GlobalId(2)), VReg(1), -3);
        assert_eq!(r.to_string(), "g2[%1-3]");
        let d = MemRef::direct(MemBase::Param(0), 5);
        assert_eq!(d.to_string(), "p0[5]");
    }
}
