//! Low-level IR: machine operations over physical registers, still
//! organized as basic blocks with symbolic branch targets.
//!
//! This is the form the *final* operation-compaction pass works on.
//! Each [`LirOp`] occupies exactly one functional-unit slot; memory
//! operations carry [`MemMeta`] — the alias class, the original memory
//! reference, and the bank claim — so the scheduler can disambiguate
//! accesses and honour (or, for duplicated data, exploit) bank
//! placement.

use dsp_bankalloc::Var;
use dsp_ir::ops::MemRef;
use dsp_ir::{BlockId, FuncId};
use dsp_machine::{AddrOp, Bank, FpOp, IReg, IntOp, IntOperand, MemAddr, MemOp, Reg};
use dsp_sched::MemClaim;

use crate::layout::FrameLayout;

/// What a memory operation's address can alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasKey {
    /// A program variable (alias class) with its original reference for
    /// offset-level disambiguation.
    Class(Var, MemRef),
    /// A frame slot (register save or spill) at an exact, unique
    /// per-function location. Frame slots never alias program
    /// variables.
    Frame(Bank, u32),
}

impl AliasKey {
    /// May two accesses touch the same word of the same bank?
    #[must_use]
    pub fn may_overlap(&self, other: &AliasKey) -> bool {
        match (self, other) {
            (AliasKey::Class(ca, ra), AliasKey::Class(cb, rb)) => {
                if ca != cb {
                    return false;
                }
                // Same class: distinct constant displacements off the
                // same (possibly absent) index register cannot collide.
                if ra.base == rb.base && ra.index == rb.index {
                    ra.offset == rb.offset
                } else {
                    true
                }
            }
            (AliasKey::Frame(ba, oa), AliasKey::Frame(bb, ob)) => ba == bb && oa == ob,
            // Static data and stack regions are disjoint.
            (AliasKey::Class(..), AliasKey::Frame(..))
            | (AliasKey::Frame(..), AliasKey::Class(..)) => false,
        }
    }
}

/// Scheduling metadata of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemMeta {
    /// What the access may alias.
    pub alias: AliasKey,
    /// Which memory unit(s) may execute it.
    pub claim: MemClaim,
}

/// One machine-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LirOp {
    /// Integer ALU operation (DU slot).
    Int(IntOp),
    /// Floating-point operation (FPU slot).
    Fp(FpOp),
    /// Address operation (AU slot).
    Addr(AddrOp),
    /// Memory operation (MU slot) with alias/claim metadata.
    Mem {
        /// The machine operation. Its `bank` field holds the home bank;
        /// the scheduler may retarget it when the claim is
        /// [`MemClaim::Either`].
        op: MemOp,
        /// Scheduling metadata.
        meta: MemMeta,
    },
    /// Interrupt-safe duplicated store: both copies of a duplicated
    /// variable are written in the *same cycle*, occupying MU0 and MU1
    /// together, so no interrupt can observe the copies out of sync
    /// (paper §3.2). Emitted instead of two independent stores when the
    /// driver's `interrupt_safe_dup` option is set.
    DupStorePair {
        /// The bank-X store.
        x: MemOp,
        /// The bank-Y store (same address, same source register).
        y: MemOp,
        /// What the pair may alias.
        alias: AliasKey,
    },
    /// Unconditional jump (PCU slot). Terminator.
    Jump(BlockId),
    /// Conditional branch (PCU slot). Terminator.
    Br {
        /// Condition register (branch taken when non-zero).
        cond: IReg,
        /// Target when non-zero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Function call (PCU slot). Reads its argument registers, writes
    /// the return register, and acts as a memory barrier.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument registers read at the call.
        reads: Vec<Reg>,
        /// Return register written by the callee.
        ret: Option<Reg>,
    },
    /// Return (PCU slot). Terminator.
    Ret {
        /// Registers the caller will read (the return value register).
        reads: Vec<Reg>,
    },
}

impl LirOp {
    /// True for block terminators.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, LirOp::Jump(_) | LirOp::Br { .. } | LirOp::Ret { .. })
    }

    /// Registers this operation reads.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn reads(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.for_each_read(|r| out.push(r));
        out
    }

    /// Registers this operation writes.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn writes(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.for_each_write(|r| out.push(r));
        out
    }

    /// Visit each register this operation reads.
    pub fn for_each_read(&self, mut f: impl FnMut(Reg)) {
        let addr_reads = |addr: &MemAddr, f: &mut dyn FnMut(Reg)| match addr {
            MemAddr::Absolute(_) => {}
            MemAddr::Base { base, .. } => f(Reg::Addr(*base)),
            MemAddr::AbsIndex { index, .. } => f(Reg::Int(*index)),
            MemAddr::BaseIndex { base, index, .. } => {
                f(Reg::Addr(*base));
                f(Reg::Int(*index));
            }
        };
        match self {
            LirOp::Int(op) => match *op {
                IntOp::Bin { lhs, rhs, .. } | IntOp::Cmp { lhs, rhs, .. } => {
                    f(Reg::Int(lhs));
                    if let IntOperand::Reg(r) = rhs {
                        f(Reg::Int(r));
                    }
                }
                IntOp::Mov { src, .. } | IntOp::Neg { src, .. } | IntOp::Not { src, .. } => {
                    f(Reg::Int(src));
                }
                IntOp::MovImm { .. } => {}
            },
            LirOp::Fp(op) => match *op {
                FpOp::Bin { lhs, rhs, .. } | FpOp::Cmp { lhs, rhs, .. } => {
                    f(Reg::Float(lhs));
                    f(Reg::Float(rhs));
                }
                FpOp::Mac { dst, a, b } => {
                    f(Reg::Float(dst));
                    f(Reg::Float(a));
                    f(Reg::Float(b));
                }
                FpOp::Mov { src, .. } | FpOp::Neg { src, .. } => f(Reg::Float(src)),
                FpOp::CvtItoF { src, .. } => f(Reg::Int(src)),
                FpOp::CvtFtoI { src, .. } => f(Reg::Float(src)),
                FpOp::MovImm { .. } => {}
            },
            LirOp::Addr(op) => match *op {
                AddrOp::Lea { .. } => {}
                AddrOp::AddIndex { base, index, .. } => {
                    f(Reg::Addr(base));
                    f(Reg::Int(index));
                }
                AddrOp::AddImm { base, .. } => f(Reg::Addr(base)),
                AddrOp::Mov { src, .. } => f(Reg::Addr(src)),
                AddrOp::ToInt { src, .. } => f(Reg::Addr(src)),
                AddrOp::FromInt { src, .. } => f(Reg::Int(src)),
            },
            LirOp::Mem { op, .. } => match op {
                MemOp::Load { addr, .. } => addr_reads(addr, &mut f),
                MemOp::Store { src, addr, .. } => {
                    f(*src);
                    addr_reads(addr, &mut f);
                }
            },
            LirOp::DupStorePair { x, .. } => {
                // Both halves read the same source and address registers.
                if let MemOp::Store { src, addr, .. } = x {
                    f(*src);
                    addr_reads(addr, &mut f);
                }
            }
            LirOp::Jump(_) => {}
            LirOp::Br { cond, .. } => f(Reg::Int(*cond)),
            LirOp::Call { reads, .. } => {
                reads.iter().copied().for_each(&mut f);
                // The callee observes and restores the stack pointers.
                f(Reg::Addr(dsp_machine::AReg::SP_X));
                f(Reg::Addr(dsp_machine::AReg::SP_Y));
            }
            LirOp::Ret { reads } => reads.iter().copied().for_each(f),
        }
    }

    /// Visit each register this operation writes.
    pub fn for_each_write(&self, mut f: impl FnMut(Reg)) {
        match self {
            LirOp::Int(op) => match *op {
                IntOp::Bin { dst, .. }
                | IntOp::Cmp { dst, .. }
                | IntOp::MovImm { dst, .. }
                | IntOp::Mov { dst, .. }
                | IntOp::Neg { dst, .. }
                | IntOp::Not { dst, .. } => f(Reg::Int(dst)),
            },
            LirOp::Fp(op) => match *op {
                FpOp::Bin { dst, .. }
                | FpOp::Mac { dst, .. }
                | FpOp::MovImm { dst, .. }
                | FpOp::Mov { dst, .. }
                | FpOp::Neg { dst, .. }
                | FpOp::CvtItoF { dst, .. } => f(Reg::Float(dst)),
                FpOp::Cmp { dst, .. } | FpOp::CvtFtoI { dst, .. } => f(Reg::Int(dst)),
            },
            LirOp::Addr(op) => match *op {
                AddrOp::Lea { dst, .. }
                | AddrOp::AddIndex { dst, .. }
                | AddrOp::AddImm { dst, .. }
                | AddrOp::Mov { dst, .. }
                | AddrOp::FromInt { dst, .. } => f(Reg::Addr(dst)),
                AddrOp::ToInt { dst, .. } => f(Reg::Int(dst)),
            },
            LirOp::Mem { op, .. } => match op {
                MemOp::Load { dst, .. } => f(*dst),
                MemOp::Store { .. } => {}
            },
            LirOp::DupStorePair { .. } => {}
            LirOp::Call { ret, .. } => {
                ret.iter().copied().for_each(&mut f);
                // Conservatively treat the stack pointers as written so
                // nothing migrates across the call.
                f(Reg::Addr(dsp_machine::AReg::SP_X));
                f(Reg::Addr(dsp_machine::AReg::SP_Y));
            }
            LirOp::Jump(_) | LirOp::Br { .. } | LirOp::Ret { .. } => {}
        }
    }

    /// The memory metadata, for loads/stores.
    #[must_use]
    pub fn mem_meta(&self) -> Option<&MemMeta> {
        match self {
            LirOp::Mem { meta, .. } => Some(meta),
            _ => None,
        }
    }
}

/// A function lowered to LIR.
#[derive(Debug, Clone)]
pub struct LirFunction {
    /// Source-level name.
    pub name: String,
    /// Blocks indexed by [`BlockId`]; the entry is block
    /// [`LirFunction::entry`]. Every block ends with a terminator.
    pub blocks: Vec<Vec<LirOp>>,
    /// Entry block (the synthesized prologue block).
    pub entry: BlockId,
    /// Frame layout.
    pub frame: FrameLayout,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_ir::GlobalId;

    fn meta() -> MemMeta {
        MemMeta {
            alias: AliasKey::Class(
                Var::Global(GlobalId(0)),
                MemRef::direct(dsp_ir::MemBase::Global(GlobalId(0)), 0),
            ),
            claim: MemClaim::Fixed(Bank::X),
        }
    }

    #[test]
    fn reads_writes_of_mem_ops() {
        let load = LirOp::Mem {
            op: MemOp::Load {
                dst: Reg::Int(IReg(3)),
                addr: MemAddr::AbsIndex {
                    addr: 10,
                    index: IReg(4),
                },
                bank: Bank::X,
            },
            meta: meta(),
        };
        assert_eq!(load.reads(), vec![Reg::Int(IReg(4))]);
        assert_eq!(load.writes(), vec![Reg::Int(IReg(3))]);
    }

    #[test]
    fn frame_slots_do_not_alias_classes() {
        let a = AliasKey::Frame(Bank::X, 3);
        let b = AliasKey::Frame(Bank::X, 3);
        let c = AliasKey::Frame(Bank::X, 4);
        let d = AliasKey::Frame(Bank::Y, 3);
        assert!(a.may_overlap(&b));
        assert!(!a.may_overlap(&c));
        assert!(!a.may_overlap(&d));
        let cls = match meta().alias {
            k @ AliasKey::Class(..) => k,
            AliasKey::Frame(..) => unreachable!(),
        };
        assert!(!a.may_overlap(&cls));
    }

    #[test]
    fn same_class_distinct_offsets_disjoint() {
        let base = dsp_ir::MemBase::Global(GlobalId(0));
        let k1 = AliasKey::Class(Var::Global(GlobalId(0)), MemRef::direct(base, 0));
        let k2 = AliasKey::Class(Var::Global(GlobalId(0)), MemRef::direct(base, 1));
        assert!(!k1.may_overlap(&k2));
        let k3 = AliasKey::Class(
            Var::Global(GlobalId(0)),
            MemRef::indexed(base, dsp_ir::VReg(9), 0),
        );
        assert!(k1.may_overlap(&k3));
    }

    #[test]
    fn call_reads_and_clobbers_stack_pointers() {
        let call = LirOp::Call {
            callee: FuncId(0),
            reads: vec![Reg::Int(IReg(1))],
            ret: Some(Reg::Int(IReg(0))),
        };
        assert!(call.reads().contains(&Reg::Addr(dsp_machine::AReg::SP_X)));
        assert!(call.writes().contains(&Reg::Addr(dsp_machine::AReg::SP_Y)));
        assert!(call.writes().contains(&Reg::Int(IReg(0))));
    }
}
