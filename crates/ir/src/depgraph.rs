//! The edges of per-basic-block data-dependence graphs.
//!
//! The compaction algorithm (paper Figure 3) starts by generating a
//! data-dependence graph for every basic block and assigning each
//! operation a priority "equal to the number of descendents an operation
//! has in the dependence graph". The graph has flow (read-after-write),
//! anti (write-after-read) and output (write-after-write) edges over
//! both registers and memory, plus control edges that pin every
//! operation before the block terminator. This module defines the edges
//! and the memory-overlap test; `dsp_sched::Scratch` builds the graph of
//! IR and machine-level blocks alike.

use crate::ops::{MemBase, MemRef};

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write: the successor reads a value the predecessor
    /// produces. The successor must issue in a strictly later cycle.
    Flow,
    /// Write-after-read: the successor overwrites a location the
    /// predecessor reads. With same-cycle read-before-write semantics,
    /// both may issue in the *same* cycle ("data-compatible" in the
    /// paper).
    Anti,
    /// Write-after-write: both write the same location; strictly ordered.
    Output,
    /// Control: the predecessor must issue no later than the block
    /// terminator. Treated like [`DepKind::Anti`] for packing purposes —
    /// an operation may share the terminator's cycle.
    Control,
}

impl DepKind {
    /// True if the successor may issue in the same cycle as the
    /// predecessor (reads happen before writes within a cycle).
    #[must_use]
    pub fn allows_same_cycle(self) -> bool {
        matches!(self, DepKind::Anti | DepKind::Control)
    }
}

/// A directed dependence edge between two operations of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Index of the predecessor operation.
    pub from: usize,
    /// Index of the successor operation.
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
}

/// Can two memory references touch the same word in some execution?
///
/// References to *different* named objects never overlap (DSP-C has no
/// raw pointers), except that an array parameter may be bound to any
/// array, so a [`MemBase::Param`] conservatively aliases everything.
/// References to the same object with compile-time-distinct addresses —
/// equal (or absent) index registers but different constant offsets —
/// cannot overlap either.
#[must_use]
pub fn refs_may_overlap(a: &MemRef, b: &MemRef) -> bool {
    let base_alias = match (a.base, b.base) {
        (MemBase::Param(_), _) | (_, MemBase::Param(_)) => true,
        (x, y) => x == y,
    };
    if !base_alias {
        return false;
    }
    if a.base == b.base && a.index == b.index {
        // Same object, same (possibly absent) dynamic index: overlap
        // only when the constant displacements agree.
        return a.offset == b.offset;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GlobalId, VReg};

    #[test]
    fn distinct_constant_offsets_do_not_alias() {
        let a = MemRef::direct(MemBase::Global(GlobalId(0)), 2);
        let b = MemRef::direct(MemBase::Global(GlobalId(0)), 3);
        assert!(!refs_may_overlap(&a, &b));
        let c = MemRef::indexed(MemBase::Global(GlobalId(0)), VReg(1), 0);
        let d = MemRef::indexed(MemBase::Global(GlobalId(0)), VReg(1), 1);
        assert!(!refs_may_overlap(&c, &d));
        let e = MemRef::indexed(MemBase::Global(GlobalId(0)), VReg(2), 0);
        assert!(refs_may_overlap(&c, &e)); // different index regs
    }

    #[test]
    fn param_aliases_everything() {
        let p = MemRef::direct(MemBase::Param(0), 0);
        let g0 = MemRef::direct(MemBase::Global(GlobalId(0)), 4);
        assert!(refs_may_overlap(&p, &g0));
    }
}
