//! Per-basic-block data-dependence graphs.
//!
//! The compaction algorithm (paper Figure 3) starts by generating a
//! data-dependence graph for every basic block and assigning each
//! operation a priority "equal to the number of descendents an operation
//! has in the dependence graph". This module builds that graph, with
//! flow (read-after-write), anti (write-after-read) and output
//! (write-after-write) edges over both registers and memory, plus
//! control edges that pin every operation before the block terminator.

use crate::ops::{MemBase, MemRef, Op};

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

/// The data-dependence graph of one basic block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    n: usize,
    edges: Vec<DepEdge>,
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

impl DepGraph {
    /// Build the dependence graph of the operation sequence `ops`
    /// (one basic block, in program order).
    #[must_use]
    pub fn build(ops: &[Op]) -> DepGraph {
        let n = ops.len();
        let uses: Vec<Vec<crate::ids::VReg>> = ops.iter().map(Op::uses).collect();
        let defs: Vec<Option<crate::ids::VReg>> = ops.iter().map(Op::def).collect();
        let mut edges = Vec::new();
        let mut add = |from: usize, to: usize, kind: DepKind| {
            edges.push(DepEdge { from, to, kind });
        };
        for j in 0..n {
            for i in 0..j {
                let (a, b) = (&ops[i], &ops[j]);
                // Register dependences.
                if let Some(d) = defs[i] {
                    if uses[j].contains(&d) {
                        add(i, j, DepKind::Flow);
                    }
                    if defs[j] == Some(d) {
                        add(i, j, DepKind::Output);
                    }
                }
                if let Some(d) = defs[j] {
                    if uses[i].contains(&d) {
                        add(i, j, DepKind::Anti);
                    }
                }
                // Memory dependences.
                match (a, b) {
                    (Op::Store { addr: ra, .. }, Op::Load { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Flow);
                    }
                    (Op::Load { addr: ra, .. }, Op::Store { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Anti);
                    }
                    (Op::Store { addr: ra, .. }, Op::Store { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Output);
                    }
                    _ => {}
                }
                // Calls are barriers for memory and for each other.
                let call_a = matches!(a, Op::Call { .. });
                let call_b = matches!(b, Op::Call { .. });
                if (call_a && (b.is_mem() || call_b)) || (call_b && a.is_mem()) {
                    add(i, j, DepKind::Flow);
                }
                // Everything issues no later than the terminator.
                if b.is_terminator() {
                    add(i, j, DepKind::Control);
                }
            }
        }
        DepGraph { n, edges }
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the block has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges into `i`, with kinds.
    pub fn pred_edges(&self, i: usize) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.to == i)
    }

    /// Scheduling priority of every operation: its number of descendants
    /// in the dependence graph (paper Figure 3). Operations with more
    /// downstream work are scheduled first.
    #[must_use]
    pub fn priorities(&self) -> Vec<u32> {
        priorities(self.n, &self.edges)
    }
}

/// Scheduling priorities of `n` operations from their dependence
/// `edges`: each operation's number of descendants (paper Figure 3).
/// Serves IR blocks ([`DepGraph::priorities`]) and any other operation
/// sequence whose edges run from a lower to a higher index, such as the
/// back end's machine-level blocks.
///
/// The descendant sets are bit rows of one flat table, filled in reverse
/// index order — a topological order, since every edge points forward —
/// so each row ORs in the finished rows of its successors. That is
/// `O(n + e·n/64)` word operations and three allocations.
///
/// # Panics
///
/// Panics if an edge does not point from a lower to a higher index
/// below `n`.
#[must_use]
pub fn priorities(n: usize, edges: &[DepEdge]) -> Vec<u32> {
    // Successor lists in compressed-row form.
    let mut start = vec![0u32; n + 1];
    for e in edges {
        assert!(
            e.from < e.to && e.to < n,
            "edge {}->{} out of order",
            e.from,
            e.to
        );
        start[e.from + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut succ = vec![0u32; edges.len()];
    for e in edges {
        succ[fill[e.from] as usize] = e.to as u32;
        fill[e.from] += 1;
    }

    let words = n.div_ceil(64);
    let mut reach = vec![0u64; n * words];
    for i in (0..n).rev() {
        // Rows above i's are finished; split so they can be read while
        // row i is written.
        let (head, tail) = reach.split_at_mut((i + 1) * words);
        let mine = &mut head[i * words..];
        for &s in &succ[start[i] as usize..start[i + 1] as usize] {
            let s = s as usize;
            mine[s / 64] |= 1u64 << (s % 64);
            let other = &tail[(s - i - 1) * words..(s - i) * words];
            for (m, o) in mine.iter_mut().zip(other) {
                *m |= o;
            }
        }
    }
    reach
        .chunks(words.max(1))
        .take(n)
        .map(|row| row.iter().map(|w| w.count_ones()).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GlobalId, VReg};
    use crate::ops::{IOperand, MemRef};
    use dsp_machine::IntBinKind;

    fn movi(dst: u32, imm: i32) -> Op {
        Op::MovI {
            dst: VReg(dst),
            src: IOperand::Imm(imm),
        }
    }

    fn add(dst: u32, lhs: u32, rhs: u32) -> Op {
        Op::IBin {
            kind: IntBinKind::Add,
            dst: VReg(dst),
            lhs: VReg(lhs),
            rhs: IOperand::Reg(VReg(rhs)),
        }
    }

    fn load(dst: u32, g: u32, idx: Option<u32>) -> Op {
        Op::Load {
            dst: VReg(dst),
            addr: MemRef {
                base: MemBase::Global(GlobalId(g)),
                index: idx.map(VReg),
                offset: 0,
            },
        }
    }

    fn store(src: u32, g: u32, idx: Option<u32>) -> Op {
        Op::Store {
            src: VReg(src),
            addr: MemRef {
                base: MemBase::Global(GlobalId(g)),
                index: idx.map(VReg),
                offset: 0,
            },
        }
    }

    fn has_edge(g: &DepGraph, from: usize, to: usize, kind: DepKind) -> bool {
        g.edges().contains(&DepEdge { from, to, kind })
    }

    #[test]
    fn flow_anti_output_register_deps() {
        // 0: %0 = 1        (def %0)
        // 1: %1 = %0 + %0  (flow on %0)
        // 2: %0 = 2        (anti vs 1, output vs 0)
        let ops = vec![movi(0, 1), add(1, 0, 0), movi(0, 2)];
        let g = DepGraph::build(&ops);
        assert!(has_edge(&g, 0, 1, DepKind::Flow));
        assert!(has_edge(&g, 1, 2, DepKind::Anti));
        assert!(has_edge(&g, 0, 2, DepKind::Output));
    }

    #[test]
    fn independent_loads_have_no_edge() {
        let ops = vec![load(0, 0, None), load(1, 1, None)];
        let g = DepGraph::build(&ops);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn store_then_load_same_object_is_flow() {
        let ops = vec![store(0, 0, Some(5)), load(1, 0, Some(6))];
        let g = DepGraph::build(&ops);
        assert!(has_edge(&g, 0, 1, DepKind::Flow));
    }

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

    #[test]
    fn terminator_gets_control_edges() {
        let ops = vec![movi(0, 1), Op::Ret(None)];
        let g = DepGraph::build(&ops);
        assert!(has_edge(&g, 0, 1, DepKind::Control));
        assert!(DepKind::Control.allows_same_cycle());
    }

    #[test]
    fn priorities_count_descendants() {
        // Chain: 0 -> 1 -> 2 plus independent 3.
        let ops = vec![movi(0, 1), add(1, 0, 0), add(2, 1, 1), movi(3, 9)];
        let g = DepGraph::build(&ops);
        let p = g.priorities();
        assert_eq!(p, vec![2, 1, 0, 0]);
    }

    #[test]
    fn call_is_memory_barrier() {
        let ops = vec![
            store(0, 0, None),
            Op::Call {
                dst: None,
                callee: crate::ids::FuncId(0),
                args: vec![],
            },
            load(1, 1, None),
        ];
        let g = DepGraph::build(&ops);
        assert!(has_edge(&g, 0, 1, DepKind::Flow));
        assert!(has_edge(&g, 1, 2, DepKind::Flow));
    }
}
