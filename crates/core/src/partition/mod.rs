//! Partitioning the interference graph into two memory banks.
//!
//! The paper partitions by "searching for a minimum-cost partitioning"
//! with a greedy algorithm (§3.1, Figure 5): all nodes start in the
//! first set (bank X) and the second set is empty; the cost of a
//! partitioning is the total weight of edges joining nodes in the
//! *same* set (those parallel accesses are lost). Exact minimum-cost
//! bipartitioning is NP-complete (it is weighted max-cut), so every
//! production algorithm here is a heuristic.
//!
//! The algorithms live behind the [`Partitioner`] trait, one per
//! submodule:
//!
//! * [`greedy`] — the paper's one-directional greedy (Figure 5),
//!   reimplemented on the incremental [`GainBuckets`](crate::gain)
//!   structure (O((v + E)·log v) instead of the historical O(v²·moves)
//!   rescan, with the rescan kept as [`naive_greedy_partition`] for
//!   equivalence tests), plus the bidirectional single-move refinement
//!   ablation;
//! * [`fm`] — a Fiduccia–Mattheyses-style pass structure: every node
//!   moves at most once per pass (lock-and-pass), the pass keeps its
//!   best prefix of moves (rolling the rest back), and passes repeat
//!   until one fails to improve;
//! * [`oracle`] — the exhaustive minimum for graphs of ≤ 24 nodes,
//!   used as a test oracle to confirm the paper's observation that the
//!   greedy result is near-optimal.
//!
//! Determinism is part of the contract: partitions are stored in a
//! sorted map ([`BTreeMap`]) and every algorithm breaks gain ties
//! toward the node added to the graph most recently, which reproduces
//! the move order of the paper's worked example (see
//! [`crate::gain`] for the exact rule).

pub mod fm;
pub mod greedy;
pub mod oracle;

use std::collections::BTreeMap;

use dsp_machine::Bank;

pub use fm::{fm_partition, Fm};
pub use greedy::{greedy_partition, naive_greedy_partition, Greedy};
pub use oracle::{exhaustive_partition, Oracle};

use crate::graph::InterferenceGraph;
use crate::vars::Var;

/// One greedy move, for tracing (Figure 5 reproduces as a trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    /// The node moved from bank X's set to bank Y's.
    pub node: Var,
    /// The cost decrease achieved.
    pub gain: u64,
    /// Total cost after the move.
    pub cost_after: u64,
}

/// A bank assignment for every node of an interference graph.
///
/// The assignment is a sorted map so that every consumer iterating it
/// (reports, bank counts, layout) sees one canonical order — partition
/// results stay byte-deterministic across algorithms and runs.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Bank of each node, keyed in sorted [`Var`] order.
    pub bank: BTreeMap<Var, Bank>,
    /// Total weight of unsatisfied edges (both endpoints in one bank).
    /// Maintained incrementally by the move-based algorithms and
    /// asserted against [`partition_cost`] in debug builds.
    pub cost: u64,
    /// The greedy moves, in order (empty for other algorithms).
    pub trace: Vec<Move>,
    /// Passes the algorithm ran (1 for single-sweep algorithms; for FM,
    /// the count includes the final pass that found no improvement).
    pub passes: u32,
    /// Moves retained in the final assignment across all passes
    /// (tentative moves rolled back by FM's best-prefix rule are not
    /// counted; 0 for the exhaustive oracle, which does not move).
    pub moves: u64,
}

impl Partition {
    /// Bank assigned to `v` (bank X if the variable never appeared in
    /// the graph — isolated variables are indifferent).
    #[must_use]
    pub fn bank_of(&self, v: Var) -> Bank {
        self.bank.get(&v).copied().unwrap_or(Bank::X)
    }
}

/// Compute the cost of an assignment from scratch: total weight of
/// edges whose endpoints share a bank. The ground truth the
/// incrementally-maintained [`Partition::cost`] must always equal.
#[must_use]
pub fn partition_cost(graph: &InterferenceGraph, bank: &BTreeMap<Var, Bank>) -> u64 {
    graph
        .iter_edges()
        .filter(|(a, b, _)| {
            bank.get(a).copied().unwrap_or(Bank::X) == bank.get(b).copied().unwrap_or(Bank::X)
        })
        .map(|(_, _, w)| w)
        .sum()
}

/// A bank-partitioning algorithm, pluggable behind
/// [`PartitionerKind`](crate::PartitionerKind).
///
/// Implementations must be deterministic: the same graph (same node
/// insertion order, same edges) must yield the same [`Partition`] on
/// every run and platform.
pub trait Partitioner: Send + Sync {
    /// Short machine-readable algorithm name (`"greedy"`, `"fm"`, …),
    /// used in CLI flags, request bodies, reports, and metric labels.
    fn name(&self) -> &'static str;

    /// Partition `graph`'s active nodes across the X and Y banks.
    fn partition(&self, graph: &InterferenceGraph) -> Partition;
}

/// Adjacency lists aligned with `nodes`, edges as `(node index,
/// weight)` pairs — the shared precomputation that keeps every
/// algorithm's per-move work proportional to the moved node's degree.
pub(crate) fn adjacency(graph: &InterferenceGraph, nodes: &[Var]) -> Vec<Vec<(usize, u64)>> {
    let index: std::collections::HashMap<Var, usize> =
        nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); nodes.len()];
    for (a, b, w) in graph.iter_edges() {
        if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
            adj[ia].push((ib, w));
            adj[ib].push((ia, w));
        }
    }
    adj
}

/// Assemble the sorted bank map from a partitioner's dense side array.
pub(crate) fn assemble_bank(nodes: &[Var], side: &[Bank]) -> BTreeMap<Var, Bank> {
    nodes.iter().zip(side).map(|(&v, &b)| (v, b)).collect()
}

#[cfg(test)]
pub(crate) mod testgraph {
    use super::*;
    use dsp_ir::GlobalId;

    pub fn v(i: u32) -> Var {
        Var::Global(GlobalId(i))
    }

    /// The interference graph of the paper's Figures 4–5:
    /// nodes A, B, C, D; edges (A,B)=1, (A,C)=1, (B,C)=1, (B,D)=1,
    /// (C,D)=1, (A,D)=2; total weight 7.
    pub fn figure4_graph() -> (InterferenceGraph, [Var; 4]) {
        let (a, b, c, d) = (v(0), v(1), v(2), v(3));
        let mut g = InterferenceGraph::new();
        g.add_node(a);
        g.add_node(b);
        g.add_node(c);
        g.add_node(d);
        g.add_edge_weight(a, b, 1);
        g.add_edge_weight(a, c, 1);
        g.add_edge_weight(b, c, 1);
        g.add_edge_weight(b, d, 1);
        g.add_edge_weight(c, d, 1);
        g.add_edge_weight(a, d, 2);
        (g, [a, b, c, d])
    }

    /// A seeded random graph over `n` nodes: ~1/3 of the pairs carry an
    /// edge of weight 1..=7.
    pub fn random_graph(seed: u32, n: u32) -> InterferenceGraph {
        let mut g = InterferenceGraph::new();
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        for i in 0..n {
            g.add_node(v(i));
            for j in (i + 1)..n {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                if state.is_multiple_of(3) {
                    g.add_edge_weight(v(i), v(j), u64::from(state % 7 + 1));
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::testgraph::{figure4_graph, random_graph, v};
    use super::*;

    #[test]
    fn cost_function_counts_same_bank_edges_only() {
        let mut g = InterferenceGraph::new();
        g.add_edge_weight(v(0), v(1), 3);
        g.add_edge_weight(v(1), v(2), 4);
        let mut bank = BTreeMap::new();
        bank.insert(v(0), Bank::X);
        bank.insert(v(1), Bank::Y);
        bank.insert(v(2), Bank::Y);
        assert_eq!(partition_cost(&g, &bank), 4);
    }

    /// Every algorithm behind the trait agrees with the from-scratch
    /// cost function and respects the quality ordering
    /// oracle ≤ fm ≤ greedy on small random graphs.
    #[test]
    fn trait_implementations_are_consistent() {
        let algos: [&dyn Partitioner; 3] = [&Greedy, &Fm, &Oracle];
        for seed in 0..10u32 {
            let g = random_graph(seed, 9);
            let mut costs = std::collections::HashMap::new();
            for algo in algos {
                let p = algo.partition(&g);
                assert_eq!(
                    p.cost,
                    partition_cost(&g, &p.bank),
                    "{} on seed {seed}: incremental cost drifted",
                    algo.name()
                );
                costs.insert(algo.name(), p.cost);
            }
            assert!(costs["fm"] <= costs["greedy"], "seed {seed}");
            assert!(costs["exhaustive"] <= costs["fm"], "seed {seed}");
        }
    }

    #[test]
    fn trait_names_match_the_figure5_contract() {
        let (g, _) = figure4_graph();
        assert_eq!(Greedy.name(), "greedy");
        assert_eq!(Fm.name(), "fm");
        // Greedy-compatible mode: the trait object reproduces the
        // paper's trace just like the free function.
        let p = Greedy.partition(&g);
        assert_eq!(p.trace.len(), 2);
        assert_eq!(p.cost, 2);
    }
}
