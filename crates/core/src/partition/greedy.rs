//! The paper's greedy partitioner (§3.1, Figure 5) on gain buckets,
//! plus the historical O(v²·moves) rescan kept as a reference
//! implementation.

use dsp_machine::Bank;

use super::{adjacency, assemble_bank, partition_cost, Move, Partition, Partitioner};
use crate::gain::GainBuckets;
use crate::graph::InterferenceGraph;

/// The paper's greedy algorithm behind the [`Partitioner`] trait.
pub struct Greedy;

impl Partitioner for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn partition(&self, graph: &InterferenceGraph) -> Partition {
        greedy_partition(graph)
    }
}

/// The paper's greedy partitioner (Figure 5), on incremental gain
/// buckets: O((v + E)·log v) total instead of a full-candidate rescan
/// per move.
///
/// Ties between equal-gain candidates are broken toward the node added
/// to the graph most recently, which reproduces the move order of the
/// paper's worked example — and matches [`naive_greedy_partition`]
/// move-for-move (the rescan's `max_by_key` keeps the last maximum,
/// the buckets keep the highest index; both are "most recent node").
#[must_use]
pub fn greedy_partition(graph: &InterferenceGraph) -> Partition {
    let nodes = graph.active_nodes();
    let n = nodes.len();
    let adj = adjacency(graph, &nodes);
    let mut side = vec![Bank::X; n];
    let mut cost = graph.total_weight();
    let mut trace = Vec::new();

    // All nodes start in X, so gain(v) = to_x - to_y is simply the sum
    // of adjacent weights. Moved nodes are popped (locked): the paper's
    // greedy never moves a node back, so the unlocked set is exactly
    // the X side and each bucket holds live candidates only.
    let mut buckets = GainBuckets::new(n);
    for (i, edges) in adj.iter().enumerate() {
        let gain: i64 = edges.iter().map(|&(_, w)| w as i64).sum();
        buckets.insert(i, gain);
    }
    while let Some((i, gain)) = buckets.peek_best() {
        if gain <= 0 {
            break;
        }
        buckets.remove(i);
        side[i] = Bank::Y;
        cost -= gain as u64;
        trace.push(Move {
            node: nodes[i],
            gain: gain as u64,
            cost_after: cost,
        });
        // Every unlocked neighbor j is still in X: the edge (i, j) used
        // to count toward j's to_x and now counts toward its to_y.
        for &(j, w) in &adj[i] {
            buckets.adjust(j, -2 * w as i64);
        }
    }
    let bank = assemble_bank(&nodes, &side);
    debug_assert_eq!(cost, partition_cost(graph, &bank));
    let moves = trace.len() as u64;
    Partition {
        bank,
        cost,
        trace,
        passes: 1,
        moves,
    }
}

/// The historical rescan implementation: recompute every candidate's
/// gain on every iteration. O(v²·moves); kept as the executable
/// specification the bucket version is tested against, and as the
/// baseline for the scaling benchmark.
#[must_use]
pub fn naive_greedy_partition(graph: &InterferenceGraph) -> Partition {
    let nodes = graph.active_nodes();
    let adj = adjacency(graph, &nodes);
    let mut side = vec![Bank::X; nodes.len()];
    let mut cost = graph.total_weight();
    let mut trace = Vec::new();
    loop {
        // gain(v) = (weight to same-set nodes) - (weight to other-set
        // nodes), recomputed from scratch for every X-side candidate.
        let best = (0..nodes.len())
            .filter(|&i| side[i] == Bank::X)
            .map(|i| {
                let mut to_x = 0i64;
                let mut to_y = 0i64;
                for &(j, w) in &adj[i] {
                    match side[j] {
                        Bank::X => to_x += w as i64,
                        Bank::Y => to_y += w as i64,
                    }
                }
                (i, to_x - to_y)
            })
            .max_by_key(|&(_, gain)| gain);
        match best {
            Some((i, gain)) if gain > 0 => {
                side[i] = Bank::Y;
                cost -= gain as u64;
                trace.push(Move {
                    node: nodes[i],
                    gain: gain as u64,
                    cost_after: cost,
                });
            }
            _ => break,
        }
    }
    let bank = assemble_bank(&nodes, &side);
    debug_assert_eq!(cost, partition_cost(graph, &bank));
    let moves = trace.len() as u64;
    Partition {
        bank,
        cost,
        trace,
        passes: 1,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testgraph::{figure4_graph, random_graph, v};
    use super::*;

    #[test]
    fn figure5_greedy_trace() {
        // Paper Figure 5: initial cost 7; moving D drops it to 3; moving
        // C drops it to 2; no further move helps.
        let (g, [a, b, c, d]) = figure4_graph();
        assert_eq!(g.total_weight(), 7);
        let p = greedy_partition(&g);
        assert_eq!(p.trace.len(), 2, "{:?}", p.trace);
        assert_eq!(p.trace[0].node, d);
        assert_eq!(p.trace[0].cost_after, 3);
        assert_eq!(p.trace[1].node, c);
        assert_eq!(p.trace[1].cost_after, 2);
        assert_eq!(p.cost, 2);
        assert_eq!(p.bank_of(a), Bank::X);
        assert_eq!(p.bank_of(b), Bank::X);
        assert_eq!(p.bank_of(c), Bank::Y);
        assert_eq!(p.bank_of(d), Bank::Y);
        assert_eq!(p.passes, 1);
        assert_eq!(p.moves, 2);
    }

    /// The bucket implementation is move-for-move identical to the
    /// historical rescan — banks, cost, and the full Figure-5-style
    /// trace all agree on random graphs.
    #[test]
    fn buckets_match_naive_rescan_exactly() {
        for seed in 0..30u32 {
            let n = 3 + seed % 20;
            let g = random_graph(seed, n);
            let fast = greedy_partition(&g);
            let slow = naive_greedy_partition(&g);
            assert_eq!(fast.trace, slow.trace, "seed {seed}");
            assert_eq!(fast.bank, slow.bank, "seed {seed}");
            assert_eq!(fast.cost, slow.cost, "seed {seed}");
        }
    }

    #[test]
    fn two_nodes_one_edge_split() {
        let mut g = InterferenceGraph::new();
        g.add_edge_weight(v(0), v(1), 5);
        let p = greedy_partition(&g);
        assert_eq!(p.cost, 0);
        assert_ne!(p.bank_of(v(0)), p.bank_of(v(1)));
    }

    #[test]
    fn empty_graph() {
        let g = InterferenceGraph::new();
        let p = greedy_partition(&g);
        assert_eq!(p.cost, 0);
        assert!(p.trace.is_empty());
        assert_eq!(p.moves, 0);
    }

    #[test]
    fn isolated_node_defaults_to_x() {
        let mut g = InterferenceGraph::new();
        g.add_node(v(9));
        let p = greedy_partition(&g);
        assert_eq!(p.bank_of(v(9)), Bank::X);
        // A variable that never appeared at all also reads as X.
        assert_eq!(p.bank_of(v(100)), Bank::X);
    }
}
