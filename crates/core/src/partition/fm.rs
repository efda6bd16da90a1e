//! A Fiduccia–Mattheyses-style partitioner: lock-and-pass moves with
//! best-prefix rollback, repeated until a pass fails to improve.
//!
//! Each pass tentatively moves *every* node exactly once, always
//! picking the unlocked node with the maximum gain — even when that
//! gain is negative. Accepting downhill moves is what lets FM climb out
//! of the local minima the one-directional greedy stops in: a bad move
//! can unlock a larger gain two moves later. After the pass, the
//! assignment rolls back to the best prefix of the move sequence (the
//! earliest point where cost was minimal), those moves become
//! permanent, and the next pass starts from there. When a pass's best
//! prefix is empty — no improvement — the algorithm stops.
//!
//! The first pass starts from the all-in-X assignment, so its move
//! sequence begins with exactly the paper's greedy sequence (same
//! gains, same tie-breaks); the best-prefix rule therefore can never
//! return a worse partition than [`greedy_partition`]
//! (greedy's stopping point is one of the candidate prefixes). When
//! greedy's result is already a local optimum of the pass, FM keeps it
//! bit-for-bit — which is what keeps the deterministic sweep
//! projections byte-comparable between the two algorithms on
//! already-easy graphs.
//!
//! [`greedy_partition`]: super::greedy_partition

use dsp_machine::Bank;

use super::{adjacency, assemble_bank, partition_cost, Partition, Partitioner};
use crate::gain::GainBuckets;
use crate::graph::InterferenceGraph;

/// Fiduccia–Mattheyses passes behind the [`Partitioner`] trait.
pub struct Fm;

impl Partitioner for Fm {
    fn name(&self) -> &'static str {
        "fm"
    }

    fn partition(&self, graph: &InterferenceGraph) -> Partition {
        fm_partition(graph)
    }
}

/// Partition with repeated lock-and-pass sweeps (see module docs).
///
/// Work per pass is O((v + E)·log v): each node is popped from the
/// gain buckets once and each edge triggers at most two O(log v)
/// bucket adjustments.
#[must_use]
pub fn fm_partition(graph: &InterferenceGraph) -> Partition {
    let nodes = graph.active_nodes();
    let n = nodes.len();
    let adj = adjacency(graph, &nodes);
    let mut side = vec![Bank::X; n];
    let mut cost = graph.total_weight();
    let mut passes = 0u32;
    let mut moves = 0u64;

    loop {
        passes += 1;
        let mut buckets = GainBuckets::new(n);
        for i in 0..n {
            buckets.insert(i, bidirectional_gain(&adj[i], &side, side[i]));
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut running = cost;
        let mut best_cost = cost;
        let mut best_len = 0usize;
        while let Some((i, gain)) = buckets.pop_best() {
            side[i] = side[i].other();
            // Negative-gain moves are tentative cost *increases*; the
            // running total moves both ways but the kept prefix never
            // ends above the pass's starting cost.
            if gain >= 0 {
                running -= gain as u64;
            } else {
                running += gain.unsigned_abs();
            }
            order.push(i);
            for &(j, w) in &adj[i] {
                let delta = if side[j] == side[i] {
                    2 * w as i64
                } else {
                    -2 * w as i64
                };
                buckets.adjust(j, delta);
            }
            // Strict '<' keeps the *earliest* best prefix: on a graph
            // where greedy is already locally optimal this is exactly
            // greedy's stopping point, preserving byte-compatibility.
            if running < best_cost {
                best_cost = running;
                best_len = order.len();
            }
        }
        for &i in &order[best_len..] {
            side[i] = side[i].other();
        }
        moves += best_len as u64;
        let improved = best_cost < cost;
        cost = best_cost;
        if !improved {
            break;
        }
    }

    let bank = assemble_bank(&nodes, &side);
    debug_assert_eq!(cost, partition_cost(graph, &bank));
    Partition {
        bank,
        cost,
        trace: Vec::new(),
        passes,
        moves,
    }
}

/// Gain of flipping a node to the other bank under the bidirectional
/// rule (positive when most adjacent weight sits in the node's own
/// bank).
fn bidirectional_gain(adj: &[(usize, u64)], side: &[Bank], my_side: Bank) -> i64 {
    let mut same = 0i64;
    let mut other = 0i64;
    for &(j, w) in adj {
        if side[j] == my_side {
            same += w as i64;
        } else {
            other += w as i64;
        }
    }
    same - other
}

#[cfg(test)]
mod tests {
    use super::super::greedy::greedy_partition;
    use super::super::oracle::exhaustive_partition;
    use super::super::testgraph::{figure4_graph, random_graph};
    use super::*;

    #[test]
    fn fm_matches_greedy_on_figure4() {
        // Greedy already finds the optimum of the paper's example; FM
        // must keep that exact assignment (byte-compatibility).
        let (g, _) = figure4_graph();
        let fm = fm_partition(&g);
        let greedy = greedy_partition(&g);
        assert_eq!(fm.cost, 2);
        assert_eq!(fm.bank, greedy.bank);
    }

    #[test]
    fn fm_never_worse_than_greedy_and_tracks_cost() {
        for seed in 0..40u32 {
            let n = 2 + seed % 16;
            let g = random_graph(seed, n);
            let fm = fm_partition(&g);
            let greedy = greedy_partition(&g);
            assert!(fm.cost <= greedy.cost, "seed {seed}");
            assert_eq!(fm.cost, partition_cost(&g, &fm.bank), "seed {seed}");
        }
    }

    #[test]
    fn fm_bounded_by_oracle_on_small_graphs() {
        for seed in 0..20u32 {
            let g = random_graph(seed, 10);
            let fm = fm_partition(&g);
            let exact = exhaustive_partition(&g);
            assert!(exact.cost <= fm.cost, "seed {seed}");
        }
    }

    #[test]
    fn pass_accounting_is_sane() {
        let (g, _) = figure4_graph();
        let fm = fm_partition(&g);
        // At least the improving pass plus the terminating no-improve
        // pass; retained moves match the final assignment (2 nodes in
        // bank Y).
        assert!(fm.passes >= 2, "passes = {}", fm.passes);
        assert_eq!(fm.moves, 2);
        assert!(fm.trace.is_empty());
    }

    #[test]
    fn empty_graph_is_one_quiet_pass() {
        let g = InterferenceGraph::new();
        let fm = fm_partition(&g);
        assert_eq!(fm.cost, 0);
        assert_eq!(fm.passes, 1);
        assert_eq!(fm.moves, 0);
    }
}
