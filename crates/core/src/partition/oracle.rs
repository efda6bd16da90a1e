//! Exhaustive minimum-cost partitioning — the test oracle.

use dsp_machine::Bank;

use super::{assemble_bank, partition_cost, Partition, Partitioner};
use crate::graph::InterferenceGraph;

/// The exhaustive oracle behind the [`Partitioner`] trait. Only for
/// tests and tiny graphs — see [`exhaustive_partition`] for the limit.
pub struct Oracle;

impl Partitioner for Oracle {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn partition(&self, graph: &InterferenceGraph) -> Partition {
        exhaustive_partition(graph)
    }
}

/// Exhaustive minimum-cost partition; exponential, only for graphs of at
/// most 24 active nodes. Used as a test oracle to confirm the paper's
/// observation that the greedy result is near-optimal.
///
/// # Panics
///
/// Panics if the graph has more than 24 active nodes.
#[must_use]
pub fn exhaustive_partition(graph: &InterferenceGraph) -> Partition {
    let nodes = graph.active_nodes();
    assert!(
        nodes.len() <= 24,
        "exhaustive partitioning limited to 24 nodes, got {}",
        nodes.len()
    );
    let n = nodes.len();
    let sides = |mask: u32| -> Vec<Bank> {
        // Fix node 0 in bank X (symmetry) when present.
        (0..n)
            .map(|i| {
                if i > 0 && mask >> (i - 1) & 1 == 1 {
                    Bank::Y
                } else {
                    Bank::X
                }
            })
            .collect()
    };
    let mut best_cost = 0;
    let mut best_mask = 0u32;
    let combos = if n == 0 { 0u32 } else { 1u32 << (n - 1) };
    for mask in 0..combos {
        let cost = partition_cost(graph, &assemble_bank(&nodes, &sides(mask)));
        if mask == 0 || cost < best_cost {
            best_cost = cost;
            best_mask = mask;
        }
    }
    Partition {
        bank: assemble_bank(&nodes, &sides(best_mask)),
        cost: best_cost,
        trace: Vec::new(),
        passes: 1,
        moves: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::super::fm::fm_partition;
    use super::super::greedy::greedy_partition;
    use super::super::testgraph::{figure4_graph, random_graph, v};
    use super::*;

    #[test]
    fn greedy_matches_exhaustive_on_figure4() {
        let (g, _) = figure4_graph();
        let greedy = greedy_partition(&g);
        let exact = exhaustive_partition(&g);
        assert_eq!(greedy.cost, exact.cost);
    }

    #[test]
    fn triangle_cannot_be_fully_satisfied() {
        let mut g = InterferenceGraph::new();
        g.add_edge_weight(v(0), v(1), 1);
        g.add_edge_weight(v(1), v(2), 1);
        g.add_edge_weight(v(0), v(2), 1);
        let p = greedy_partition(&g);
        assert_eq!(p.cost, 1); // one edge must stay intra-bank
        assert_eq!(exhaustive_partition(&g).cost, 1);
    }

    #[test]
    fn empty_graph() {
        let g = InterferenceGraph::new();
        let exact = exhaustive_partition(&g);
        assert_eq!(exact.cost, 0);
        assert_eq!(exact.moves, 0);
    }

    #[test]
    fn oracle_bounds_the_heuristics() {
        for seed in 0..20u32 {
            let g = random_graph(seed, 8);
            let exact = exhaustive_partition(&g);
            assert!(exact.cost <= fm_partition(&g).cost, "seed {seed}");
            assert!(exact.cost <= greedy_partition(&g).cost, "seed {seed}");
        }
    }
}
