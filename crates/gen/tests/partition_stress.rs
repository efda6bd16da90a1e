//! Differential test of the partitioners on generated programs.
//!
//! The `partition-stress` bias exists to produce interference graphs
//! with real bank-assignment decisions (many arrays, dense
//! same-statement access pairs). This test closes the loop: generate
//! biased programs, build each one's interference graph exactly the way
//! the backend does, and check the algorithm hierarchy on it —
//!
//! * FM never does worse than the paper's greedy,
//! * the exhaustive oracle never does worse than FM (on graphs small
//!   enough to enumerate), and
//! * every algorithm's incrementally-maintained cost equals the cost
//!   recomputed from scratch over its final bank assignment.

use dsp_bankalloc::{
    build_interference, exhaustive_partition, fm_partition, greedy_partition, partition_cost,
    AliasClasses, InterferenceGraph, WeightMode,
};
use dsp_gen::{generate_source, Bias, GenConfig};

/// The interference graph of one generated program, built with the
/// backend's own pipeline (front-end → alias classes → trial
/// compaction with loop-depth weights).
fn graph_of(seed: u64, cfg: &GenConfig) -> InterferenceGraph {
    let src = generate_source(seed, cfg);
    let ir = dsp_frontend::compile_str(&src)
        .unwrap_or_else(|e| panic!("seed {seed} fails front-end: {e}\n{src}"));
    let alias = AliasClasses::build(&ir);
    build_interference(&ir, &alias, WeightMode::LoopDepth).graph
}

fn stress_config() -> GenConfig {
    GenConfig {
        bias: Bias::PartitionStress,
        ..GenConfig::default()
    }
}

#[test]
fn stress_bias_produces_graphs_with_edges() {
    // The bias must earn its keep: a healthy majority of generated
    // programs yield a non-trivial partitioning problem.
    let cfg = stress_config();
    let with_edges = (0..40)
        .filter(|&s| graph_of(s, &cfg).edge_count() > 0)
        .count();
    assert!(
        with_edges >= 30,
        "only {with_edges}/40 stress programs produced interference edges"
    );
}

#[test]
fn fm_never_worse_than_greedy_on_generated_programs() {
    let cfg = stress_config();
    for seed in 0..60 {
        let g = graph_of(seed, &cfg);
        let greedy = greedy_partition(&g);
        let fm = fm_partition(&g);
        assert!(
            fm.cost <= greedy.cost,
            "seed {seed}: fm {} > greedy {}",
            fm.cost,
            greedy.cost
        );
    }
}

#[test]
fn oracle_bounds_fm_on_enumerable_graphs() {
    let cfg = stress_config();
    let mut checked = 0;
    for seed in 0..60 {
        let g = graph_of(seed, &cfg);
        if g.active_nodes().len() > 20 {
            continue; // exhaustive enumeration too large; skip
        }
        let fm = fm_partition(&g);
        let exact = exhaustive_partition(&g);
        assert!(
            exact.cost <= fm.cost,
            "seed {seed}: oracle {} > fm {}",
            exact.cost,
            fm.cost
        );
        checked += 1;
    }
    assert!(
        checked >= 10,
        "only {checked}/60 stress graphs were small enough to enumerate"
    );
}

#[test]
fn incremental_cost_matches_recomputation() {
    let cfg = stress_config();
    for seed in 0..40 {
        let g = graph_of(seed, &cfg);
        for part in [greedy_partition(&g), fm_partition(&g)] {
            assert_eq!(
                part.cost,
                partition_cost(&g, &part.bank),
                "seed {seed}: incremental cost diverged from recomputation"
            );
        }
    }
}
