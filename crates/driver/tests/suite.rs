//! The paper's full matrix through the engine: every benchmark × every
//! strategy executes on the simulator and matches the reference
//! interpreter word for word, the headline *shapes* of the paper's
//! results hold, and every cell's statistics match the golden fixture.
//!
//! One sweep serves every test in this file; the engine verifies each
//! cell against the reference interpreter while it runs.

use std::path::Path;
use std::sync::OnceLock;

use dsp_backend::Strategy;
use dsp_driver::{Engine, RunReport};
use dsp_workloads::{all, corpus, Kind};

const FIXTURE: &str = include_str!("golden/sim_stats.txt");

fn suite() -> &'static RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        Engine::default()
            .run_suite(&Strategy::ALL)
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

fn cycles_of(bench: &str, s: Strategy) -> u64 {
    suite().job(bench, s).expect("measured").measurement.cycles
}

fn gain(base: u64, opt: u64) -> f64 {
    (base as f64 / opt as f64 - 1.0) * 100.0
}

/// Every benchmark, every strategy: correct execution (the comparison
/// against the interpreter happens inside the engine's verify stage).
#[test]
fn entire_suite_is_correct_under_every_strategy() {
    assert_eq!(suite().jobs.len(), 23 * Strategy::ALL.len());
    for bench in all() {
        let base = cycles_of(&bench.name, Strategy::Baseline);
        let ideal = cycles_of(&bench.name, Strategy::Ideal);
        assert!(
            ideal <= base,
            "{}: Ideal ({ideal}) must not lose to baseline ({base})",
            bench.name
        );
        for &s in &Strategy::ALL {
            let cycles = cycles_of(&bench.name, s);
            // Ideal (dual-ported memory) is a *near* lower bound: the
            // greedy list scheduler follows a descendant-count priority
            // heuristic, and CB's forced bank diversity occasionally
            // steers it to a slightly better schedule than the fully
            // flexible Ideal claims do (observed on iir_4_64, ~12 %).
            // No scheme may beat Ideal by more than that heuristic
            // noise.
            assert!(
                (cycles as f64) * 1.15 + 2.0 >= ideal as f64,
                "{} [{s}]: {cycles} cycles far below the Ideal bound {ideal}",
                bench.name
            );
        }
    }
}

/// Figure 7's shape: CB partitioning helps every kernel and lands at or
/// near the dual-ported ideal.
#[test]
fn kernels_gain_substantially_and_cb_tracks_ideal() {
    let mut cb_gains = Vec::new();
    for bench in all().into_iter().filter(|b| b.kind == Kind::Kernel) {
        let base = cycles_of(&bench.name, Strategy::Baseline);
        let cb = cycles_of(&bench.name, Strategy::CbPartition);
        let ideal = cycles_of(&bench.name, Strategy::Ideal);
        let g_cb = gain(base, cb);
        let g_ideal = gain(base, ideal);
        assert!(
            cb < base,
            "{}: CB must improve on the baseline ({cb} vs {base})",
            bench.name
        );
        // CB reaches most of the ideal headroom on kernels.
        assert!(
            g_cb >= 0.5 * g_ideal,
            "{}: CB gain {g_cb:.1}% too far from ideal {g_ideal:.1}%",
            bench.name
        );
        cb_gains.push(g_cb);
    }
    let avg = cb_gains.iter().sum::<f64>() / cb_gains.len() as f64;
    assert!(
        avg >= 10.0,
        "average kernel gain should be well into double digits, got {avg:.1}%"
    );
}

/// The paper's \"no parallelism\" group: histogram and the three G721
/// codecs gain (almost) nothing even with a dual-ported memory.
#[test]
fn serial_applications_gain_nothing() {
    for name in ["histogram", "G721MLencode", "G721MLdecode", "G721WFencode"] {
        let base = cycles_of(name, Strategy::Baseline);
        let ideal = cycles_of(name, Strategy::Ideal);
        let g = gain(base, ideal);
        assert!(
            g < 5.0,
            "{name}: ideal gain should be marginal, got {g:.1}%"
        );
    }
}

/// The lpc story (paper §4.1): partitioning alone gains little because
/// the autocorrelation reads one array twice; partial duplication
/// recovers most of the ideal gain.
#[test]
fn lpc_needs_duplication() {
    let base = cycles_of("lpc", Strategy::Baseline);
    let cb = cycles_of("lpc", Strategy::CbPartition);
    let dup = cycles_of("lpc", Strategy::PartialDup);
    let ideal = cycles_of("lpc", Strategy::Ideal);
    let (g_cb, g_dup, g_ideal) = (gain(base, cb), gain(base, dup), gain(base, ideal));
    assert!(
        g_dup > g_cb + 5.0,
        "duplication must clearly beat CB: dup {g_dup:.1}% vs cb {g_cb:.1}%"
    );
    assert!(
        g_dup >= 0.6 * g_ideal,
        "duplication should recover most of ideal: {g_dup:.1}% vs {g_ideal:.1}%"
    );
}

/// Duplication actually duplicates on exactly the programs the paper
/// names (lpc, spectral, V32encode among the applications).
#[test]
fn duplication_candidates_match_the_paper() {
    for bench in all().into_iter().filter(|b| b.kind == Kind::Application) {
        let m = &suite()
            .job(&bench.name, Strategy::PartialDup)
            .expect("measured")
            .measurement;
        let expect_dup = matches!(bench.name.as_str(), "lpc" | "spectral" | "V32encode");
        assert_eq!(
            m.duplicated_vars > 0,
            expect_dup,
            "{}: duplicated {} variables",
            bench.name,
            m.duplicated_vars
        );
    }
}

/// Full duplication is never cheaper than partial duplication in
/// memory, and partial duplication's cost stays close to CB's
/// (Table 3's cost columns).
#[test]
fn duplication_cost_ordering() {
    for name in ["lpc", "spectral", "V32encode", "edge_detect"] {
        let cost = |s: Strategy| {
            suite()
                .job(name, s)
                .expect("measured")
                .measurement
                .memory_cost
        };
        assert!(
            cost(Strategy::FullDup) >= cost(Strategy::PartialDup),
            "{name}: full-dup memory must dominate partial"
        );
        assert!(
            cost(Strategy::PartialDup) >= cost(Strategy::CbPartition),
            "{name}: partial-dup memory must not undercut CB"
        );
    }
}

/// Golden statistics: every field of `SimStats` for every cell of the
/// matrix, together with the cell's memory cost, static bank words,
/// instruction words and duplicated-variable count, pinned byte for
/// byte.
///
/// The per-unit operation counts and the per-bank stack high-water
/// marks appear in no other fixture, so this file is what holds the
/// simulator's bookkeeping still when its inner loop changes. A
/// deliberate change to a schedule or to a benchmark changes these
/// lines; the failure message prints the complete new fixture.
#[test]
fn sim_stats_match_the_golden_fixture() {
    let mut actual = String::new();
    for job in &suite().jobs {
        let m = &job.measurement;
        let s = &m.stats;
        let units: Vec<String> = s.unit_ops.iter().map(u64::to_string).collect();
        actual.push_str(&format!(
            "{} {} cycles={} ops={} loads={} stores={} dual_mem={} bank_conflict={} \
             stack_x={} stack_y={} unit_ops={} mem={} static={},{} inst={} dup={}\n",
            job.bench,
            job.strategy,
            s.cycles,
            s.ops,
            s.loads,
            s.stores,
            s.dual_mem_cycles,
            s.bank_conflict_cycles,
            s.max_stack_x,
            s.max_stack_y,
            units.join(","),
            m.memory_cost,
            m.static_words.0,
            m.static_words.1,
            m.inst_words,
            m.duplicated_vars,
        ));
    }
    assert_eq!(actual.lines().count(), 23 * 7, "the full matrix");
    if actual != FIXTURE {
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, e)| a != e)
            .map_or_else(
                || "line counts differ".to_string(),
                |(a, e)| format!("expected `{e}`\n     got `{a}`"),
            );
        panic!(
            "simulator statistics drifted from tests/golden/sim_stats.txt\n{first}\n\
             --- complete actual fixture ---\n{actual}"
        );
    }
}

/// A benchmark loaded from a corpus source file runs through the engine
/// like a suite benchmark.
#[test]
fn corpus_benchmarks_run_through_the_harness() {
    let b = corpus::benchmark_from_source(
        "sum",
        "int A[4] = {1, 2, 3, 4}; int out;
         void main() { int i; out = 0; for (i = 0; i < 4; i++) out += A[i]; }",
        Path::new("sum.dsp"),
    )
    .unwrap();
    let report = Engine::default()
        .run_matrix(&[b], &[Strategy::CbPartition])
        .unwrap();
    assert!(report.jobs[0].measurement.cycles > 0);
}
