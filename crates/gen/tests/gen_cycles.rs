//! Simulated cycles of generated programs under every strategy, pinned
//! to a golden fixture.
//!
//! `crates/driver/tests/golden/sim_stats.txt` holds the 23 suite
//! programs still; this fixture does the same for unseen code, in the
//! shape of the `gen-cold` workload: 40 seeded `dsp-gen` programs, each
//! swept over the seven strategies by the engine, which verifies every
//! cell against the reference interpreter. A scheduler or allocator
//! change that moves one schedule moves a line here; the failure
//! message prints the complete new fixture.
//!
//! The same programs, with the 23 suite programs, also pin the
//! optimizer's output: `crates/driver/tests/golden/opt_ir.txt` holds an
//! FNV-1a digest of each program's optimized IR text. A change to an
//! optimizer pass that must not change its output is checked there,
//! before any cycle count could hide or repeat the difference.

use std::path::Path;

use dsp_backend::Strategy;
use dsp_driver::Engine;
use dsp_gen::rng::Rng;
use dsp_gen::{generate_source, GenConfig};
use dsp_trace::fnv1a;
use dsp_workloads::{corpus, runner, Benchmark};

const FIXTURE: &str = include_str!("golden/gen_cycles.txt");

const OPT_IR_FIXTURE: &str = include_str!("../../driver/tests/golden/opt_ir.txt");

/// Seed of the program stream.
const SEED: u64 = 2;

/// Programs in the fixture (as many as one `gen-cold` sweep).
const PROGRAMS: usize = 40;

/// The fixture's programs, each tagged with its generator seed.
/// Programs whose reference run leaves a NaN in a checked global are
/// skipped, as `gen-cold` does: a NaN's bit pattern is not defined by
/// the source language.
fn programs() -> Vec<(u64, Benchmark)> {
    let mut rng = Rng::new(SEED);
    let config = GenConfig::default();
    let mut out = Vec::new();
    while out.len() < PROGRAMS {
        let seed = rng.next_u64();
        let name = format!("gen-{}", out.len());
        let source = generate_source(seed, &config);
        let bench = corpus::benchmark_from_source(&name, &source, Path::new(&name))
            .unwrap_or_else(|e| panic!("{name} (seed {seed:#x}): {e}"));
        let ir = runner::frontend(&bench).unwrap_or_else(|e| panic!("{name}: {e}"));
        let globals = runner::reference_globals(&ir).unwrap_or_else(|e| panic!("{name}: {e}"));
        let nan = globals
            .iter()
            .filter(|(g, _)| bench.check_globals.contains(g))
            .flat_map(|(_, words)| words)
            .any(|w| w.as_f32().is_nan());
        if !nan {
            out.push((seed, bench));
        }
    }
    out
}

/// Panic with the first differing line and the complete new fixture.
fn assert_fixture(actual: &str, expected: &str, path: &str) {
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map_or_else(
                || "line counts differ".to_string(),
                |(a, e)| format!("expected `{e}`\n     got `{a}`"),
            );
        panic!("{path} drifted\n{first}\n--- complete actual fixture ---\n{actual}");
    }
}

#[test]
fn optimized_ir_matches_the_golden_fixture() {
    let line = |name: &str, bench: &Benchmark| {
        let mut ir = runner::frontend(bench).unwrap_or_else(|e| panic!("{name}: {e}"));
        dsp_backend::opt::optimize(&mut ir);
        format!("{name} opt_ir={:016x}\n", fnv1a(ir.dump().as_bytes()))
    };
    let mut actual = String::new();
    for bench in dsp_workloads::all() {
        actual.push_str(&line(&bench.name, &bench));
    }
    for (seed, bench) in &programs() {
        actual.push_str(&line(&format!("{} {seed:#018x}", bench.name), bench));
    }
    assert_eq!(actual.lines().count(), 23 + PROGRAMS);
    assert_fixture(
        &actual,
        OPT_IR_FIXTURE,
        "crates/driver/tests/golden/opt_ir.txt",
    );
}

#[test]
fn generated_program_cycles_match_the_golden_fixture() {
    let programs = programs();
    let benches: Vec<Benchmark> = programs.iter().map(|(_, b)| b.clone()).collect();
    let report = Engine::default()
        .run_matrix(&benches, &Strategy::ALL)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut actual = String::new();
    for (seed, bench) in &programs {
        for &s in &Strategy::ALL {
            let job = report.job(&bench.name, s).expect("every cell measured");
            actual.push_str(&format!(
                "{} {seed:#018x} {s} cycles={}\n",
                bench.name, job.measurement.cycles
            ));
        }
    }
    assert_eq!(actual.lines().count(), PROGRAMS * Strategy::ALL.len());
    assert_fixture(
        &actual,
        FIXTURE,
        "generated-program cycles (tests/golden/gen_cycles.txt)",
    );
}
