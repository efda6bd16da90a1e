//! The simulation outcome memo: each distinct (program, dual-ported,
//! fuel) is simulated once per matrix, an outcome never answers a run
//! with other fuel, and sharing outcomes changes no result and hides no
//! mismatch.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use dsp_backend::{CompileConfig, Strategy};
use dsp_driver::engine::run_job;
use dsp_driver::{ArtifactCache, CacheStats, Engine, EngineOptions, Lookup, SimMemo, SpanCtx};
use dsp_sim::SimError;
use dsp_workloads::runner::{self, RunError};
use dsp_workloads::Benchmark;

fn engine(cache_dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineOptions {
        jobs: 2,
        cache_dir,
        ..EngineOptions::default()
    })
}

/// The distinct (program, dual-ported) pairs behind the suite's cells,
/// read back from `engine`'s cache after a sweep.
fn distinct_programs(engine: &Engine, suite: &[Benchmark]) -> usize {
    let cache = engine.cache();
    let mut seen = HashSet::new();
    for bench in suite {
        let (prep, _) = cache.prepared(&bench.source).unwrap();
        for strategy in Strategy::ALL {
            let profile = matches!(strategy, Strategy::ProfileWeighted | Strategy::SelectiveDup)
                .then(|| cache.profile(&prep).unwrap().0);
            let (artifact, cached, _) = cache
                .artifact(&prep, strategy, CompileConfig::default(), profile)
                .unwrap();
            assert!(cached, "{} [{strategy}] stays cached", bench.name);
            seen.insert((Arc::as_ptr(&artifact.program), strategy.dual_ported()));
        }
    }
    seen.len()
}

fn sim_counts(before: &CacheStats, after: &CacheStats) -> (u64, u64) {
    (
        after.sim_hits - before.sim_hits,
        after.sim_misses - before.sim_misses,
    )
}

#[test]
fn each_distinct_program_is_simulated_once_per_sweep() {
    let suite = dsp_workloads::all();
    let engine = engine(None);
    let cold = engine.run_matrix(&suite, &Strategy::ALL).unwrap();
    // 161 cells, 103 distinct programs: one miss each, the other 58
    // cells find the outcome (or wait for it).
    assert_eq!(sim_counts(&CacheStats::default(), &cold.cache), (58, 103));
    assert_eq!(distinct_programs(&engine, &suite), 103);
    let fresh_cells = cold.jobs.iter().filter(|j| !j.cached.sim).count();
    assert_eq!(fresh_cells, 103, "one job reports each run as its own");

    // Outcomes live for one matrix: a sweep on the warm engine runs
    // every program again, once.
    let warm = engine.run_matrix(&suite, &Strategy::ALL).unwrap();
    assert_eq!(sim_counts(&cold.cache, &warm.cache), (58, 103));
    assert_eq!(cold.deterministic_json(), warm.deterministic_json());
    let simulate = |r: &dsp_driver::RunReport| {
        r.stage_totals()
            .into_iter()
            .find(|(name, _)| *name == "simulate")
            .unwrap()
            .1
    };
    let per_run: std::time::Duration = warm
        .jobs
        .iter()
        .filter(|j| !j.cached.sim)
        .map(|j| j.stages.simulate)
        .sum();
    assert_eq!(simulate(&warm), per_run, "the total counts each run once");
}

#[test]
fn memoized_sweep_reports_the_bytes_of_unmemoized_runs() {
    // Artifacts loaded from a disk store carry no memo slot, so a sweep
    // over a filled store simulates every cell on its own.
    let dir = std::env::temp_dir().join(format!("dualbank-sim-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let suite = dsp_workloads::all();
    let memoized = engine(Some(dir.clone()))
        .run_matrix(&suite, &Strategy::ALL)
        .unwrap();
    let bypassed = engine(Some(dir.clone()))
        .run_matrix(&suite, &Strategy::ALL)
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(memoized.cache.sim_misses, 103);
    assert_eq!(bypassed.cache.disk.unwrap().hits, 161);
    assert_eq!(
        (bypassed.cache.sim_hits, bypassed.cache.sim_misses),
        (0, 161)
    );
    assert_eq!(memoized.deterministic_json(), bypassed.deterministic_json());
}

#[test]
fn an_exhausted_run_never_answers_a_run_with_more_fuel() {
    let bench = dsp_workloads::kernels::fir(16, 4);
    let cache = ArtifactCache::new();
    let sims = SimMemo::default();
    let with_fuel = |fuel| EngineOptions {
        fuel,
        ..EngineOptions::default()
    };
    let run = |fuel| {
        run_job(
            &cache,
            &sims,
            &with_fuel(fuel),
            &bench,
            Strategy::CbPartition,
            SpanCtx::NONE,
        )
    };
    let full = run(EngineOptions::default().fuel).unwrap();
    let cycles = full.measurement.cycles;
    // One cycle short, twice: the second answer is the memoized error.
    for _ in 0..2 {
        match run(cycles - 1) {
            Err(RunError::Sim(SimError::FuelExhausted)) => {}
            other => panic!("expected fuel exhaustion, got {other:?}"),
        }
    }
    assert_eq!(cache.stats().sim_misses, 2);
    // Exactly enough fuel is a new run, and it halts.
    let exact = run(cycles).unwrap();
    assert_eq!(exact.measurement.cycles, cycles);
    assert!(!exact.cached.sim);
    assert_eq!((cache.stats().sim_hits, cache.stats().sim_misses), (1, 3));
}

#[test]
fn a_memo_hit_still_fails_on_an_injected_mismatch() {
    let bench = dsp_workloads::kernels::fir(16, 4);
    let strategy = Strategy::FullDup;
    let cache = ArtifactCache::new();
    let (prep, _) = cache.prepared(&bench.source).unwrap();
    let (artifact, _, _) = cache
        .artifact(&prep, strategy, CompileConfig::default(), None)
        .unwrap();
    let sims = SimMemo::default();
    let fuel = EngineOptions::default().fuel;
    assert_eq!(cache.simulate(&sims, &artifact, fuel).1, Lookup::Miss);
    let (run, lookup) = cache.simulate(&sims, &artifact, fuel);
    assert_eq!(lookup, Lookup::Hit);
    let outcome = run.outcome.as_ref().unwrap();
    let (reference, _, _) = cache.reference(&prep).unwrap();
    runner::verify_sim(&bench, strategy, outcome, reference).unwrap();

    // A reference word that differs from the memoized run is caught.
    let checked = &bench.check_globals[0];
    let mut tampered = reference.clone();
    let words = &mut tampered.iter_mut().find(|(n, _)| n == checked).unwrap().1;
    words[0] = dsp_machine::Word(words[0].0 ^ 1);
    match runner::verify_sim(&bench, strategy, outcome, &tampered) {
        Err(RunError::Mismatch { global, .. }) => assert_eq!(&global, checked),
        other => panic!("expected a mismatch, got {other:?}"),
    }

    // So is a duplicated copy that diverged from its primary.
    let mut diverged = outcome.clone();
    let symbol = diverged
        .symbols
        .iter_mut()
        .find(|s| s.copy.is_some() && bench.check_globals.contains(&s.name))
        .expect("FullDup duplicates a checked global");
    let copy = symbol.copy.as_mut().unwrap();
    copy[0] = dsp_machine::Word(copy[0].0 ^ 1);
    match runner::verify_sim(&bench, strategy, &diverged, reference) {
        Err(RunError::Mismatch { detail, .. }) => assert!(detail.contains("diverged"), "{detail}"),
        other => panic!("expected diverged copies, got {other:?}"),
    }
}
