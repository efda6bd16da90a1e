//! Serial/parallel equivalence: a `jobs = 4` run of the full
//! 23-benchmark × 7-strategy matrix must be bit-identical to `jobs = 1`
//! in every deterministic field — cycle counts, partitions, memory
//! costs, simulator counters — and the cache totals must aggregate
//! order-independently.

use std::sync::Arc;

use dsp_backend::Strategy;
use dsp_driver::{Engine, EngineOptions, Executor, RunReport};

/// Every deterministic field of a job, in matrix order. Wall times and
/// per-job cache flags are excluded by construction — they are the only
/// schedule-dependent parts of a report.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    bench: String,
    strategy: &'static str,
    cycles: u64,
    memory_cost: u64,
    static_words: (u32, u32),
    stack_words: u32,
    inst_words: u32,
    partition_cost: u64,
    duplicated_vars: usize,
    duplicated_words: u64,
    ops: u64,
    loads: u64,
    stores: u64,
    dual_mem_cycles: u64,
    bank_conflict_cycles: u64,
}

fn fingerprints(report: &RunReport) -> Vec<Fingerprint> {
    report
        .jobs
        .iter()
        .map(|j| Fingerprint {
            bench: j.bench.clone(),
            strategy: j.strategy.label(),
            cycles: j.measurement.cycles,
            memory_cost: j.measurement.memory_cost,
            static_words: j.measurement.static_words,
            stack_words: j.measurement.stack_words,
            inst_words: j.measurement.inst_words,
            partition_cost: j.partition_cost,
            duplicated_vars: j.measurement.duplicated_vars,
            duplicated_words: j.duplicated_words,
            ops: j.measurement.stats.ops,
            loads: j.measurement.stats.loads,
            stores: j.measurement.stats.stores,
            dual_mem_cycles: j.measurement.stats.dual_mem_cycles,
            bank_conflict_cycles: j.measurement.stats.bank_conflict_cycles,
        })
        .collect()
}

fn engine(jobs: usize) -> Engine {
    Engine::new(EngineOptions {
        jobs,
        ..EngineOptions::default()
    })
}

#[test]
fn full_sweep_parallel_matches_serial() {
    let serial = engine(1)
        .run_suite(&Strategy::ALL)
        .expect("serial sweep succeeds");
    let parallel = engine(4)
        .run_suite(&Strategy::ALL)
        .expect("parallel sweep succeeds");

    assert_eq!(serial.jobs.len(), 23 * Strategy::ALL.len());
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 4);

    // Bit-identical deterministic fields, in identical (matrix) order.
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));

    // Cache accounting is order-independent: per-layer totals match
    // exactly even though which job hit/missed differs per schedule.
    assert_eq!(serial.cache, parallel.cache);
}

#[test]
fn sweep_through_shared_executor_matches_serial() {
    // The dsp-serve deployment shape: one machine-sized executor shared
    // by everything that computes. A sweep submitted through it must be
    // bit-identical to a private serial engine, and its per-worker
    // telemetry must show the whole pool participating.
    let serial = engine(1)
        .run_matrix(&dsp_workloads::all()[..8], &Strategy::ALL)
        .expect("serial sweep succeeds");

    let exec = Arc::new(Executor::new(4));
    let shared = Engine::with_executor(EngineOptions::default(), Arc::clone(&exec));
    let report = shared
        .run_matrix(&dsp_workloads::all()[..8], &Strategy::ALL)
        .expect("shared-executor sweep succeeds");

    assert_eq!(report.workers, 4);
    assert_eq!(fingerprints(&serial), fingerprints(&report));
    assert_eq!(serial.cache, report.cache);

    let stats = exec.stats();
    assert_eq!(stats.executed_batch, 8 * Strategy::ALL.len() as u64);
    assert!(
        stats.per_worker_executed.iter().all(|&n| n > 0),
        "every executor worker must have run jobs: {:?}",
        stats.per_worker_executed
    );
}

#[test]
fn repeated_sweep_on_one_engine_is_stable_and_cached() {
    let eng = engine(3);
    let benches = dsp_workloads::all();
    let first = eng
        .run_matrix(&benches[..6], &Strategy::ALL)
        .expect("first sweep");
    let second = eng
        .run_matrix(&benches[..6], &Strategy::ALL)
        .expect("second sweep");
    assert_eq!(fingerprints(&first), fingerprints(&second));
    // The second sweep compiled nothing: artifact misses did not grow.
    assert_eq!(first.cache.artifact_misses, second.cache.artifact_misses);
    assert!(second.cache.artifact_hits >= first.cache.artifact_misses);
}
