//! Cache-layer behavior: hit/miss accounting, invalidation on source
//! and config changes, and isolation between strategies.

use std::num::NonZeroUsize;
use std::sync::Barrier;

use dsp_backend::{CompileConfig, Strategy};
use dsp_driver::{ArtifactCache, Engine, EngineOptions, Lookup};

const SRC_A: &str = "float A[8] = {1,2,3,4,5,6,7,8};
                     float B[8] = {8,7,6,5,4,3,2,1};
                     float out;
                     void main() {
                       int i; float acc; acc = 0.0;
                       for (i = 0; i < 8; i++) acc += A[i] * B[i];
                       out = acc;
                     }";

/// Same program with one changed initializer — different content hash.
const SRC_B: &str = "float A[8] = {1,2,3,4,5,6,7,9};
                     float B[8] = {8,7,6,5,4,3,2,1};
                     float out;
                     void main() {
                       int i; float acc; acc = 0.0;
                       for (i = 0; i < 8; i++) acc += A[i] * B[i];
                       out = acc;
                     }";

#[test]
fn sweep_compiles_each_pair_exactly_once() {
    let cache = ArtifactCache::new();
    for _round in 0..3 {
        for strategy in Strategy::ALL {
            let (prep, _) = cache.prepared(SRC_A).expect("prepare");
            let profile = match strategy {
                Strategy::ProfileWeighted | Strategy::SelectiveDup => {
                    Some(cache.profile(&prep).expect("profile").0)
                }
                _ => None,
            };
            cache
                .artifact(&prep, strategy, CompileConfig::default(), profile)
                .expect("compile");
        }
    }
    let stats = cache.stats();
    // One source, three rounds: 1 prepared miss, 20 hits.
    assert_eq!(stats.prepared_misses, 1);
    assert_eq!(stats.prepared_hits, 20);
    // One profiling run shared by Pr and SelDup across all rounds.
    assert_eq!(stats.profile_misses, 1);
    assert_eq!(stats.profile_hits, 5);
    // Seven artifacts compiled once each; rounds 2 and 3 fully cached.
    assert_eq!(stats.artifact_misses, 7);
    assert_eq!(stats.artifact_hits, 14);
    assert!(stats.hit_rate() > 0.8);
}

/// Race `THREADS` callers of one once-per-source lookup from behind a
/// barrier: exactly one computes (`Miss`), so every other caller is a
/// `Hit` or a `Wait`, and a later call is a plain `Hit`.
fn assert_one_miss_under_contention(what: &str, lookup: impl Fn() -> Lookup + Sync) {
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    let lookups: Vec<Lookup> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    lookup()
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("lookup thread"))
            .collect()
    });
    let misses = lookups.iter().filter(|l| **l == Lookup::Miss).count();
    assert_eq!(
        misses, 1,
        "{what}: exactly one caller computes: {lookups:?}"
    );
    assert_eq!(lookup(), Lookup::Hit, "{what}: a later lookup is a hit");
}

#[test]
fn concurrent_lookups_compute_once_and_tag_the_rest_hit_or_wait() {
    let cache = ArtifactCache::new();
    assert_one_miss_under_contention("prepared", || cache.prepared(SRC_A).expect("prepare").1);
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    assert_one_miss_under_contention("reference", || cache.reference(&prep).expect("reference").2);
    let stats = cache.stats();
    assert_eq!((stats.prepared_misses, stats.reference_misses), (1, 1));
}

#[test]
fn source_change_invalidates_artifacts() {
    let cache = ArtifactCache::new();
    let (prep_a, _) = cache.prepared(SRC_A).unwrap();
    let (prep_b, _) = cache.prepared(SRC_B).unwrap();
    let (art_a, hit_a, _) = cache
        .artifact(
            &prep_a,
            Strategy::CbPartition,
            CompileConfig::default(),
            None,
        )
        .unwrap();
    let (art_b, hit_b, _) = cache
        .artifact(
            &prep_b,
            Strategy::CbPartition,
            CompileConfig::default(),
            None,
        )
        .unwrap();
    assert!(!hit_a && !hit_b, "distinct sources must both miss");
    assert_eq!(cache.stats().prepared_misses, 2);
    assert_eq!(cache.stats().artifact_misses, 2);
    // The compiled data differs where the source differs.
    assert!(
        art_a.program.x_image.init != art_b.program.x_image.init
            || art_a.program.y_image.init != art_b.program.y_image.init,
        "changed initializer must change a data image"
    );
}

#[test]
fn config_change_invalidates_artifacts() {
    let cache = ArtifactCache::new();
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    let plain = CompileConfig::default();
    let safe = CompileConfig {
        interrupt_safe_dup: true,
        ..CompileConfig::default()
    };
    let (_, hit1, _) = cache
        .artifact(&prep, Strategy::PartialDup, plain, None)
        .unwrap();
    let (_, hit2, _) = cache
        .artifact(&prep, Strategy::PartialDup, safe, None)
        .unwrap();
    let (_, hit3, _) = cache
        .artifact(&prep, Strategy::PartialDup, plain, None)
        .unwrap();
    assert!(!hit1, "first config is a miss");
    assert!(!hit2, "changed config must recompile");
    assert!(hit3, "original config is still cached");
    // The shared front half is reused across configs.
    assert_eq!(cache.stats().prepared_misses, 1);
}

#[test]
fn no_cross_strategy_contamination() {
    let cache = ArtifactCache::new();
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    let mut outputs = Vec::new();
    for strategy in Strategy::ALL {
        let profile = match strategy {
            Strategy::ProfileWeighted | Strategy::SelectiveDup => {
                Some(cache.profile(&prep).expect("profile").0)
            }
            _ => None,
        };
        let (art, hit, _) = cache
            .artifact(&prep, strategy, CompileConfig::default(), profile)
            .unwrap();
        assert!(!hit, "each strategy is its own cache entry");
        outputs.push(art);
    }
    for (art, strategy) in outputs.iter().zip(Strategy::ALL) {
        assert_eq!(art.strategy, strategy, "artifact carries its own strategy");
    }
    // The strategies genuinely differ in output: the baseline puts
    // everything in X; CB splits the banks.
    let base = &outputs[0].program;
    let cb = &outputs[1].program;
    assert_eq!(base.y_static_words, 0);
    assert!(cb.y_static_words > 0);
}

#[test]
fn engine_byte_budget_bounds_the_cache() {
    // First measure how big one source's footprint is, then give an
    // engine a budget that holds roughly one source and sweep two:
    // eviction must kick in, and the resident estimate must respect
    // the budget (the cache only keeps one over-budget entry).
    let probe = Engine::new(EngineOptions {
        jobs: 1,
        ..EngineOptions::default()
    });
    let bench_a = dsp_workloads::kernels::fir(16, 4);
    let bench_b = dsp_workloads::kernels::iir(8, 16);
    probe
        .run_matrix(std::slice::from_ref(&bench_a), &Strategy::ALL)
        .unwrap();
    let one_source = probe.cache().stats().resident_bytes();

    let eng = Engine::new(EngineOptions {
        jobs: 1,
        cache_max_bytes: Some(one_source / 2),
        ..EngineOptions::default()
    });
    eng.run_matrix(
        &[bench_a, bench_b],
        &[Strategy::Baseline, Strategy::CbPartition],
    )
    .unwrap();
    let stats = eng.cache().stats();
    assert!(stats.evictions() > 0, "budget must force evictions");
    assert!(stats.evicted_bytes() > 0);
    let (prepared_resident, artifact_resident) = eng.cache().resident_bytes();
    // Each layer may retain one over-budget entry; beyond that the
    // budget holds.
    assert!(
        prepared_resident <= one_source && artifact_resident <= one_source,
        "resident estimate must stay near the budget \
         ({prepared_resident} + {artifact_resident} vs {one_source})"
    );
}

#[test]
fn small_entry_capacity_prepares_each_source_once() {
    // A bounded cache must still hold a source while its row runs:
    // evicting it between its first cell and a sibling would parse,
    // profile and run the reference again.
    let benches = &dsp_workloads::all()[..8];
    let sweep = |cache_capacity| {
        let engine = Engine::new(EngineOptions {
            jobs: 2,
            cache_capacity,
            ..EngineOptions::default()
        });
        engine.run_matrix(benches, &Strategy::ALL).expect("sweep")
    };
    let unbounded = sweep(None).deterministic_json();
    for capacity in 3..=6 {
        let report = sweep(NonZeroUsize::new(capacity));
        let stats = report.cache;
        assert_eq!(
            (
                stats.prepared_misses,
                stats.profile_misses,
                stats.reference_misses
            ),
            (8, 8, 8),
            "capacity {capacity}: one prepare, profile and reference run per source"
        );
        assert_eq!(
            report.deterministic_json(),
            unbounded,
            "capacity {capacity}: same projection as an unbounded sweep"
        );
    }
}

#[test]
fn engine_reports_hits_on_repeated_run() {
    // Acceptance check: repeating a sweep on one engine serves every
    // compile from cache — hit rate strictly positive and higher than
    // the first pass.
    let eng = Engine::new(EngineOptions {
        jobs: 2,
        ..EngineOptions::default()
    });
    let bench = dsp_workloads::kernels::fir(16, 4);
    let first = eng
        .run_matrix(std::slice::from_ref(&bench), &Strategy::ALL)
        .unwrap();
    let rate_first = first.cache.hit_rate();
    let second = eng.run_matrix(&[bench], &Strategy::ALL).unwrap();
    let rate_second = second.cache.hit_rate();
    assert!(rate_first > 0.0, "shared stages hit within one sweep");
    assert!(
        rate_second > rate_first,
        "repeat run must raise the hit rate ({rate_first} -> {rate_second})"
    );
    assert_eq!(
        first.cache.artifact_misses, second.cache.artifact_misses,
        "repeat run compiles nothing new"
    );
}

/// Sweep every strategy of `source` under `config`, returning the
/// artifacts in [`Strategy::ALL`] order.
fn sweep_artifacts(
    cache: &ArtifactCache,
    source: &str,
    config: CompileConfig,
) -> Vec<std::sync::Arc<dsp_driver::CompiledArtifact>> {
    let (prep, _) = cache.prepared(source).expect("prepare");
    Strategy::ALL
        .iter()
        .map(|&strategy| {
            let profile = matches!(strategy, Strategy::ProfileWeighted | Strategy::SelectiveDup)
                .then(|| cache.profile(&prep).expect("profile").0);
            cache
                .artifact(&prep, strategy, config, profile)
                .expect("compile")
                .0
        })
        .collect()
}

fn count(
    artifacts: &[std::sync::Arc<dsp_driver::CompiledArtifact>],
    what: impl Fn(&dsp_backend::Reuse) -> Option<Lookup>,
    lookup: Lookup,
) -> usize {
    artifacts
        .iter()
        .filter(|a| what(&a.reuse) == Some(lookup))
        .count()
}

#[test]
fn one_trial_and_one_regalloc_per_source_and_one_back_end_per_assignment() {
    let cache = ArtifactCache::new();
    let artifacts = sweep_artifacts(&cache, SRC_A, CompileConfig::default());
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    // Five partitioning strategies, one trial compaction.
    assert_eq!(count(&artifacts, |r| r.trial, Lookup::Miss), 1);
    assert_eq!(count(&artifacts, |r| r.trial, Lookup::Hit), 4);
    // Baseline and Ideal never ask for it.
    assert_eq!(artifacts[0].reuse.trial, None);
    assert_eq!(artifacts[6].reuse.trial, None);
    // Register allocation runs in the first back end only.
    assert_eq!(count(&artifacts, |r| r.regalloc, Lookup::Miss), 1);
    // One back end per distinct key; equal keys share one program.
    let built = count(&artifacts, |r| r.backend, Lookup::Miss);
    assert_eq!(built, prep.memo.backend_keys());
    assert!(built < Strategy::ALL.len(), "some strategies share a key");
    let mut programs: Vec<*const dsp_machine::VliwProgram> = artifacts
        .iter()
        .map(|a| std::sync::Arc::as_ptr(&a.program))
        .collect();
    programs.sort_unstable();
    programs.dedup();
    assert_eq!(programs.len(), built);
    assert_eq!(
        cache.stats().artifact_misses,
        7,
        "the artifact layer is per strategy"
    );

    // Another configuration reuses the trial and the registers.
    let safe = CompileConfig {
        interrupt_safe_dup: true,
        ..CompileConfig::default()
    };
    let again = sweep_artifacts(&cache, SRC_A, safe);
    assert_eq!(count(&again, |r| r.trial, Lookup::Miss), 0);
    assert_eq!(count(&again, |r| r.regalloc, Lookup::Miss), 0);
}

#[test]
fn a_lone_base_or_ideal_compile_runs_no_trial() {
    let cache = ArtifactCache::new();
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    let cfg = CompileConfig::default();
    for strategy in [Strategy::Baseline, Strategy::Ideal] {
        let (artifact, _, _) = cache.artifact(&prep, strategy, cfg, None).unwrap();
        assert_eq!(artifact.reuse.trial, None, "{strategy}");
        assert!(artifact.timings.trial_compaction.is_zero());
    }
    let (cb, _, _) = cache
        .artifact(&prep, Strategy::CbPartition, cfg, None)
        .unwrap();
    assert_eq!(cb.reuse.trial, Some(Lookup::Miss));
}

#[test]
fn evicted_artifacts_leave_no_program_pinned_by_the_memo() {
    // A byte budget that holds one artifact: each compile evicts the
    // previous one, and with it the last strong reference to its
    // program — the source's memo keeps only a weak one.
    let cache = ArtifactCache::with_limits(None, Some(1));
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    let cfg = CompileConfig::default();
    let (base, _, _) = cache
        .artifact(&prep, Strategy::Baseline, cfg, None)
        .unwrap();
    let base_program = std::sync::Arc::downgrade(&base.program);
    drop(base);
    let (cb, _, _) = cache
        .artifact(&prep, Strategy::CbPartition, cfg, None)
        .unwrap();
    assert_eq!(cb.reuse.backend, Some(Lookup::Miss), "FIR splits A and B");
    assert_eq!(cache.stats().artifact_evictions, 1);
    assert!(
        base_program.upgrade().is_none(),
        "an evicted artifact's program must be freed"
    );
    // Asked again, the baseline is rebuilt rather than revived.
    let (base, _, _) = cache
        .artifact(&prep, Strategy::Baseline, cfg, None)
        .unwrap();
    assert_eq!(base.reuse.backend, Some(Lookup::Miss));
    assert_eq!(base.reuse.regalloc, Some(Lookup::Hit));
}

#[test]
fn concurrent_back_ends_with_one_key_build_once() {
    let cache = ArtifactCache::new();
    let (prep, _) = cache.prepared(SRC_A).unwrap();
    let cfg = CompileConfig::default();
    let (base, _, _) = cache
        .artifact(&prep, Strategy::Baseline, cfg, None)
        .unwrap();
    let program = (*base.program).clone();
    drop(base);
    // Keep every returned program alive so a late caller finds it.
    let held = std::sync::Mutex::new(Vec::new());
    let key = dsp_backend::BackendKey {
        assignment: vec![9],
        dual_ported: false,
        interrupt_safe_dup: false,
    };
    assert_one_miss_under_contention("backend", || {
        let (p, lookup) = prep
            .memo
            .program(key.clone(), || Ok::<_, ()>(program.clone()))
            .unwrap();
        held.lock().unwrap().push(p);
        lookup
    });
}
