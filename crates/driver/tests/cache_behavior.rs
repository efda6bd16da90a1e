//! Cache-layer behavior: hit/miss accounting, invalidation on source
//! and config changes, and isolation between strategies.

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
