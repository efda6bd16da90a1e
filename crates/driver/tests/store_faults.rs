//! Fault-injection suite for the persistent artifact store: every IO
//! site (open, read, write, fsync, rename, remove, list) fails in turn
//! under a real engine run, and every failure must degrade to counted
//! in-memory operation — same results, no panics, `errors` bumped.
//! Torn writes and silent bit rot get dedicated scenarios.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dsp_backend::Strategy;
use dsp_driver::{
    DiskStore, Engine, EngineOptions, Executor, FaultIo, FaultKind, FaultOp, FaultPlan,
};

const STRATEGIES: [Strategy; 3] = [
    Strategy::Baseline,
    Strategy::CbPartition,
    Strategy::PartialDup,
];

/// The two strategies pre-published into the store, leaving
/// [`Strategy::PartialDup`] to compile (and publish) during the
/// faulted run — so every publish-side site gets exercised.
const SEEDED: [Strategy; 2] = [Strategy::Baseline, Strategy::CbPartition];

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dualbank-store-faults-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Populate `dir` so a subsequent open exercises every sweep path:
/// two valid entries (read + index), one corrupt entry (quarantine
/// rename), and one stray temp file (cleanup remove).
fn seed(dir: &Path, bench: &dsp_workloads::Benchmark) {
    let eng = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineOptions::default()
    });
    eng.run_matrix(std::slice::from_ref(bench), &SEEDED)
        .unwrap();
    std::fs::write(
        dir.join("0000000000000000-0000000000000000-00.art"),
        b"garbage that is certainly not a valid entry",
    )
    .unwrap();
    std::fs::write(dir.join("tmp").join("crashed.0.tmp"), b"torn publish").unwrap();
}

fn faulted_engine(dir: &Path, plan: FaultPlan) -> (Engine, Arc<FaultIo>, Arc<DiskStore>) {
    let io = Arc::new(FaultIo::new(plan));
    let store = Arc::new(DiskStore::open(io.clone(), dir, None));
    let eng = Engine::with_cache_store(
        EngineOptions {
            jobs: 1,
            cache_dir: Some(dir.to_path_buf()),
            ..EngineOptions::default()
        },
        Arc::new(Executor::new(1)),
        Some(store.clone()),
    );
    (eng, io, store)
}

#[test]
fn every_fault_site_degrades_to_memory_with_identical_results() {
    let bench = dsp_workloads::kernels::fir(16, 4);
    let plain = Engine::new(EngineOptions {
        jobs: 1,
        ..EngineOptions::default()
    });
    let expect = plain
        .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
        .unwrap()
        .deterministic_json();

    for op in FaultOp::ALL {
        let dir = temp_dir("fail");
        seed(&dir, &bench);
        let plan = FaultPlan {
            op,
            kind: FaultKind::Fail,
            at: 1,
        };
        let (eng, io, store) = faulted_engine(&dir, plan);
        let report = eng
            .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
            .unwrap_or_else(|e| panic!("{op:?} fault must not fail the run: {e}"));
        assert_eq!(
            io.injected(),
            1,
            "{op:?} fault site was never exercised by the scenario"
        );
        assert!(
            store.stats().errors >= 1,
            "{op:?} failure must be counted, not swallowed"
        );
        assert_eq!(
            report.deterministic_json(),
            expect,
            "{op:?} failure must not change any result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_write_loses_only_the_warm_start() {
    // A write that persists half its bytes then dies (crash / disk
    // full) must cost nothing but the entry it was publishing.
    let bench = dsp_workloads::kernels::fir(16, 4);
    let dir = temp_dir("torn");
    seed(&dir, &bench);
    let plan = FaultPlan {
        op: FaultOp::Write,
        kind: FaultKind::ShortWrite,
        at: 1,
    };
    let (eng, io, store) = faulted_engine(&dir, plan);
    let report = eng
        .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
        .unwrap();
    assert_eq!(io.injected(), 1);
    let stats = store.stats();
    assert!(stats.errors >= 1, "the torn write is counted");
    assert_eq!(
        stats.entries, 2,
        "the torn publish must not be indexed; the seeded entries stay"
    );

    // The store reopens cleanly: only the two intact entries recover,
    // and the rerun (recompiling the lost one) matches exactly.
    let reopened = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    let sweep = reopened.cache().store().unwrap().sweep();
    assert_eq!(sweep.recovered, 2);
    assert!(sweep.error.is_none());
    let rerun = reopened
        .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
        .unwrap();
    assert_eq!(rerun.deterministic_json(), report.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_rot_is_quarantined_on_the_next_open_and_never_served() {
    // A write that silently flips a byte succeeds today (the caller
    // already holds the artifact in memory) — the CRC catches it the
    // next time the file is read, and the entry is quarantined rather
    // than served.
    let bench = dsp_workloads::kernels::fir(16, 4);
    let dir = temp_dir("rot");
    seed(&dir, &bench);
    let plan = FaultPlan {
        op: FaultOp::Write,
        kind: FaultKind::Corrupt,
        at: 1,
    };
    let (eng, io, store) = faulted_engine(&dir, plan);
    let report = eng
        .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
        .unwrap();
    assert_eq!(io.injected(), 1);
    assert_eq!(
        store.stats().entries,
        3,
        "the rotted entry is indexed — the corruption is silent so far"
    );

    let reopened = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    let sweep = reopened.cache().store().unwrap().sweep();
    assert_eq!(sweep.recovered, 2, "intact entries survive");
    assert_eq!(sweep.quarantined, 1, "the rotted entry is caught by CRC");
    let rerun = reopened
        .run_matrix(std::slice::from_ref(&bench), &STRATEGIES)
        .unwrap();
    assert_eq!(
        rerun.deterministic_json(),
        report.deterministic_json(),
        "recompiling the quarantined entry reproduces the result exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crafted_layout_with_a_valid_crc_ends_its_job_in_an_error() {
    // The checksum only proves the bytes are the ones written. An entry
    // written by a hostile or buggy writer can carry a layout the
    // simulator cannot hold: each must end the job in a validation
    // error, never a panic or an unbounded allocation.
    use dsp_driver::store::{decode_entry, encode_entry, parse_entry_file_name};
    use dsp_machine::MAX_BANK_WORDS;
    use dsp_sim::SimError;
    use dsp_workloads::runner::RunError;

    let bench = dsp_workloads::kernels::fir(16, 4);
    type Craft = (&'static str, fn(&mut dsp_machine::VliwProgram));
    let crafts: [Craft; 4] = [
        ("overflows", |p| p.stack_words = u32::MAX),
        ("limit", |p| p.x_stack_base = MAX_BANK_WORDS),
        ("initial image", |p| {
            p.y_image.init.resize(1 << 16, dsp_machine::Word::ZERO)
        }),
        ("outside bank", |p| p.symbols[0].addr = u32::MAX - 1),
    ];
    for (expect, craft) in crafts {
        let dir = temp_dir("craft");
        Engine::new(EngineOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        })
        .run_matrix(std::slice::from_ref(&bench), &[Strategy::Baseline])
        .unwrap();
        let mut entries = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|name| Some((parse_entry_file_name(&name)?, name)));
        let (key, name) = entries.next().expect("one published entry");
        assert!(entries.next().is_none());
        let path = dir.join(name);
        let mut artifact = decode_entry(&key, &std::fs::read(&path).unwrap()).unwrap();
        craft(&mut artifact.program);
        std::fs::write(&path, encode_entry(&key, &artifact)).unwrap();

        let eng = Engine::new(EngineOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        });
        assert_eq!(eng.cache().store().unwrap().sweep().recovered, 1);
        let err = eng
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::Baseline])
            .expect_err("a crafted layout must not run");
        match &err.error {
            RunError::Sim(SimError::Invalid(msg)) => {
                assert!(msg.contains(expect), "{expect}: {msg}");
            }
            other => panic!("{expect}: expected a validation error, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
