//! Engine-level behavior of the persistent artifact store: warm starts
//! across engine instances, disk re-hits after in-memory eviction, and
//! graceful degradation when the cache directory is unusable. The
//! load-bearing property throughout is that a disk-rehydrated artifact
//! simulates byte-identically to a freshly compiled one — checked via
//! the deterministic report projection.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dsp_backend::Strategy;
use dsp_driver::{Engine, EngineOptions};

/// A unique, empty scratch directory per call (process id + counter),
/// so parallel tests and stale runs never collide.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dualbank-disk-store-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_with_dir(dir: &Path) -> Engine {
    Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineOptions::default()
    })
}

#[test]
fn warm_start_across_engine_instances() {
    let dir = temp_dir("warm");
    let bench = dsp_workloads::kernels::fir(16, 4);
    let benches = std::slice::from_ref(&bench);

    // Ground truth: a store-less engine.
    let plain = Engine::new(EngineOptions {
        jobs: 1,
        ..EngineOptions::default()
    });
    let baseline = plain.run_matrix(benches, &Strategy::ALL).unwrap();
    assert!(baseline.cache.disk.is_none(), "no store configured");
    assert!(baseline
        .jobs
        .iter()
        .all(|j| j.cached.artifact_disk.is_none()));

    // Cold engine with a store: every compile misses disk, then
    // publishes.
    let cold = engine_with_dir(&dir);
    let first = cold.run_matrix(benches, &Strategy::ALL).unwrap();
    let disk = first.cache.disk.expect("store configured");
    assert_eq!(disk.hits, 0, "empty store cannot hit");
    assert_eq!(disk.misses, 7, "one disk miss per artifact compile");
    assert_eq!(disk.entries, 7, "every compile published");
    assert!(disk.bytes > 0);
    assert_eq!(disk.errors, 0);
    assert!(first
        .jobs
        .iter()
        .all(|j| j.cached.artifact_disk == Some(false)));
    drop(cold);

    // A new engine over the same directory warm-starts: every artifact
    // rehydrates from disk, nothing recompiles.
    let warm = engine_with_dir(&dir);
    let sweep = warm.cache().store().expect("store configured").sweep();
    assert_eq!(sweep.recovered, 7, "startup sweep indexes every entry");
    assert_eq!(sweep.quarantined, 0);
    assert!(sweep.error.is_none());
    let second = warm.run_matrix(benches, &Strategy::ALL).unwrap();
    let disk = second.cache.disk.expect("store configured");
    assert_eq!(disk.hits, 7, "every artifact served from disk");
    assert_eq!(disk.misses, 0);
    assert!(second
        .jobs
        .iter()
        .all(|j| j.cached.artifact_disk == Some(true)));

    // Rehydrated artifacts are indistinguishable from compiled ones.
    let expect = baseline.deterministic_json();
    assert_eq!(first.deterministic_json(), expect);
    assert_eq!(second.deterministic_json(), expect);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_evicted_entry_rehits_from_disk() {
    // Satellite: an artifact evicted from the in-memory tier by the
    // byte budget but still disk-resident must come back from disk,
    // not a recompile — asserted through the per-job telemetry.
    let dir = temp_dir("evict");
    let eng = Engine::new(EngineOptions {
        jobs: 1,
        // One byte: each memory layer retains at most one (over-budget)
        // entry, so the second benchmark evicts the first.
        cache_max_bytes: Some(1),
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    let bench_a = dsp_workloads::kernels::fir(16, 4);
    let bench_b = dsp_workloads::kernels::iir(8, 16);
    let strategies = [Strategy::Baseline];

    let first = eng
        .run_matrix(std::slice::from_ref(&bench_a), &strategies)
        .unwrap();
    assert_eq!(first.jobs[0].cached.artifact_disk, Some(false));
    eng.run_matrix(std::slice::from_ref(&bench_b), &strategies)
        .unwrap();
    assert!(
        eng.cache().stats().artifact_evictions > 0,
        "the one-byte budget must evict bench_a's artifact from memory"
    );

    let third = eng
        .run_matrix(std::slice::from_ref(&bench_a), &strategies)
        .unwrap();
    let job = &third.jobs[0];
    assert!(!job.cached.artifact, "memory tier must miss after eviction");
    assert_eq!(
        job.cached.artifact_disk,
        Some(true),
        "the rerun must rehydrate from disk, not recompile"
    );
    let disk = third.cache.disk.expect("store configured");
    assert!(disk.hits >= 1);
    // The flag also lands in the JSON report for external consumers.
    assert!(
        third.to_json().contains("\"artifact_disk\": true"),
        "report JSON must carry the disk-hit flag"
    );
    // And the rehydrated run matches the cold one bit for bit.
    assert_eq!(first.deterministic_json(), third.deterministic_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_degrades_to_memory_only() {
    // Point the store at a path occupied by a regular file: the store
    // cannot create its directories, degrades to a no-op, and the
    // engine still produces the exact same results.
    let dir = temp_dir("degrade");
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();

    let eng = engine_with_dir(&dir);
    let sweep = eng.cache().store().expect("store configured").sweep();
    assert!(
        sweep.error.is_some(),
        "unusable directory must surface in the sweep report"
    );
    let bench = dsp_workloads::kernels::fir(16, 4);
    let report = eng
        .run_matrix(std::slice::from_ref(&bench), &Strategy::ALL)
        .unwrap();
    let disk = report.cache.disk.expect("store still reports stats");
    assert!(disk.errors >= 1, "degradation is counted, not silent");
    assert_eq!(disk.entries, 0, "nothing is indexed in degraded mode");

    let plain = Engine::new(EngineOptions {
        jobs: 1,
        ..EngineOptions::default()
    });
    let baseline = plain.run_matrix(&[bench], &Strategy::ALL).unwrap();
    assert_eq!(report.deterministic_json(), baseline.deterministic_json());

    let _ = std::fs::remove_file(&dir);
}

#[test]
fn an_undecodable_payload_with_a_valid_crc_is_quarantined_at_its_first_load() {
    // The startup sweep checks header, key echo, length and CRC but does
    // not decode payloads, so a payload that only a buggy or hostile
    // writer could produce (checksummed, yet undecodable) is recovered
    // at open and caught by the full decode at its first load.
    use dsp_driver::store::{
        check_entry, crc32, decode_entry, entry_file_name, parse_entry_file_name, HEADER_LEN,
    };

    let dir = temp_dir("undecodable");
    let bench = dsp_workloads::kernels::fir(16, 4);
    let benches = std::slice::from_ref(&bench);
    let strategies = [Strategy::Baseline];
    engine_with_dir(&dir)
        .run_matrix(benches, &strategies)
        .unwrap();

    // Truncate the one published payload, then recompute its length
    // and CRC header fields (bytes 32..40 and 40..44).
    let mut names = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| Some((parse_entry_file_name(&name)?, name)));
    let (key, name) = names.next().expect("one published entry");
    assert!(names.next().is_none());
    let path = dir.join(&name);
    let mut bytes = std::fs::read(&path).unwrap();
    let payload_len = (bytes.len() - HEADER_LEN) / 2;
    bytes.truncate(HEADER_LEN + payload_len);
    bytes[32..40].copy_from_slice(&(payload_len as u64).to_le_bytes());
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[40..44].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(check_entry(&key, &bytes).is_ok(), "integrity checks pass");
    assert!(
        decode_entry(&key, &bytes).is_err(),
        "the payload does not decode"
    );

    // Open: the sweep counts it as recovered.
    let eng = engine_with_dir(&dir);
    let sweep = eng.cache().store().expect("store configured").sweep();
    assert_eq!(sweep.recovered, 1, "{sweep:?}");
    assert_eq!(sweep.quarantined, 0, "{sweep:?}");

    // First load: not served, moved to quarantine/, counted; the cell
    // recompiles instead.
    let report = eng.run_matrix(benches, &strategies).unwrap();
    let disk = report.cache.disk.expect("store configured");
    assert_eq!((disk.hits, disk.quarantined), (0, 1), "{disk:?}");
    let quarantined: Vec<String> = std::fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert!(quarantined[0].starts_with(&entry_file_name(&key)));
    assert_eq!(report.jobs[0].cached.artifact_disk, Some(false));
    assert!(!report.jobs[0].cached.artifact, "the cell recompiled");
    // The recompile republished a valid entry in its place.
    assert!(decode_entry(&key, &std::fs::read(&path).unwrap()).is_ok());

    let plain = Engine::new(EngineOptions {
        jobs: 1,
        ..EngineOptions::default()
    });
    let baseline = plain.run_matrix(benches, &strategies).unwrap();
    assert_eq!(report.deterministic_json(), baseline.deterministic_json());

    let _ = std::fs::remove_dir_all(&dir);
}
