//! Crash safety of the persistent artifact cache, exercised through
//! the real binary: warm restarts reproduce cold runs byte for byte,
//! a SIGKILL mid-run never corrupts the store, and a tampered entry is
//! quarantined instead of served.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use common::bin;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("dualbank-persist-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    // The warm-start banner asserted on below logs at info level.
    let out = Command::new(bin())
        .args(args)
        .env("DSP_LOG", "info")
        .output()
        .expect("spawn dualbank");
    assert!(
        out.status.success(),
        "`dualbank {}` failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Run `bench <name>` writing the deterministic report to `json`,
/// returning the report bytes and the captured stderr.
fn bench_deterministic(name: &str, cache_dir: Option<&Path>, json: &Path) -> (Vec<u8>, String) {
    let json_s = json.to_str().unwrap().to_string();
    let mut args = vec![
        "bench".to_string(),
        name.to_string(),
        "--jobs".to_string(),
        "1".to_string(),
        "--json".to_string(),
        json_s,
        "--deterministic".to_string(),
    ];
    if let Some(dir) = cache_dir {
        args.push("--cache-dir".to_string());
        args.push(dir.to_str().unwrap().to_string());
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = run(&args);
    let report = std::fs::read(json).expect("report written");
    (report, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn warm_restart_reproduces_the_cold_report_byte_for_byte() {
    let dir = temp_dir("warm");
    let scratch = temp_dir("warm-json");
    std::fs::create_dir_all(&scratch).unwrap();

    let (plain, _) = bench_deterministic("fir_32_1", None, &scratch.join("plain.json"));
    let (cold, cold_err) = bench_deterministic("fir_32_1", Some(&dir), &scratch.join("cold.json"));
    assert!(
        cold_err.contains("0 artifact(s) recovered"),
        "first run starts from an empty store:\n{cold_err}"
    );
    let (warm, warm_err) = bench_deterministic("fir_32_1", Some(&dir), &scratch.join("warm.json"));
    assert!(
        warm_err.contains("7 artifact(s) recovered"),
        "restart must recover one entry per strategy:\n{warm_err}"
    );
    assert!(warm_err.contains("0 quarantined"), "{warm_err}");
    assert_eq!(cold, plain, "the store must not change results");
    assert_eq!(warm, cold, "warm restart must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn sigkill_mid_run_never_corrupts_the_store() {
    let dir = temp_dir("kill");
    let scratch = temp_dir("kill-json");
    std::fs::create_dir_all(&scratch).unwrap();

    // Kill a full-suite run partway through. Publishes go through
    // tmp-file + atomic rename, so whatever the kill interrupts must
    // leave either a complete entry or a stray temp file — never a
    // torn `.art`.
    let mut child = Command::new(bin())
        .args([
            "bench",
            "all",
            "--jobs",
            "1",
            "--cache-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dualbank");
    std::thread::sleep(Duration::from_millis(500));
    child.kill().expect("kill mid-run");
    let _ = child.wait();

    // Restart over the crashed store: nothing quarantines (atomic
    // rename means no torn entries), the surviving prefix warms, and
    // the completed run matches a cold store-less run exactly.
    let (warm, warm_err) = bench_deterministic("all", Some(&dir), &scratch.join("warm.json"));
    assert!(
        warm_err.contains("0 quarantined"),
        "a kill must not leave torn entries:\n{warm_err}"
    );
    assert!(warm_err.contains("artifact(s) recovered"), "{warm_err}");
    let (cold, _) = bench_deterministic("all", None, &scratch.join("cold.json"));
    assert_eq!(
        warm, cold,
        "post-crash warm run must be byte-identical to a cold run"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn tampered_entry_is_quarantined_not_served() {
    let dir = temp_dir("tamper");
    let scratch = temp_dir("tamper-json");
    std::fs::create_dir_all(&scratch).unwrap();

    let (cold, _) = bench_deterministic("fir_32_1", Some(&dir), &scratch.join("cold.json"));

    // Flip one payload byte in one entry — simulated bit rot.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "art"))
        .expect("store holds entries");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();

    let (warm, warm_err) = bench_deterministic("fir_32_1", Some(&dir), &scratch.join("warm.json"));
    assert!(
        warm_err.contains("6 artifact(s) recovered") && warm_err.contains("1 quarantined"),
        "the tampered entry must be quarantined at startup:\n{warm_err}"
    );
    assert_eq!(warm, cold, "the tampered entry must never be served");
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .filter_map(Result::ok)
        .count();
    assert_eq!(quarantined, 1, "the bad entry moved aside for forensics");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}
