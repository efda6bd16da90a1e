//! Multi-node serving exercised through the real binaries: two
//! `dualbank serve` replicas fronted by a `dualbank router`, with one
//! replica killed with SIGKILL mid-sweep. The routed document must
//! come back well-formed — complete (`"truncated": false`, identical
//! to a single node under the deterministic projection) when the
//! retries ride the failure out, honestly truncated otherwise — and
//! the failover must be visible in the router's `dsp_router_*`
//! metrics.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use common::{bin, spawn_replica, spawn_router};

const FIR_SRC: &str = "
float A[32]; float B[32]; float out;
void main() {
  int i; float acc; acc = 0.0;
  for (i = 0; i < 32; i++) acc += A[i] * B[i];
  out = acc;
}";

const STRATEGIES: [&str; 7] = ["base", "cb", "pr", "dup", "seldup", "fulldup", "ideal"];

fn compile_body(strategy: &str) -> String {
    format!(
        "{{\"source\": {}, \"strategy\": {}}}",
        dsp_driver::json::escape(FIR_SRC),
        dsp_driver::json::escape(strategy)
    )
}

/// De-chunk an HTTP/1.1 chunked body captured as raw bytes; a
/// malformed or short body is an error, not a panic, so the caller can
/// report it with its context.
fn dechunk(mut raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    while let Some(eol) = raw.windows(2).position(|w| w == b"\r\n") {
        let size_line =
            std::str::from_utf8(&raw[..eol]).map_err(|e| format!("chunk size line: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|e| format!("chunk size {size_line:?}: {e}"))?;
        raw = &raw[eol + 2..];
        if size == 0 {
            break;
        }
        if raw.len() < size + 2 {
            return Err(format!("chunk of {size} bytes cut short at {}", raw.len()));
        }
        body.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // skip the chunk's trailing CRLF
    }
    Ok(body)
}

/// What a failure of the SIGKILL test prints to name its cause: the
/// replica each strategy's probe compile landed on, the sweep order
/// built from them, and every byte the routed sweep streamed so far.
fn diag(homes: &[(&str, String)], ordered: &[&str], raw: &[u8]) -> String {
    format!(
        "\n  probed homes: {homes:?}\n  sweep order: {ordered:?}\n  streamed {} bytes:\n{}",
        raw.len(),
        String::from_utf8_lossy(raw)
    )
}

#[test]
fn sigkilled_replica_mid_sweep_yields_a_well_formed_document_and_visible_failover() {
    let ra = spawn_replica("ra");
    let rb = spawn_replica("rb");
    // A long probe interval keeps the prober out of the picture: the
    // kill must be discovered by the per-cell retry path itself, which
    // is exactly the failover this test wants to see in the metrics.
    let router = spawn_router(
        &[&ra.addr, &rb.addr],
        &["--fanout", "1", "--retries", "3", "--probe-ms", "60000"],
    );

    // Learn each cell's home replica: a /compile of the same (source,
    // strategy) shares the sweep cell's shard key. Order the sweep so
    // the victim's cells come last — with --fanout 1 the cells run
    // strictly in matrix order, so killing the victim right after the
    // first cell streams guarantees it is dead by the time its own
    // cells are fetched.
    let mut conn = router.connect();
    let mut victim_strategies = Vec::new();
    let mut other_strategies = Vec::new();
    let mut homes = Vec::new();
    for s in STRATEGIES {
        let resp = conn
            .request("POST", "/compile", Some(&compile_body(s)))
            .unwrap_or_else(|e| panic!("probe compile {s}: {e}{}", diag(&homes, &[], &[])));
        assert_eq!(
            resp.status,
            200,
            "probe {s}: {}{}",
            resp.text(),
            diag(&homes, &[], &[])
        );
        let home = resp
            .header("x-dsp-replica")
            .unwrap_or_else(|| panic!("probe {s}: no replica tag{}", diag(&homes, &[], &[])));
        homes.push((s, home.to_string()));
    }
    let victim_id = homes
        .last()
        .unwrap_or_else(|| panic!("7 probes{}", diag(&homes, &[], &[])))
        .1
        .clone();
    for (s, home) in &homes {
        if *home == victim_id {
            victim_strategies.push(*s);
        } else {
            other_strategies.push(*s);
        }
    }
    let ordered: Vec<&str> = other_strategies
        .iter()
        .chain(victim_strategies.iter())
        .copied()
        .collect();
    let (victim, survivor) = if victim_id == "ra" {
        (ra, rb)
    } else {
        (rb, ra)
    };

    // Stream the sweep raw so the kill can be timed against progress:
    // wait for the first cell's job object, then SIGKILL the victim.
    let sweep_body = format!(
        "{{\"source\": {}, \"strategies\": [{}]}}",
        dsp_driver::json::escape(FIR_SRC),
        ordered
            .iter()
            .map(|s| dsp_driver::json::escape(s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut raw = Vec::new();
    let mut stream = TcpStream::connect(&router.addr)
        .unwrap_or_else(|e| panic!("connect router raw: {e}{}", diag(&homes, &ordered, &raw)));
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap_or_else(|e| panic!("read timeout: {e}{}", diag(&homes, &ordered, &raw)));
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{sweep_body}",
        sweep_body.len()
    )
    .unwrap_or_else(|e| panic!("send sweep: {e}{}", diag(&homes, &ordered, &raw)));

    let mut buf = [0u8; 4096];
    let mut killed = false;
    let mut victim = victim; // mutable for kill
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if !killed && raw.windows(8).any(|w| w == b"\"cycles\"") {
                    if let Err(e) = victim.child.kill() {
                        panic!("SIGKILL victim: {e}{}", diag(&homes, &ordered, &raw));
                    }
                    let _ = victim.child.wait();
                    killed = true;
                }
            }
            Err(e) => panic!("reading routed sweep: {e}{}", diag(&homes, &ordered, &raw)),
        }
    }
    let ctx = diag(&homes, &ordered, &raw);
    assert!(killed, "the first cell must have streamed before EOF{ctx}");

    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("header terminator{ctx}"));
    let head = String::from_utf8_lossy(&raw[..head_end]);
    assert!(head.starts_with("HTTP/1.1 200"), "status line: {head}{ctx}");
    let body = dechunk(&raw[head_end + 4..]).unwrap_or_else(|e| panic!("dechunk: {e}{ctx}"));
    let doc = String::from_utf8(body).unwrap_or_else(|e| panic!("utf-8 document: {e}{ctx}"));

    // Well-formed, whatever happened: parseable JSON, the run-report
    // schema, and an explicit truncation verdict.
    let parsed = dsp_driver::json::parse(&doc)
        .unwrap_or_else(|e| panic!("routed document parses: {e}{ctx}"));
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("dualbank-run-report/v1"),
        "document schema{ctx}"
    );
    let truncated = doc.contains("\"truncated\": true");
    assert!(
        truncated || doc.contains("\"truncated\": false"),
        "the tail must carry a truncation verdict{ctx}"
    );

    // With retries available and a live survivor, the expected outcome
    // is a COMPLETE document identical to a single node's.
    if !truncated {
        let reference = survivor
            .connect()
            .request("POST", "/sweep", Some(&sweep_body))
            .unwrap_or_else(|e| panic!("reference sweep: {e}{ctx}"));
        assert_eq!(reference.status, 200, "reference sweep status{ctx}");
        assert_eq!(
            dsp_driver::project_deterministic_json(&doc)
                .unwrap_or_else(|e| panic!("project routed: {e}{ctx}")),
            dsp_driver::project_deterministic_json(&reference.text())
                .unwrap_or_else(|e| panic!("project reference: {e}{ctx}")),
            "complete routed document must match a single node byte-for-byte under projection{ctx}"
        );
    }

    // The failover left tracks in the router's telemetry: transport
    // errors against the dead replica and spent retries.
    let metrics = router
        .connect()
        .request("GET", "/metrics", None)
        .unwrap_or_else(|e| panic!("router metrics: {e}{ctx}"))
        .text();
    let errors_on_victim = metrics.lines().any(|l| {
        l.starts_with(&format!(
            "dsp_router_requests_total{{replica=\"{}\",status=\"error\"}}",
            victim.addr
        ))
    });
    let retries: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dsp_router_retries_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("retries counter:\n{metrics}{ctx}"));
    assert!(
        errors_on_victim && retries > 0,
        "failover must be visible in dsp_router_* metrics:\n{metrics}{ctx}"
    );
}

#[test]
fn report_project_cli_reduces_a_full_report_to_the_deterministic_bytes() {
    let dir = std::env::temp_dir().join(format!("dualbank-router-proj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let full = dir.join("full.json");
    let det = dir.join("det.json");

    for (flag_det, path) in [(false, &full), (true, &det)] {
        let mut args = vec![
            "bench",
            "fir_32_1",
            "--jobs",
            "1",
            "--json",
            path.to_str().expect("utf-8 path"),
        ];
        if flag_det {
            args.push("--deterministic");
        }
        let out = Command::new(bin()).args(&args).output().expect("run bench");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let out = Command::new(bin())
        .args(["report-project", full.to_str().expect("utf-8 path")])
        .output()
        .expect("run report-project");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let projected = String::from_utf8(out.stdout).expect("utf-8 projection");
    let deterministic = std::fs::read_to_string(&det).expect("read deterministic report");
    assert_eq!(
        projected, deterministic,
        "the projection of a full report must equal the --deterministic bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_cli_rejects_a_zero_queue_like_serve() {
    // Nothing listens on the replica: the flags are checked before any
    // bind or connect.
    let zero_queue = "--queue must be at least 1 (omit the flag for the default of 64)";
    let unknown = "unknown flag `--queu`";
    for (args, expected) in [
        (
            &["router", "--replica", "127.0.0.1:1", "--queue", "0"][..],
            zero_queue,
        ),
        (&["serve", "--queue", "0"], zero_queue),
        (
            &["router", "--replica", "127.0.0.1:1", "--queu", "0"],
            unknown,
        ),
        (&["serve", "--queu", "0"], unknown),
    ] {
        let cmd = args.join(" ");
        let out = Command::new(bin())
            .args(args)
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`dualbank {cmd}` must fail");
        assert!(stderr.contains(expected), "`dualbank {cmd}`: {stderr}");
    }
}

#[test]
fn serve_help_lists_every_flag_like_router_help() {
    // `--help` prints the reference and exits before any bind, also
    // beside flags it would otherwise check.
    let serve_flags = [
        "--addr",
        "--workers",
        "--jobs",
        "--queue",
        "--deadline-ms",
        "--read-deadline-ms",
        "--max-body-kb",
        "--cache-capacity",
        "--cache-max-kb",
        "--cache-dir",
        "--cache-disk-max-kb",
        "--fuel",
        "--replica-id",
        "--drain-ms",
        "--no-trace",
    ];
    for (args, expected) in [
        (&["serve", "--help"][..], &serve_flags[..]),
        (&["serve", "--queue", "0", "-h"], &serve_flags),
        (&["router", "--help"], &["--replica", "--fanout"]),
    ] {
        let cmd = args.join(" ");
        let out = Command::new(bin())
            .args(args)
            .output()
            .expect("run the CLI");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "`dualbank {cmd}` must succeed");
        for flag in expected {
            assert!(stdout.contains(flag), "`dualbank {cmd}` omits {flag}:\n{stdout}");
        }
    }
}
