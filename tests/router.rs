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

/// De-chunk an HTTP/1.1 chunked body captured as raw bytes.
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    while let Some(eol) = raw.windows(2).position(|w| w == b"\r\n") {
        let size_line = std::str::from_utf8(&raw[..eol]).expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        raw = &raw[eol + 2..];
        if size == 0 {
            break;
        }
        body.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // skip the chunk's trailing CRLF
    }
    body
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
            .expect("probe compile");
        assert_eq!(resp.status, 200, "probe {s}: {}", resp.text());
        homes.push((s, resp.header("x-dsp-replica").expect("tag").to_string()));
    }
    let victim_id = homes.last().expect("7 probes").1.clone();
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
    let mut stream = TcpStream::connect(&router.addr).expect("connect router raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{sweep_body}",
        sweep_body.len()
    )
    .expect("send sweep");

    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let mut killed = false;
    let mut victim = victim; // mutable for kill
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if !killed && raw.windows(8).any(|w| w == b"\"cycles\"") {
                    victim.child.kill().expect("SIGKILL victim");
                    let _ = victim.child.wait();
                    killed = true;
                }
            }
            Err(e) => panic!("reading routed sweep: {e}"),
        }
    }
    assert!(killed, "the first cell must have streamed before EOF");

    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]);
    assert!(head.starts_with("HTTP/1.1 200"), "status line: {head}");
    let doc = String::from_utf8(dechunk(&raw[head_end + 4..])).expect("utf-8 document");

    // Well-formed, whatever happened: parseable JSON, the run-report
    // schema, and an explicit truncation verdict.
    let parsed = dsp_driver::json::parse(&doc).expect("routed document parses");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("dualbank-run-report/v1"),
        "document: {doc}"
    );
    let truncated = doc.contains("\"truncated\": true");
    assert!(
        truncated || doc.contains("\"truncated\": false"),
        "the tail must carry a truncation verdict: {doc}"
    );

    // With retries available and a live survivor, the expected outcome
    // is a COMPLETE document identical to a single node's.
    if !truncated {
        let reference = survivor
            .connect()
            .request("POST", "/sweep", Some(&sweep_body))
            .expect("reference sweep");
        assert_eq!(reference.status, 200);
        assert_eq!(
            dsp_driver::project_deterministic_json(&doc).expect("project routed"),
            dsp_driver::project_deterministic_json(&reference.text()).expect("project reference"),
            "complete routed document must match a single node byte-for-byte under projection"
        );
    }

    // The failover left tracks in the router's telemetry: transport
    // errors against the dead replica and spent retries.
    let metrics = router
        .connect()
        .request("GET", "/metrics", None)
        .expect("router metrics")
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
        .expect("retries counter");
    assert!(
        errors_on_victim && retries > 0,
        "failover must be visible in dsp_router_* metrics:\n{metrics}"
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
