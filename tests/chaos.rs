//! Chaos suite: the real binaries exercised through a real `dualbank
//! chaos` interception proxy. A router fronts one clean replica and
//! one replica reachable only through the proxy; every scenario in the
//! schedule vocabulary is injected at 100% and the routed sweep must
//! come back either complete — byte-identical to a single node under
//! the deterministic projection — or closed with a well-formed
//! `"truncated": true` tail. No panics, no wedged workers (every
//! scenario runs under a hard wall-clock deadline), and every injected
//! fault visible in the proxy's own `/metrics`.
//!
//! Alongside the matrix: the circuit breaker's full state walk
//! (closed → open → half-open → open) asserted through
//! `dsp_router_breaker_*` families, retry-token-bucket exhaustion
//! degrading to 502 without a retry storm, and schedule determinism
//! over the wire (two same-seed proxies injecting identical fault
//! sequences).
//!
//! Last, the client-side contract in process: an in-process server
//! behind an in-process proxy, every scenario at 100%, and each
//! transport error classified with `dsp_serve::client::classify_error`.
//! A scenario may surface only the fault classes it can cause, and a
//! benign one must answer every compile and one whole, digest-verified
//! sweep.

mod common;

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use common::{scrape, spawn_chaos, spawn_chaos_with, spawn_replica, spawn_router, ChaosNode};
use dsp_chaos::{ChaosConfig, ChaosProxy, Scenario, Schedule};
use dsp_serve::client::{classify_error, ClientConn};
use dsp_serve::{Server, ServerConfig};

/// The sweep driven through every scenario: small enough that a cell
/// completes in well under a second, wide enough (3 cells) that a
/// mid-sweep fault has cells left to damage.
const SWEEP_BODY: &str = "{\"bench\": \"fir_32_1\", \"strategies\": [\"base\", \"cb\", \"ideal\"]}";

/// Sum of `dsp_chaos_faults_total{kind=...}` excluding `kind="none"`.
fn faults_injected(admin_metrics: &str) -> u64 {
    admin_metrics
        .lines()
        .filter(|l| l.starts_with("dsp_chaos_faults_total{kind="))
        .filter(|l| !l.contains("kind=\"none\""))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

fn counter(metrics: &str, name: &str) -> u64 {
    let head = format!("{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&head))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing in:\n{metrics}"))
}

/// Run `f` on its own thread and panic if it does not deliver a result
/// within `deadline` — the suite's wedged-worker detector: a routed
/// request that never completes fails loudly instead of hanging the
/// test harness.
fn within<T: Send + 'static>(
    deadline: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(v) => v,
        Err(_) => panic!("`{what}` did not finish within {deadline:?} — wedged worker?"),
    }
}

#[test]
fn routed_sweeps_survive_every_chaos_scenario() {
    let ra = spawn_replica("ra");
    let rb = spawn_replica("rb");

    // The reference document: the same sweep on a bare replica,
    // reduced to its deterministic projection.
    let reference = {
        let resp = ra
            .connect()
            .request("POST", "/sweep", Some(SWEEP_BODY))
            .expect("reference sweep");
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        dsp_driver::project_deterministic_json(&resp.text()).expect("project reference")
    };

    for scenario in [
        "clean",
        "refuse-connect",
        "reset",
        "delay",
        "trickle",
        "truncate",
        "corrupt",
        "blackhole",
    ] {
        let chaos = spawn_chaos(&rb.addr, scenario, 11, 100);
        let router = spawn_router(
            &[&ra.addr, &chaos.node.addr],
            &[
                "--retries",
                "3",
                "--probe-ms",
                "200",
                "--breaker-threshold",
                "2",
                "--breaker-cooldown-ms",
                "300",
                "--upstream-timeout-ms",
                "10000",
                "--connect-timeout-ms",
                "1000",
                "--first-byte-timeout-ms",
                "5000",
                "--idle-timeout-ms",
                "5000",
            ],
        );

        let router_addr = router.addr.clone();
        let (status, doc) = within(Duration::from_secs(90), scenario, move || {
            let mut conn =
                ClientConn::connect(&router_addr, Duration::from_secs(80)).expect("connect router");
            let resp = conn
                .request("POST", "/sweep", Some(SWEEP_BODY))
                .expect("routed sweep must be answered, never dropped");
            (resp.status, resp.text())
        });

        // Every scenario — `corrupt` included — must now meet the full
        // contract: each sweep job carries an end-to-end FNV-1a digest,
        // so a flipped byte inside a cell's payload is caught at the
        // router's fan-in, the cell is re-fetched from a healthy
        // replica, and the assembled document is clean.
        assert_eq!(status, 200, "{scenario}: body: {doc}");
        let parsed = dsp_driver::json::parse(&doc)
            .unwrap_or_else(|e| panic!("{scenario}: document does not parse ({e}): {doc}"));
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("dualbank-run-report/v1"),
            "{scenario}: {doc}"
        );
        let truncated = doc.contains("\"truncated\": true");
        assert!(
            truncated || doc.contains("\"truncated\": false"),
            "{scenario}: the tail must carry a truncation verdict: {doc}"
        );
        if !truncated {
            assert_eq!(
                dsp_driver::project_deterministic_json(&doc).expect("project routed"),
                reference,
                "{scenario}: complete document must match a single node under projection"
            );
        }
        if scenario == "clean" {
            assert!(!truncated, "clean: nothing may truncate a faultless sweep");
        }

        // Every injected fault is visible on the proxy's own admin
        // endpoint — and `clean` provably stayed out of the way.
        let admin = scrape(&chaos.admin);
        let injected = faults_injected(&admin);
        if scenario == "clean" {
            assert_eq!(injected, 0, "clean proxy must not inject:\n{admin}");
        } else {
            assert!(injected > 0, "{scenario}: no faults injected:\n{admin}");
        }

        // Nothing wedged, nothing died: router and both replicas still
        // answer after the storm.
        for node in [&router, &ra, &rb] {
            let resp = node
                .connect()
                .request("GET", "/healthz", None)
                .expect("healthz after scenario");
            assert_eq!(resp.status, 200, "{scenario}: a node wedged");
        }
    }
}

#[test]
fn breaker_walks_closed_open_half_open_and_reopens_on_a_failed_probe() {
    let rb = spawn_replica("rb");
    // Every connection through the proxy is reset, the prober is
    // parked, and ejection is disabled: the only failure-handling
    // layer left standing is the circuit breaker.
    let chaos = spawn_chaos(&rb.addr, "reset", 3, 100);
    let router = spawn_router(
        &[&chaos.node.addr],
        &[
            "--retries",
            "0",
            "--probe-ms",
            "60000",
            "--fail-after",
            "1000000",
            "--breaker-threshold",
            "2",
            "--breaker-cooldown-ms",
            "500",
        ],
    );
    let body = "{\"source\": \"float x; void main() { x = 1.0; }\", \"strategy\": \"cb\"}";
    let compile = |n: usize| {
        for _ in 0..n {
            let resp = within(Duration::from_secs(30), "breaker compile", {
                let addr = router.addr.clone();
                let body = body.to_string();
                move || {
                    ClientConn::connect(&addr, Duration::from_secs(20))
                        .expect("connect router")
                        .request("POST", "/compile", Some(&body))
                        .expect("router must answer")
                }
            });
            assert_eq!(resp.status, 502, "degraded, not hung: {}", resp.text());
        }
    };

    // Two transport failures close→open the breaker; the third request
    // must be refused without ever dialing the upstream.
    compile(3);
    let text = scrape(&router.addr);
    let replica = &chaos.node.addr;
    assert!(
        text.contains(&format!(
            "dsp_router_breaker_state{{replica=\"{replica}\"}} 2"
        )),
        "breaker must be open:\n{text}"
    );
    assert!(
        counter(
            &text,
            &format!("dsp_router_breaker_transitions_total{{replica=\"{replica}\",to=\"open\"}}")
        ) >= 1,
        "missing open transition:\n{text}"
    );
    assert!(
        counter(&text, "dsp_router_breaker_fast_fail_total") >= 1,
        "the third attempt must fast-fail on the open breaker:\n{text}"
    );
    let faults_before = faults_injected(&scrape(&chaos.admin));

    // After the cooldown one probe request passes through (half-open),
    // is reset again, and the breaker reopens.
    std::thread::sleep(Duration::from_millis(700));
    compile(1);
    let text = scrape(&router.addr);
    assert!(
        counter(
            &text,
            &format!(
                "dsp_router_breaker_transitions_total{{replica=\"{replica}\",to=\"half-open\"}}"
            )
        ) >= 1,
        "missing half-open transition:\n{text}"
    );
    assert!(
        counter(
            &text,
            &format!("dsp_router_breaker_transitions_total{{replica=\"{replica}\",to=\"open\"}}")
        ) >= 2,
        "the failed half-open probe must reopen the breaker:\n{text}"
    );
    let faults_after = faults_injected(&scrape(&chaos.admin));
    assert!(
        faults_after > faults_before,
        "the half-open probe must actually have reached the proxy \
         ({faults_before} -> {faults_after})"
    );
}

#[test]
fn retry_budget_exhaustion_degrades_to_502_without_a_retry_storm() {
    let rb = spawn_replica("rb");
    let chaos = spawn_chaos(&rb.addr, "reset", 5, 100);
    // Breaker and ejection parked at unreachable thresholds: every
    // cell attempt really dials the resetting proxy, so only the
    // token bucket stands between one bad sweep and a retry storm.
    let router = spawn_router(
        &[&chaos.node.addr],
        &[
            "--retries",
            "3",
            "--retry-budget",
            "2",
            "--breaker-threshold",
            "1000000",
            "--fail-after",
            "1000000",
            "--probe-ms",
            "60000",
        ],
    );

    for round in 0..2 {
        let resp = within(Duration::from_secs(60), "budget sweep", {
            let addr = router.addr.clone();
            move || {
                ClientConn::connect(&addr, Duration::from_secs(50))
                    .expect("connect router")
                    .request("POST", "/sweep", Some(SWEEP_BODY))
                    .expect("router must answer")
            }
        });
        assert_eq!(
            resp.status,
            502,
            "round {round}: sweeps against a dead fleet degrade to 502: {}",
            resp.text()
        );
    }

    let text = scrape(&router.addr);
    let exhausted = counter(&text, "dsp_router_retry_budget_exhausted_total");
    let retries = counter(&text, "dsp_router_retries_total");
    assert!(
        exhausted >= 1,
        "the bucket must have run dry at least once:\n{text}"
    );
    // Two 3-cell sweeps at --retries 3 could spend up to 18 retries
    // unbudgeted; the 2-token bucket (plus 0.1 earned per cell) must
    // cap actual spend far below that.
    assert!(
        retries <= 5,
        "retry storm: {retries} retries spent against a 2-token budget:\n{text}"
    );
}

#[test]
fn same_seed_injects_the_same_fault_sequence_over_the_wire() {
    let rb = spawn_replica("rb");
    let a = spawn_chaos(&rb.addr, "mixed", 42, 100);
    let b = spawn_chaos(&rb.addr, "mixed", 42, 100);
    let c = spawn_chaos(&rb.addr, "mixed", 43, 100);

    // The same traffic against each proxy: one request per connection,
    // sequentially, so connection indices line up 0..N on all three.
    let drive = |proxy: &ChaosNode| {
        for _ in 0..12 {
            let Ok(mut conn) = ClientConn::connect(&proxy.node.addr, Duration::from_secs(4)) else {
                continue;
            };
            let _ = conn.request("GET", "/healthz", None);
        }
    };
    drive(&a);
    drive(&b);
    drive(&c);

    let fault_lines = |admin: &str| -> Vec<String> {
        scrape(admin)
            .lines()
            .filter(|l| l.starts_with("dsp_chaos_faults_total{kind="))
            .map(str::to_string)
            .collect()
    };
    let (la, lb, lc) = (
        fault_lines(&a.admin),
        fault_lines(&b.admin),
        fault_lines(&c.admin),
    );
    assert_eq!(
        la, lb,
        "same seed + same scenario must inject the identical fault mix"
    );
    assert!(
        faults_injected(&scrape(&a.admin)) == 12,
        "fault-pct 100 must fault every one of the 12 connections:\n{la:?}"
    );
    assert_ne!(
        la, lc,
        "a different seed should draw a different mix (12 draws over 7 kinds)"
    );
}

#[test]
fn fault_onset_forwards_a_healthy_prefix_before_striking() {
    let rb = spawn_replica("rb");

    // Onset far beyond any /healthz response: the fault never engages,
    // so a 100%-reset proxy is transparent for small responses.
    let late = spawn_chaos_with(
        &rb.addr,
        "reset",
        11,
        100,
        &["--onset-after-bytes", "65536"],
    );
    let resp = late
        .node
        .connect()
        .request("GET", "/healthz", None)
        .expect("reset with a giant onset must deliver small responses whole");
    assert_eq!(resp.status, 200);

    // Onset of exactly one byte (range 1..=1, no jitter left): the
    // connection dies mid-response, but only after that single healthy
    // byte was forwarded — proof the fault struck mid-stream rather
    // than at connect time.
    let early = spawn_chaos_with(&rb.addr, "reset", 11, 100, &["--onset-after-bytes", "1"]);
    let outcome = early.node.connect().request("GET", "/healthz", None);
    assert!(
        outcome.is_err(),
        "a reset one byte into the response must not parse as a reply"
    );
    let admin = scrape(&early.admin);
    assert_eq!(
        counter(&admin, "dsp_chaos_forwarded_bytes_total"),
        1,
        "exactly the one healthy prefix byte must have been forwarded:\n{admin}"
    );
    assert_eq!(faults_injected(&admin), 1, "{admin}");
}

/// The fault classes a scenario may legitimately surface at the
/// client. `corrupt` (and therefore `mixed`) can land anywhere — a
/// flipped byte may break the head, the chunk framing, or nothing at
/// all — so they allow every class; `clean`, `delay`, and `trickle`
/// must complete with no transport error at all.
fn allowed_classes(scenario: Scenario) -> &'static [&'static str] {
    match scenario.label() {
        "clean" | "delay" | "trickle" => &[],
        "refuse-connect" | "reset" => &["reset"],
        // A truncated head reads as a reset; a truncated body or chunk
        // is the distinguishable short-body class.
        "truncate" => &["reset", "short-body"],
        // The blackhole either outlasts the client read timeout or
        // closes first, which reads as a reset.
        "blackhole" => &["reset", "timeout"],
        _ => &["other", "reset", "short-body", "timeout"],
    }
}

/// What one scenario did to the traffic driven through its proxy.
struct ChaosOutcome {
    /// Transport errors by [`dsp_serve::client::FaultClass`] label.
    classes: BTreeMap<&'static str, u64>,
    /// Compile requests answered 200.
    compiles_ok: usize,
    /// The sweep's status and body, when it was answered at all.
    sweep: Option<(u16, String)>,
    /// Faults the proxy injected.
    injected: u64,
}

/// Two connections × `COMPILES` compiles plus one sweep, all through a
/// proxy injecting `scenario` faults (seed 7) on every connection.
fn drive_through_chaos(
    scenario: Scenario,
    upstream: &str,
    compile: &str,
    sweep: &str,
) -> ChaosOutcome {
    const COMPILES: usize = 15;
    let proxy = ChaosProxy::bind(ChaosConfig {
        listen: "127.0.0.1:0".to_string(),
        upstream: upstream.to_string(),
        admin: None,
        schedule: Schedule::new(scenario, 7, 100),
    })
    .expect("bind chaos proxy");
    let target = proxy.local_addr().to_string();
    let handle = proxy.handle();
    let proxy_thread = thread::spawn(move || proxy.run());

    // Blackhole holds a connection for up to ~1.5 s before closing, so
    // a 5 s client timeout outlasts every injected delay while keeping
    // a wedged scenario from stalling the whole matrix.
    let timeout = Duration::from_secs(5);
    let mut classes = BTreeMap::new();
    let (compiles_ok, sweep) = thread::scope(|s| {
        let compilers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut ok = 0;
                    let mut errors = Vec::new();
                    let mut conn: Option<ClientConn> = None;
                    for _ in 0..COMPILES {
                        if conn.is_none() {
                            match ClientConn::connect(&target, timeout) {
                                Ok(c) => conn = Some(c),
                                Err(e) => {
                                    errors.push(classify_error(&e).label());
                                    continue;
                                }
                            }
                        }
                        let c = conn.as_mut().expect("connected above");
                        match c.request("POST", "/compile", Some(compile)) {
                            Ok(resp) => ok += usize::from(resp.status == 200),
                            Err(e) => {
                                errors.push(classify_error(&e).label());
                                // The fault consumed this connection; the
                                // next request dials a fresh one (a fresh
                                // schedule index, so possibly different
                                // parameters).
                                conn = None;
                            }
                        }
                    }
                    (ok, errors)
                })
            })
            .collect();
        // One sweep rides along with a longer timeout: a trickled
        // sweep document is much larger than a compile response and
        // must still count as "completed slowly", not as a timeout.
        let sweeper = s.spawn(|| {
            ClientConn::connect(&target, Duration::from_secs(20))
                .and_then(|mut c| c.request("POST", "/sweep", Some(sweep)))
                .map(|resp| (resp.status, resp.text()))
                .map_err(|e| classify_error(&e).label())
        });
        let mut ok = 0;
        for compiler in compilers {
            let (n, errors) = compiler.join().expect("compile connection");
            ok += n;
            for class in errors {
                *classes.entry(class).or_insert(0) += 1;
            }
        }
        let sweep = match sweeper.join().expect("sweep connection") {
            Ok(answer) => Some(answer),
            Err(class) => {
                *classes.entry(class).or_insert(0) += 1;
                None
            }
        };
        (ok, sweep)
    });

    handle.shutdown();
    let _ = proxy_thread.join();
    ChaosOutcome {
        classes,
        compiles_ok,
        sweep,
        injected: handle.counters().faults_injected(),
    }
}

#[test]
fn every_scenario_surfaces_only_its_fault_classes_at_the_client() {
    let server = Server::bind(ServerConfig::default()).expect("bind server");
    let upstream = server.local_addr().to_string();
    let server_handle = server.handle();
    let server_thread = thread::spawn(move || server.run());

    let source = "
float A[64]; float B[64]; float out;
void main() {
  int i; float acc; acc = 0.0;
  for (i = 0; i < 64; i++) acc += A[i] * B[i];
  out = acc;
}";
    let escaped = dsp_driver::json::escape(source);
    let compile = format!("{{\"source\": {escaped}, \"strategy\": \"cb\"}}");
    let sweep = format!("{{\"source\": {escaped}}}");
    // The sweep straight from the server, for benign scenarios to match.
    let reference = {
        let resp = ClientConn::connect(&upstream, Duration::from_secs(60))
            .expect("connect server")
            .request("POST", "/sweep", Some(&sweep))
            .expect("reference sweep");
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        dsp_driver::project_deterministic_json(&resp.text()).expect("project reference")
    };

    for scenario in dsp_chaos::SCENARIOS {
        let label = scenario.label();
        let out = within(Duration::from_secs(120), label, {
            let (upstream, compile, sweep) = (upstream.clone(), compile.clone(), sweep.clone());
            move || drive_through_chaos(scenario, &upstream, &compile, &sweep)
        });

        // Every observed fault class is in the scenario's contract, and
        // the proxy really injected faults (or provably stayed out of
        // the way, for `clean`).
        let allowed = allowed_classes(scenario);
        let unexpected: Vec<_> = out
            .classes
            .keys()
            .filter(|class| !allowed.contains(*class))
            .collect();
        assert!(
            unexpected.is_empty(),
            "{label}: unexpected fault class(es) {unexpected:?} (allowed: {allowed:?}, seen: {:?})",
            out.classes
        );
        if scenario == Scenario::Clean {
            assert_eq!(out.injected, 0, "clean: the proxy must not inject");
        } else {
            assert!(out.injected > 0, "{label}: no faults injected");
        }

        // Benign scenarios complete every request, and the sweep comes
        // back whole — slowly is fine, truncated or damaged is not.
        if allowed.is_empty() {
            assert_eq!(
                out.compiles_ok, 30,
                "{label}: every compile must answer 200"
            );
            let (status, doc) = out
                .sweep
                .unwrap_or_else(|| panic!("{label}: the sweep was not answered"));
            assert_eq!(status, 200, "{label}: {doc}");
            assert!(
                doc.contains("\"truncated\": false"),
                "{label}: sweep was truncated: {doc}"
            );
            assert_eq!(
                dsp_driver::verify_report_digests(&doc),
                Ok(7),
                "{label}: every job must carry a valid digest"
            );
            assert_eq!(
                dsp_driver::project_deterministic_json(&doc).expect("project sweep"),
                reference,
                "{label}: sweep differs from the direct one under projection"
            );
        }
    }

    server_handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
}
