//! Loopback integration tests: real `dsp-serve` replicas and a real
//! `dsp-router` on 127.0.0.1, driven over real sockets.
//!
//! Covers the scale-out acceptance criteria: a routed sweep's
//! deterministic projection is byte-identical to a single node's,
//! repeated compiles keep cache affinity (and warm the same replica's
//! artifact cache), request IDs survive the proxy hop end-to-end, a
//! dead replica is ridden over by retries without a client-visible
//! failure, and losing one replica remaps only that replica's shard.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dsp_driver::project_deterministic_json;
use dsp_router::{Router, RouterConfig, RouterHandle};
use dsp_serve::client::{ClientConn, ClientResponse};
use dsp_serve::{Server, ServerConfig, ServerHandle};

const FIR_SRC: &str = "
float A[32]; float B[32]; float out;
void main() {
  int i; float acc; acc = 0.0;
  for (i = 0; i < 32; i++) acc += A[i] * B[i];
  out = acc;
}";

struct TestReplica {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestReplica {
    fn start(id: &str) -> TestReplica {
        let server = Server::bind(ServerConfig {
            // Enough connection workers for the router's pooled
            // connections plus its probes plus the test's own direct
            // connections — a starved probe ejects a healthy replica.
            workers: 6,
            jobs: 1,
            read_timeout: Duration::from_secs(5),
            replica_id: Some(id.to_string()),
            ..ServerConfig::default()
        })
        .expect("bind replica");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestReplica {
            addr,
            handle,
            thread,
        }
    }

    fn connect(&self) -> ClientConn {
        ClientConn::connect(self.addr, Duration::from_secs(30)).expect("connect replica")
    }

    /// Stop immediately — in-flight connections see a reset, like a
    /// process kill (minus the non-graceful TCP teardown).
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

struct TestRouter {
    addr: SocketAddr,
    handle: RouterHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestRouter {
    fn start(replicas: &[&TestReplica], tweak: impl FnOnce(&mut RouterConfig)) -> TestRouter {
        let mut config = RouterConfig {
            replicas: replicas.iter().map(|r| r.addr.to_string()).collect(),
            workers: 2,
            retry_backoff: Duration::from_millis(1),
            ..RouterConfig::default()
        };
        tweak(&mut config);
        let router = Router::bind(config).expect("bind router");
        let addr = router.local_addr();
        let handle = router.handle();
        let thread = std::thread::spawn(move || router.run());
        TestRouter {
            addr,
            handle,
            thread,
        }
    }

    fn connect(&self) -> ClientConn {
        ClientConn::connect(self.addr, Duration::from_secs(60)).expect("connect router")
    }

    fn metrics(&self) -> String {
        self.connect()
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text()
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

fn compile_body(source: &str, strategy: &str) -> String {
    format!(
        "{{\"source\": {}, \"strategy\": {}}}",
        dsp_driver::json::escape(source),
        dsp_driver::json::escape(strategy)
    )
}

fn compile(conn: &mut ClientConn, body: &str) -> ClientResponse {
    conn.request("POST", "/compile", Some(body))
        .expect("compile round-trip")
}

/// A family of distinct-but-fast sources: each hashes to its own
/// shard, so together they exercise every replica.
fn source_variant(i: usize) -> String {
    format!(
        "
float A[{0}]; float B[{0}]; float out;
void main() {{
  int i; float acc; acc = 0.0;
  for (i = 0; i < {0}; i++) acc += A[i] * B[i];
  out = acc;
}}",
        8 + i
    )
}

fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

// ---------------------------------------------------------------- sweeps

#[test]
fn routed_sweep_projection_is_byte_identical_to_single_node() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    let router = TestRouter::start(&[&r1, &r2], |_| {});

    let body = format!(
        "{{\"source\": {}, \"strategies\": [\"base\", \"cb\", \"dup\"]}}",
        dsp_driver::json::escape(FIR_SRC)
    );
    let routed = router
        .connect()
        .request("POST", "/sweep", Some(&body))
        .expect("routed sweep");
    assert_eq!(routed.status, 200, "routed sweep: {}", routed.text());
    assert!(
        routed.text().contains("\"truncated\": false"),
        "routed sweep must complete"
    );

    // The reference document: the same sweep on one replica directly.
    let single = r1
        .connect()
        .request("POST", "/sweep", Some(&body))
        .expect("single-node sweep");
    assert_eq!(single.status, 200);

    let routed_proj = project_deterministic_json(&routed.text()).expect("project routed");
    let single_proj = project_deterministic_json(&single.text()).expect("project single");
    assert_eq!(
        routed_proj, single_proj,
        "routed sweep must be byte-identical to a single node under the deterministic projection"
    );

    router.stop();
    r1.stop();
    r2.stop();
}

#[test]
fn bench_mode_sweep_routes_and_matches_single_node() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    let router = TestRouter::start(&[&r1, &r2], |_| {});

    let body = "{\"bench\": \"fir_32_1\", \"strategies\": [\"base\", \"cb\"]}";
    let routed = router
        .connect()
        .request("POST", "/sweep", Some(body))
        .expect("routed bench sweep");
    assert_eq!(routed.status, 200, "routed: {}", routed.text());
    let single = r2
        .connect()
        .request("POST", "/sweep", Some(body))
        .expect("single bench sweep");
    assert_eq!(
        project_deterministic_json(&routed.text()).expect("project routed"),
        project_deterministic_json(&single.text()).expect("project single"),
    );

    router.stop();
    r1.stop();
    r2.stop();
}

#[test]
fn replica_dead_at_sweep_time_is_ridden_over_by_retries() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    // A long probe interval: the router will NOT notice the death via
    // probing before the sweep hits it — the per-cell retry path has
    // to discover and ride over it.
    let router = TestRouter::start(&[&r1, &r2], |c| {
        c.probe_interval = Duration::from_secs(60);
        c.retries = 3;
    });

    // A sweep cell and a /compile of the same (source, strategy) share
    // one shard key, so compiling each cell through the router reveals
    // which replica owns it — kill one that owns at least one cell.
    let strategies = ["base", "cb", "dup", "seldup"];
    let mut conn = router.connect();
    let victim_id = {
        let resp = compile(&mut conn, &compile_body(FIR_SRC, strategies[0]));
        assert_eq!(resp.status, 200);
        resp.header("x-dsp-replica")
            .expect("replica tag")
            .to_string()
    };
    drop(conn);

    let body = format!(
        "{{\"source\": {}, \"strategies\": [\"base\", \"cb\", \"dup\", \"seldup\"]}}",
        dsp_driver::json::escape(FIR_SRC)
    );
    let survivor = if victim_id == "r1" { &r1 } else { &r2 };
    let reference = survivor
        .connect()
        .request("POST", "/sweep", Some(&body))
        .expect("reference sweep");

    let (victim, survivor) = if victim_id == "r1" {
        (r1, r2)
    } else {
        (r2, r1)
    };
    victim.stop();

    let routed = router
        .connect()
        .request("POST", "/sweep", Some(&body))
        .expect("routed sweep with a dead replica");
    assert_eq!(routed.status, 200, "routed: {}", routed.text());
    let text = routed.text();
    assert!(
        text.contains("\"truncated\": false"),
        "every cell must fail over to the survivor: {text}"
    );
    assert_eq!(
        project_deterministic_json(&text).expect("project routed"),
        project_deterministic_json(&reference.text()).expect("project reference"),
    );

    // The failover is visible in the router's own telemetry.
    let metrics = router.metrics();
    let retries: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dsp_router_retries_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("dsp_router_retries_total present");
    assert!(retries > 0, "failover must spend retries: {metrics}");

    router.stop();
    survivor.stop();
}

// --------------------------------------------------------------- affinity

#[test]
fn repeat_compiles_keep_cache_affinity_and_warm_one_replica() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    let router = TestRouter::start(&[&r1, &r2], |_| {});
    let mut conn = router.connect();

    let body = compile_body(FIR_SRC, "cb");
    let first = compile(&mut conn, &body);
    assert_eq!(first.status, 200);
    let home = first
        .header("x-dsp-replica")
        .expect("routed responses carry X-Dsp-Replica")
        .to_string();
    assert!(home == "r1" || home == "r2", "announced id, got {home}");

    for _ in 0..3 {
        let next = compile(&mut conn, &body);
        assert_eq!(next.status, 200);
        assert_eq!(
            next.header("x-dsp-replica"),
            Some(home.as_str()),
            "the same (source, strategy) must keep landing on its home replica"
        );
    }

    // The home replica's artifact cache saw the warm hits...
    let home_replica = if home == "r1" { &r1 } else { &r2 };
    let other_replica = if home == "r1" { &r2 } else { &r1 };
    let cache_hits = |r: &TestReplica| -> u64 {
        r.connect()
            .request("GET", "/metrics", None)
            .expect("replica metrics")
            .text()
            .lines()
            .filter_map(|l| l.strip_prefix("dsp_serve_cache_hits_total"))
            .filter_map(|rest| rest.split_whitespace().last()?.parse::<u64>().ok())
            .sum()
    };
    assert!(
        cache_hits(home_replica) >= 3,
        "repeat compiles must hit the home replica's artifact cache"
    );
    // ...and the other replica never saw the unit at all.
    assert_eq!(
        cache_hits(other_replica),
        0,
        "affinity routing must not spray the unit across the fleet"
    );

    // A different strategy may legally live elsewhere, but wherever it
    // lands it must stay.
    let other_body = compile_body(FIR_SRC, "base");
    let a = compile(&mut conn, &other_body);
    let b = compile(&mut conn, &other_body);
    assert_eq!(a.header("x-dsp-replica"), b.header("x-dsp-replica"));

    router.stop();
    r1.stop();
    r2.stop();
}

#[test]
fn losing_a_replica_remaps_only_its_shard() {
    let replicas = [
        TestReplica::start("r1"),
        TestReplica::start("r2"),
        TestReplica::start("r3"),
    ];
    let router = TestRouter::start(&[&replicas[0], &replicas[1], &replicas[2]], |c| {
        c.probe_interval = Duration::from_millis(25);
    });
    let mut conn = router.connect();

    // Map a spread of distinct units to their home replicas.
    let mut homes: BTreeMap<usize, String> = BTreeMap::new();
    for i in 0..12 {
        let resp = compile(&mut conn, &compile_body(&source_variant(i), "cb"));
        assert_eq!(resp.status, 200);
        homes.insert(
            i,
            resp.header("x-dsp-replica")
                .expect("replica tag")
                .to_string(),
        );
    }
    let victim_id = homes.values().next().expect("at least one home").clone();

    // Kill the victim and wait until the prober ejects it.
    let mut alive = Vec::new();
    for r in replicas {
        let id = r
            .connect()
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text()
            .contains(&format!(
                "dsp_serve_replica_info{{replica=\"{victim_id}\"}}"
            ));
        if id {
            r.stop();
        } else {
            alive.push(r);
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            router
                .metrics()
                .lines()
                .filter(|l| l.starts_with("dsp_router_upstream_up{"))
                .filter(|l| l.ends_with(" 0"))
                .count()
                == 1
        }),
        "the prober must eject the killed replica"
    );

    // Re-route every unit: survivors keep their homes, the victim's
    // shard moves — the consistent-hash stability guarantee.
    let mut conn = router.connect();
    for (i, old_home) in &homes {
        let resp = compile(&mut conn, &compile_body(&source_variant(*i), "cb"));
        assert_eq!(
            resp.status,
            200,
            "unit {i} must still compile: {}",
            resp.text()
        );
        let new_home = resp.header("x-dsp-replica").expect("replica tag");
        if old_home == &victim_id {
            assert_ne!(new_home, victim_id, "the dead shard must move");
        } else {
            assert_eq!(
                new_home,
                old_home.as_str(),
                "unit {i} did not live on the dead replica and must not move"
            );
        }
    }

    let metrics = router.metrics();
    assert!(
        metrics.contains("dsp_router_hash_moves_total 1"),
        "one ejection = one ring rebuild: {metrics}"
    );

    router.stop();
    for r in alive {
        r.stop();
    }
}

// ------------------------------------------------------------- request IDs

#[test]
fn request_ids_survive_the_proxy_hop_end_to_end() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    let router = TestRouter::start(&[&r1, &r2], |_| {});
    let mut conn = router.connect();

    // Client-supplied ID: forwarded verbatim, echoed back verbatim.
    let body = compile_body(FIR_SRC, "cb");
    let resp = conn
        .exchange(
            "POST",
            "/compile",
            &[("X-Request-Id", "routed-trace-42")],
            Some(&body),
        )
        .expect("compile with explicit id");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some("routed-trace-42"));
    let home = resp
        .header("x-dsp-replica")
        .expect("replica tag")
        .to_string();

    // The serving replica's own trace shows the same ID the client
    // received — the proxy hop is invisible to correlation.
    let replica = if home == "r1" { &r1 } else { &r2 };
    let trace = replica
        .connect()
        .request("GET", "/debug/trace?n=512", None)
        .expect("replica trace")
        .text();
    assert!(
        trace.contains("routed-trace-42"),
        "replica trace must carry the client's request ID: {trace}"
    );
    let router_trace = router
        .connect()
        .request("GET", "/debug/trace?n=512", None)
        .expect("router trace")
        .text();
    assert!(
        router_trace.contains("routed-trace-42"),
        "router trace must carry the client's request ID"
    );

    // Absent ID: the router mints one and the replica adopts it.
    let resp = compile(&mut conn, &body);
    let minted = resp
        .header("x-request-id")
        .expect("router must mint an ID when tracing is on")
        .to_string();
    assert_eq!(minted.len(), 16, "minted IDs are 16 hex chars: {minted}");
    let trace = replica
        .connect()
        .request("GET", "/debug/trace?n=512", None)
        .expect("replica trace")
        .text();
    assert!(
        trace.contains(&minted),
        "replica trace must carry the router-minted ID {minted}"
    );

    router.stop();
    r1.stop();
    r2.stop();
}

// ----------------------------------------------------------------- drain

#[test]
fn draining_a_replica_redirects_traffic_without_failures() {
    let r1 = TestReplica::start("r1");
    let r2 = TestReplica::start("r2");
    let router = TestRouter::start(&[&r1, &r2], |c| {
        c.probe_interval = Duration::from_millis(25);
    });
    let mut conn = router.connect();

    // Establish homes on both replicas.
    let bodies: Vec<String> = (0..8)
        .map(|i| compile_body(&source_variant(i), "cb"))
        .collect();
    for b in &bodies {
        assert_eq!(compile(&mut conn, b).status, 200);
    }

    // Drain r2 directly: /readyz flips, the prober ejects it.
    let drained = r2
        .connect()
        .request("POST", "/admin/shutdown", None)
        .expect("drain");
    assert_eq!(drained.status, 200);
    assert!(drained.text().contains("draining"));
    assert!(
        wait_until(Duration::from_secs(10), || {
            router
                .metrics()
                .lines()
                .filter(|l| l.starts_with("dsp_router_upstream_up{"))
                .filter(|l| l.ends_with(" 0"))
                .count()
                == 1
        }),
        "the drained replica must leave the ready set"
    );

    // Every unit still compiles; everything now lands on the survivor.
    let mut conn = router.connect();
    for b in &bodies {
        let resp = compile(&mut conn, b);
        assert_eq!(resp.status, 200, "drain must be invisible to clients");
        assert_eq!(resp.header("x-dsp-replica"), Some("r1"));
    }

    router.stop();
    r1.stop();
    // r2 already shut itself down; stop() is idempotent.
    r2.stop();
}

// ----------------------------------------------------------- surface area

#[test]
fn router_surface_health_metrics_and_replicas() {
    let r1 = TestReplica::start("r1");
    let router = TestRouter::start(&[&r1], |c| {
        c.probe_interval = Duration::from_millis(25);
    });
    let mut conn = router.connect();

    let health = conn.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    let ready = conn.request("GET", "/readyz", None).expect("readyz");
    assert_eq!(ready.status, 200);
    assert!(ready.text().contains("\"upstreams\": 1"));

    // One request so the labeled families materialize.
    assert_eq!(compile(&mut conn, &compile_body(FIR_SRC, "cb")).status, 200);

    let metrics = router.metrics();
    for family in [
        "dsp_router_up 1",
        "dsp_router_upstream_up{replica=",
        "dsp_router_requests_total{replica=",
        "dsp_router_client_requests_total{endpoint=\"compile\",status=\"200\"} 1",
        "dsp_router_retries_total 0",
        "dsp_router_hash_moves_total 0",
        "dsp_router_request_seconds_bucket",
        "dsp_router_upstream_seconds_bucket",
        "dsp_router_retry_budget_tokens",
    ] {
        assert!(
            metrics.contains(family),
            "missing `{family}` in:\n{metrics}"
        );
    }

    // The prober learns the replica's announced identity.
    assert!(
        wait_until(Duration::from_secs(5), || {
            router
                .connect()
                .request("GET", "/replicas", None)
                .expect("replicas")
                .text()
                .contains("\"id\": \"r1\"")
        }),
        "probes must pick up the replica's announced id"
    );
    let replicas = conn.request("GET", "/replicas", None).expect("replicas");
    assert!(replicas.text().contains("\"up\": true"));

    assert_eq!(conn.request("GET", "/nope", None).expect("404").status, 404);
    assert_eq!(
        conn.request("GET", "/compile", None).expect("405").status,
        405
    );

    router.stop();
    r1.stop();
}

#[test]
fn retired_partitioner_refined_is_a_400_direct_and_routed() {
    let r1 = TestReplica::start("r1");
    let router = TestRouter::start(&[&r1], |_| {});
    let compile = format!(
        "{{\"source\": {}, \"strategy\": \"cb\", \"partitioner\": \"refined\"}}",
        dsp_driver::json::escape(FIR_SRC)
    );
    let sweep = format!(
        "{{\"source\": {}, \"strategies\": [\"cb\"], \"partitioner\": \"refined\"}}",
        dsp_driver::json::escape(FIR_SRC)
    );
    for (hop, mut conn) in [("direct", r1.connect()), ("routed", router.connect())] {
        for (path, body) in [("/compile", &compile), ("/sweep", &sweep)] {
            let resp = conn.request("POST", path, Some(body)).expect("round-trip");
            let text = resp.text();
            assert_eq!(resp.status, 400, "{hop} {path}: {text}");
            assert!(
                text.contains("greedy") && text.contains("fm"),
                "{hop} {path}: the error must name the accepted partitioners: {text}"
            );
        }
    }
    router.stop();
    r1.stop();
}
