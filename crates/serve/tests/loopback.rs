//! Loopback integration tests: a real server on 127.0.0.1:0, driven
//! over real sockets.
//!
//! Covers the acceptance criteria: a served `/compile` is bit-identical
//! to a direct engine run (the FIR kernel and every fuzz-corpus
//! program), compile traffic beside full-suite sweeps loses nothing and
//! changes no result, a full queue answers 503, a runaway request
//! answers 504, `/metrics` has the documented shape, and malformed or
//! oversized input never kills the server. The front-end's own cases
//! (bad input, read deadline, full queue) also run against a
//! `dsp-router`, which shares the front-end.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::json::{self, Value};
use dsp_driver::{project_deterministic_json, verify_report_digests, Engine, EngineOptions};
use dsp_router::{Router, RouterConfig};
use dsp_serve::client::ClientConn;
use dsp_serve::{Server, ServerConfig, ServerHandle};
use dsp_workloads::{Benchmark, Kind};

const FIR_SRC: &str = "
float A[32]; float B[32]; float out;
void main() {
  int i; float acc; acc = 0.0;
  for (i = 0; i < 32; i++) acc += A[i] * B[i];
  out = acc;
}";

/// A program whose simulation runs far past any test deadline (the
/// server's fuel bound still terminates it in the background).
const SLOW_SRC: &str = "
int x;
void main() {
  int i; int j;
  for (i = 0; i < 1000000; i++)
    for (j = 0; j < 1000; j++)
      x = x + 1;
}";

/// A program whose simulation takes long next to compiling it (3 million
/// cycles under every strategy), but ends: a sweep of it stays in flight
/// for a while however fast the compiler is.
const LONG_SRC: &str = "
int x;
void main() {
  int i; int j;
  for (i = 0; i < 1000; i++)
    for (j = 0; j < 1000; j++)
      x = x + j;
}";

/// The value of the unlabelled sample `name` in a `/metrics` text.
fn metric(text: &str, name: &str) -> Option<u64> {
    let head = format!("{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&head))
        .and_then(|v| v.trim().parse().ok())
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread,
        }
    }

    fn connect(&self) -> ClientConn {
        ClientConn::connect(self.addr, Duration::from_secs(30)).expect("connect")
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// The front-end settings the shared front-end's tests vary.
#[derive(Clone, Copy)]
struct Limits {
    workers: usize,
    queue_capacity: usize,
    read_timeout: Duration,
    read_deadline: Duration,
}

/// A running front-end under test: a server, or a router.
struct FrontEnd {
    /// True for the router.
    routed: bool,
    /// Metric-family prefix: `dsp_serve` or `dsp_router`.
    prefix: &'static str,
    addr: SocketAddr,
    stop: Box<dyn FnOnce()>,
}

impl FrontEnd {
    fn connect(&self) -> ClientConn {
        ClientConn::connect(self.addr, Duration::from_secs(30)).expect("connect")
    }

    fn stop(self) {
        (self.stop)();
    }
}

/// The front-end's tests run once against a server and once against a
/// router. The router's one replica address has nothing listening:
/// these cases never reach an upstream.
fn front_ends(limits: Limits) -> impl Iterator<Item = FrontEnd> {
    [false, true].into_iter().map(move |routed| {
        if !routed {
            let server = TestServer::start(ServerConfig {
                workers: limits.workers,
                queue_capacity: limits.queue_capacity,
                read_timeout: limits.read_timeout,
                read_deadline: limits.read_deadline,
                ..ServerConfig::default()
            });
            return FrontEnd {
                routed,
                prefix: "dsp_serve",
                addr: server.addr,
                stop: Box::new(move || server.stop()),
            };
        }
        let dead = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port");
        let router = Router::bind(RouterConfig {
            replicas: vec![dead.to_string()],
            workers: limits.workers,
            queue_capacity: limits.queue_capacity,
            read_timeout: limits.read_timeout,
            read_deadline: limits.read_deadline,
            ..RouterConfig::default()
        })
        .expect("bind router");
        let addr = router.local_addr();
        let handle = router.handle();
        let thread = std::thread::spawn(move || router.run());
        FrontEnd {
            routed,
            prefix: "dsp_router",
            addr,
            stop: Box::new(move || {
                handle.shutdown();
                thread.join().expect("router thread").expect("router run");
            }),
        }
    })
}

fn compile_body(source: &str, strategy: &str) -> String {
    format!(
        "{{\"source\": {}, \"strategy\": {}}}",
        json::escape(source),
        json::escape(strategy)
    )
}

/// A `/compile` request as the server runs it: no checked globals.
fn request_bench(source: &str) -> Benchmark {
    Benchmark {
        name: "request".to_string(),
        kind: Kind::Application,
        description: String::new(),
        source: source.to_string(),
        check_globals: Vec::new(),
    }
}

#[test]
fn served_compile_is_bit_identical_to_direct_engine_run() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    // The same jobs straight through the engine (fuel matches the
    // server's default so the configurations are identical).
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        fuel: ServerConfig::default().fuel,
        ..EngineOptions::default()
    });

    // The FIR kernel, then every fuzz-corpus program: the oracle's
    // hard cases must come back over HTTP exactly as they run direct.
    let corpus_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let corpus = dsp_workloads::corpus::load_dir(&corpus_dir).expect("load tests/corpus");
    assert!(!corpus.is_empty(), "tests/corpus holds no programs");
    let programs = std::iter::once(("fir", FIR_SRC))
        .chain(corpus.iter().map(|b| (b.name.as_str(), b.source.as_str())));
    for (name, source) in programs {
        let resp = conn
            .request("POST", "/compile", Some(&compile_body(source, "cb")))
            .expect("request");
        assert_eq!(resp.status, 200, "{name}: body: {}", resp.text());
        let doc = json::parse(&resp.text()).expect("valid JSON response");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("dualbank-compile-response/v1")
        );
        let job = doc.get("job").expect("job object");

        let report = engine
            .run_matrix(&[request_bench(source)], &[Strategy::CbPartition])
            .expect("direct run");
        let direct = &report.jobs[0];
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{name}: missing numeric field {k} in {}", resp.text()))
        };
        let m = &direct.measurement;
        let static_words = job.get("static_words").expect("static_words");
        let sim = job.get("sim").expect("sim object");
        assert_eq!(num(job, "cycles"), m.cycles, "{name}");
        assert_eq!(num(job, "memory_cost"), m.memory_cost, "{name}");
        assert_eq!(num(job, "stack_words"), u64::from(m.stack_words), "{name}");
        assert_eq!(num(job, "inst_words"), u64::from(m.inst_words), "{name}");
        assert_eq!(num(job, "partition_cost"), direct.partition_cost, "{name}");
        assert_eq!(
            num(job, "duplicated_words"),
            direct.duplicated_words,
            "{name}"
        );
        assert_eq!(
            num(static_words, "x"),
            u64::from(m.static_words.0),
            "{name}"
        );
        assert_eq!(
            num(static_words, "y"),
            u64::from(m.static_words.1),
            "{name}"
        );
        assert_eq!(num(sim, "ops"), m.stats.ops, "{name}");
        assert_eq!(num(sim, "loads"), m.stats.loads, "{name}");
        assert_eq!(num(sim, "stores"), m.stats.stores, "{name}");
        assert_eq!(
            num(sim, "dual_mem_cycles"),
            m.stats.dual_mem_cycles,
            "{name}"
        );
        let conflicts = num(sim, "bank_conflict_cycles");
        assert_eq!(conflicts, m.stats.bank_conflict_cycles, "{name}");
    }

    // A repeat of the same request is served from cache and still
    // bit-identical.
    let fir_cycles = engine
        .run_matrix(&[request_bench(FIR_SRC)], &[Strategy::CbPartition])
        .expect("direct run")
        .jobs[0]
        .measurement
        .cycles;
    let resp2 = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    assert_eq!(resp2.status, 200);
    let doc2 = json::parse(&resp2.text()).expect("valid JSON");
    assert_eq!(
        doc2.get("job")
            .and_then(|j| j.get("cycles"))
            .and_then(Value::as_u64),
        Some(fir_cycles)
    );
    assert_eq!(
        doc2.get("job")
            .and_then(|j| j.get("cached"))
            .and_then(|c| c.get("artifact"))
            .and_then(Value::as_bool),
        Some(true),
        "second request should hit the artifact cache"
    );

    server.stop();
}

#[test]
fn compile_can_return_an_lir_listing() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    let body = format!(
        "{{\"source\": {}, \"strategy\": \"cb\", \"lir\": true}}",
        json::escape(FIR_SRC)
    );
    let resp = conn
        .request("POST", "/compile", Some(&body))
        .expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = json::parse(&resp.text()).expect("valid JSON");
    let lir = doc.get("lir").and_then(Value::as_str).expect("lir listing");
    assert!(!lir.is_empty());
    server.stop();
}

#[test]
fn sweep_returns_a_run_report() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    let body = "{\"bench\": \"fir_32_1\", \"strategies\": [\"base\", \"cb\", \"ideal\"]}";
    let resp = conn.request("POST", "/sweep", Some(body)).expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = json::parse(&resp.text()).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("dualbank-run-report/v1")
    );
    assert_eq!(
        doc.get("jobs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(3)
    );
    server.stop();
}

#[test]
fn sweep_streams_chunked_and_matches_the_buffered_document() {
    let server = TestServer::start(ServerConfig {
        workers: 2,
        jobs: 2,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let mut conn = server.connect();
    let body = "{\"bench\": \"fir_32_1\"}"; // × all 7 strategies

    // HTTP/1.1: the response must arrive as a multi-chunk stream.
    let resp = conn.request("POST", "/sweep", Some(body)).expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert!(
        resp.chunks > 1,
        "a 7-job sweep must stream in more than one chunk, got {}",
        resp.chunks
    );
    let doc = json::parse(&resp.text()).expect("reassembled stream is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("dualbank-run-report/v1")
    );
    assert_eq!(
        doc.get("jobs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(7)
    );
    assert_eq!(doc.get("truncated").and_then(Value::as_bool), Some(false));

    // The same request from an HTTP/1.0 peer gets the buffered
    // fallback; the deterministic view must match the stream exactly.
    let raw = format!(
        "POST /sweep HTTP/1.0\r\nConnection: keep-alive\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let resp10 = conn.raw(raw.as_bytes()).expect("HTTP/1.0 request");
    assert_eq!(resp10.status, 200, "body: {}", resp10.text());
    assert_eq!(resp10.header("transfer-encoding"), None);
    assert_eq!(resp10.chunks, 0, "HTTP/1.0 response must be buffered");
    assert_eq!(
        project_deterministic_json(&resp.text()).expect("project chunked sweep"),
        project_deterministic_json(&resp10.text()).expect("project buffered sweep"),
        "chunked and buffered sweeps must agree on every deterministic field"
    );
    server.stop();
}

#[test]
fn compile_traffic_beside_full_suite_sweeps_is_lossless_and_deterministic() {
    // Two keep-alive connections post 25 compiles each while a third
    // runs two sequential bench-all sweeps through the same executor.
    // No compile may fail or drop; every sweep must stream whole with
    // verified digests; and both sweeps must reduce to the projection
    // of the same 23×7 matrix run in process.
    const COMPILE_CONNS: usize = 2;
    const COMPILES: usize = 25;
    const SWEEPS: usize = 2;
    let server = TestServer::start(ServerConfig {
        // One connection worker per client connection, so the sweeps
        // really run beside the compiles instead of queueing behind
        // them.
        workers: COMPILE_CONNS + 1,
        deadline: Duration::from_secs(600),
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let sweeper = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr, Duration::from_secs(600)).expect("connect");
        (0..SWEEPS)
            .map(|i| {
                conn.request("POST", "/sweep", Some("{\"bench\": \"all\"}"))
                    .unwrap_or_else(|e| panic!("sweep {i} dropped: {e}"))
            })
            .collect::<Vec<_>>()
    });
    let compilers: Vec<_> = (0..COMPILE_CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn =
                    ClientConn::connect(addr, Duration::from_secs(120)).expect("connect");
                for i in 0..COMPILES {
                    let resp = conn
                        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
                        .unwrap_or_else(|e| panic!("connection {c}: compile {i} dropped: {e}"));
                    assert_eq!(
                        resp.status,
                        200,
                        "connection {c}: compile {i}: {}",
                        resp.text()
                    );
                }
            })
        })
        .collect();
    for compiler in compilers {
        compiler.join().expect("compile connection");
    }
    let sweeps = sweeper.join().expect("sweep connection");

    let engine = Engine::new(EngineOptions {
        fuel: ServerConfig::default().fuel,
        ..EngineOptions::default()
    });
    let expected = engine
        .run_matrix(&dsp_workloads::all(), &Strategy::ALL)
        .expect("in-process matrix")
        .deterministic_json();
    for (i, resp) in sweeps.iter().enumerate() {
        let body = resp.text();
        assert_eq!(resp.status, 200, "sweep {i}: {body}");
        assert!(
            resp.chunks > 1,
            "sweep {i} must stream, got {} chunk(s)",
            resp.chunks
        );
        let doc = json::parse(&body).expect("sweep is valid JSON");
        assert_eq!(
            doc.get("truncated").and_then(Value::as_bool),
            Some(false),
            "sweep {i} was truncated"
        );
        assert_eq!(
            verify_report_digests(&body),
            Ok(23 * 7),
            "sweep {i}: every job must carry a valid digest"
        );
        assert_eq!(
            project_deterministic_json(&body).expect("project sweep"),
            expected,
            "sweep {i} differs from the in-process matrix under projection"
        );
    }
    server.stop();
}

#[test]
fn deadline_truncates_a_streamed_sweep_into_a_well_formed_document() {
    // A full-suite sweep cannot finish inside half the time it takes on
    // a single executor thread (161 jobs), but the first cell
    // comfortably can: the stream must start, then be cut short with a
    // well-formed `"truncated": true` tail — never a 504, never a
    // broken document. The full sweep is timed first, on an identical
    // server with a cold cache and no effective deadline, so the
    // premise holds whatever the speed of the host and the build.
    let sweep_body = Some("{\"bench\": \"all\"}");
    let config = |deadline| ServerConfig {
        workers: 1,
        jobs: 1,
        queue_capacity: 4,
        deadline,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let full_sweep = {
        let server = TestServer::start(config(Duration::from_secs(120)));
        let started = Instant::now();
        let resp = server
            .connect()
            .request("POST", "/sweep", sweep_body)
            .expect("request");
        let took = started.elapsed();
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        server.stop();
        took
    };
    let server = TestServer::start(config(full_sweep / 2));
    let mut conn = server.connect();
    let resp = conn.request("POST", "/sweep", sweep_body).expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = json::parse(&resp.text()).expect("truncated stream is still valid JSON");
    assert_eq!(doc.get("truncated").and_then(Value::as_bool), Some(true));
    let jobs = doc
        .get("jobs")
        .and_then(Value::as_array)
        .map(<[Value]>::len)
        .expect("jobs array");
    assert!(
        (1..23 * 7).contains(&jobs),
        "truncated sweep should carry some but not all jobs, got {jobs}"
    );

    // The truncation is counted immediately…
    let metrics = conn.request("GET", "/metrics", None).expect("metrics");
    let text = metrics.text();
    assert!(
        text.contains("dsp_serve_sweep_truncated_total 1"),
        "missing truncation count in:\n{text}"
    );
    // …and the still-queued cells drain as cancellations once the
    // worker finishes its in-flight cell (poll: cancellation is
    // counted at dequeue time, not at cancel time).
    let mut cancelled = 0;
    for _ in 0..150 {
        let text = conn
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text();
        cancelled = text
            .lines()
            .find_map(|l| l.strip_prefix("dsp_serve_exec_cancelled_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("cancelled counter present");
        if cancelled > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        cancelled > 0,
        "deadline must cancel still-queued sweep cells, got {cancelled}"
    );
    server.stop();
}

#[test]
fn stop_closes_an_idle_keep_alive_connection_at_once() {
    // The worker serving this connection waits between requests for up
    // to `read_timeout`; a stop must not wait that out.
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_secs(120),
        ..small_config()
    });
    let mut conn = server.connect();
    let resp = conn.request("GET", "/healthz", None).expect("request");
    assert_eq!(resp.status, 200);
    let started = Instant::now();
    server.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop took {:?} with one idle keep-alive client",
        started.elapsed()
    );
    // The server closed the connection rather than leaving it open.
    assert!(conn.request("GET", "/healthz", None).is_err());
}

#[test]
fn stop_still_answers_a_queued_connection_whose_request_arrives_after_it() {
    // One connection worker, held by an idle keep-alive client, so the
    // second connection waits in the queue. Its request is sent only
    // after the stop: a draining server closes the idle connection but
    // still answers the queued one's first request.
    let server = TestServer::start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(120),
        ..small_config()
    });
    let mut idle = server.connect();
    let resp = idle.request("GET", "/healthz", None).expect("request");
    assert_eq!(resp.status, 200);
    let mut queued = server.connect();
    // The idle connection holds the only worker: ask through it until
    // the second connection is accepted and waiting in the queue.
    let started = Instant::now();
    while !idle
        .request("GET", "/metrics", None)
        .expect("metrics")
        .text()
        .contains("dsp_serve_queue_depth 1")
    {
        assert!(started.elapsed() < Duration::from_secs(10), "never queued");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.handle.shutdown();
    // Long enough for the worker to see the stop and pop the queued
    // connection before its request leaves the client.
    std::thread::sleep(Duration::from_millis(300));
    let resp = queued
        .request("GET", "/healthz", None)
        .expect("queued connection answered after the stop");
    assert_eq!(resp.status, 200);
    assert!(idle.request("GET", "/healthz", None).is_err());
    let started = Instant::now();
    server.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop took {:?} after the drain",
        started.elapsed()
    );
}

#[test]
fn interactive_compile_overtakes_an_in_flight_sweep() {
    // One executor thread, and a sweep of a program whose cells each
    // simulate 3 million cycles, so the sweep keeps the pool busy
    // however fast the compiler is. A /compile submitted mid-sweep is
    // Interactive: it waits only on the one running cell, not the whole
    // queue, so it must complete while the sweep is still streaming.
    let server = TestServer::start(ServerConfig {
        workers: 2,
        jobs: 1,
        queue_capacity: 8,
        deadline: Duration::from_secs(120),
        read_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let body = format!("{{\"source\": {}}}", json::escape(LONG_SRC));
    let sweep = std::thread::spawn(move || {
        let mut conn = ClientConn::connect(addr, Duration::from_secs(300)).expect("connect");
        conn.request("POST", "/sweep", Some(&body))
    });
    // Wait until the sweep's batch cells are running: one on the
    // executor thread, the rest queued behind it.
    let mut conn = server.connect();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = conn
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text();
        let queued = text
            .lines()
            .find_map(|l| l.strip_prefix("dsp_serve_exec_queue_depth{priority=\"batch\"} "))
            .and_then(|v| v.trim().parse::<u64>().ok());
        if metric(&text, "dsp_serve_exec_busy") == Some(1) && queued.is_some_and(|q| q > 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the sweep's cells never started:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());

    // Snapshot metrics before the sweep completes: the compile is done
    // (interactive job executed) while the sweep is still in flight.
    let metrics = conn.request("GET", "/metrics", None).expect("metrics");
    let text = metrics.text();
    assert!(
        text.contains("dsp_serve_exec_jobs_total{priority=\"interactive\"} 1"),
        "compile must run as an interactive executor job:\n{text}"
    );
    assert!(
        !text.contains("dsp_serve_requests_total{endpoint=\"sweep\""),
        "the sweep must still be streaming when the compile finishes:\n{text}"
    );

    let sweep_resp = sweep.join().expect("sweep thread").expect("sweep request");
    assert_eq!(sweep_resp.status, 200, "body: {}", sweep_resp.text());
    let doc = json::parse(&sweep_resp.text()).expect("valid JSON");
    assert_eq!(doc.get("truncated").and_then(Value::as_bool), Some(false));
    assert_eq!(
        doc.get("jobs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(Strategy::ALL.len())
    );
    server.stop();
}

#[test]
fn client_disconnect_mid_sweep_cancels_queued_cells_and_frees_the_worker() {
    use std::io::{Read, Write};

    // One executor thread and a 23-cell sweep: dropping the client
    // mid-stream must cancel the still-queued cells (the peer is gone;
    // computing for it is waste) and hand the connection worker back.
    let server = TestServer::start(ServerConfig {
        workers: 2,
        jobs: 1,
        queue_capacity: 8,
        deadline: Duration::from_secs(120),
        read_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    });
    let body = "{\"bench\": \"all\", \"strategies\": [\"base\"]}";
    let mut victim = TcpStream::connect(server.addr).expect("connect");
    let raw = format!(
        "POST /sweep HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    victim.write_all(raw.as_bytes()).expect("send sweep");
    // Wait for the response head, so the sweep is provably streaming,
    // then vanish without a goodbye. The unread tail makes the close
    // a hard reset, which the server sees on its next chunk write.
    victim
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut first = [0u8; 64];
    let n = victim.read(&mut first).expect("first response bytes");
    assert!(n > 0, "sweep never started streaming");
    drop(victim);

    let mut conn = server.connect();
    let (mut cancelled, mut busy) = (0, u64::MAX);
    for _ in 0..300 {
        let text = conn
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text();
        cancelled = metric(&text, "dsp_serve_exec_cancelled_total").expect("cancelled counter");
        busy = metric(&text, "dsp_serve_exec_busy").expect("busy gauge");
        if cancelled > 0 && busy == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        cancelled > 0,
        "disconnect must cancel still-queued sweep cells, got {cancelled}"
    );
    assert_eq!(
        busy, 0,
        "the executor must go idle after the client vanishes"
    );

    // The connection worker is back in the pool: fresh work completes.
    let resp = server
        .connect()
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request after disconnect");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    server.stop();
}

#[test]
fn trickled_request_bytes_hit_the_read_deadline_with_a_408() {
    use std::io::{Read, Write};

    // One byte per 100 ms defeats any per-read idle timeout (2 s here)
    // because every read makes progress; only the whole-request read
    // deadline can unpin the worker. This is the request-side twin of
    // the upstream trickle defense in the router's client.
    for front in front_ends(Limits {
        workers: 1,
        queue_capacity: 4,
        read_timeout: Duration::from_secs(2),
        read_deadline: Duration::from_millis(600),
    }) {
        let slow = TcpStream::connect(front.addr).expect("connect");
        let mut reader = slow.try_clone().expect("clone");
        reader
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");

        let started = Instant::now();
        let writer = std::thread::spawn(move || {
            let mut slow = slow;
            if slow
                .write_all(b"POST /compile HTTP/1.1\r\nContent-Length: 1000\r\n\r\n")
                .is_err()
            {
                return;
            }
            // Trickle body bytes until the server hangs up on us.
            while slow.write_all(b"x").is_ok() {
                std::thread::sleep(Duration::from_millis(100));
                if started.elapsed() > Duration::from_secs(30) {
                    return; // the assert below reports the failure
                }
            }
        });
        // Read concurrently so the 408 is captured before the reset that
        // follows the server's close can discard it.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        writer.join().expect("writer thread");
        let text = String::from_utf8_lossy(&buf);
        assert!(
            text.starts_with("HTTP/1.1 408"),
            "{}: expected a 408 read-deadline response, got: {text:?}",
            front.prefix
        );
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "{}: the 408 must arrive on the deadline, not the fuel of patience",
            front.prefix
        );

        let metrics = front
            .connect()
            .request("GET", "/metrics", None)
            .expect("metrics")
            .text();
        let family = format!("{}_read_deadline_total 1", front.prefix);
        assert!(metrics.contains(&family), "{metrics}");
        front.stop();
    }
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    // 1 worker, queue of 1: the worker is pinned by one idle
    // connection, a second idles in the queue, so a third must be
    // rejected at accept time.
    for front in front_ends(Limits {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(5),
        read_deadline: Duration::from_secs(15),
    }) {
        let pinned = TcpStream::connect(front.addr).expect("connect");
        std::thread::sleep(Duration::from_millis(150)); // worker pops it
        let queued = TcpStream::connect(front.addr).expect("connect");
        std::thread::sleep(Duration::from_millis(150)); // sits in queue

        let mut rejected = front.connect();
        let resp = rejected
            .request("GET", "/healthz", None)
            .expect("server must answer the rejected connection");
        assert_eq!(resp.status, 503, "{}", front.prefix);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let text = resp.text();
        assert!(text.contains("capacity"), "{text}");

        // Free the worker, then read the counter. A scrape that lands
        // while the queued connection still fills the queue is itself
        // rejected, and counted.
        drop(pinned);
        drop(queued);
        let mut rejections = 1;
        let metrics = loop {
            let resp = front
                .connect()
                .request("GET", "/metrics", None)
                .expect("metrics");
            if resp.status == 200 {
                break resp.text();
            }
            rejections += 1;
            std::thread::sleep(Duration::from_millis(20));
        };
        let family = format!("{}_rejected_total", front.prefix);
        assert_eq!(metric(&metrics, &family), Some(rejections), "{metrics}");
        front.stop();
    }
}

#[test]
fn deadline_answers_504() {
    let server = TestServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        deadline: Duration::from_millis(200),
        // Plenty of fuel so the job reliably outlives the deadline;
        // the abandoned thread dies with the test process.
        fuel: 2_000_000_000,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let mut conn = server.connect();
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(SLOW_SRC, "base")))
        .expect("request");
    assert_eq!(resp.status, 504, "body: {}", resp.text());
    assert!(resp.text().contains("deadline"), "{}", resp.text());

    // The worker is free again afterwards.
    let mut again = server.connect();
    let health = again.request("GET", "/healthz", None).expect("request");
    assert_eq!(health.status, 200);
    server.stop();
}

#[test]
fn metrics_expose_the_documented_families() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    conn.request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    conn.request("GET", "/healthz", None).expect("request");
    let resp = conn.request("GET", "/metrics", None).expect("request");
    assert_eq!(resp.status, 200);
    let text = resp.text();
    for family in [
        "# TYPE dsp_serve_up gauge",
        "# TYPE dsp_serve_queue_depth gauge",
        "dsp_serve_queue_capacity 8",
        "dsp_serve_workers 2",
        "# TYPE dsp_serve_workers_busy gauge",
        "# TYPE dsp_serve_connections_total counter",
        "# TYPE dsp_serve_rejected_total counter",
        "# TYPE dsp_serve_deadline_timeouts_total counter",
        "dsp_serve_requests_total{endpoint=\"compile\",status=\"200\"} 1",
        "dsp_serve_requests_total{endpoint=\"healthz\",status=\"200\"} 1",
        "dsp_serve_cache_hits_total{layer=\"prepared\"}",
        "dsp_serve_cache_misses_total{layer=\"artifact\"} 1",
        "dsp_serve_cache_evictions_total{layer=\"prepared\"} 0",
        "dsp_serve_cache_resident{layer=\"artifact\"} 1",
        "# TYPE dsp_serve_cache_bytes gauge",
        "dsp_serve_cache_evicted_bytes_total{layer=\"artifact\"} 0",
        "# TYPE dsp_serve_sweep_truncated_total counter",
        "# TYPE dsp_serve_exec_workers gauge",
        "dsp_serve_exec_jobs_total{priority=\"interactive\"} 1",
        "dsp_serve_exec_cancelled_total 0",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    server.stop();
}

#[test]
fn metrics_expose_trace_histogram_families_with_consistent_sums() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    conn.request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    conn.request(
        "POST",
        "/sweep",
        Some("{\"bench\": \"fir_32_1\", \"strategies\": [\"cb\"]}"),
    )
    .expect("request");
    let text = conn
        .request("GET", "/metrics", None)
        .expect("request")
        .text();
    for family in [
        "# TYPE dsp_serve_http_request_seconds histogram",
        "dsp_serve_http_request_seconds_count{endpoint=\"compile\",status=\"200\"} 1",
        "dsp_serve_http_request_seconds_count{endpoint=\"sweep\",status=\"200\"} 1",
        "# TYPE dsp_serve_exec_queue_wait_seconds histogram",
        "dsp_serve_exec_queue_wait_seconds_count{class=\"interactive\"} 1",
        "dsp_serve_exec_queue_wait_seconds_count{class=\"batch\"} 1",
        "# TYPE dsp_serve_stage_seconds histogram",
        "dsp_serve_stage_seconds_count{stage=\"parse\"}",
        "dsp_serve_stage_seconds_count{stage=\"partition\",partitioner=\"greedy\"}",
        "dsp_serve_stage_seconds_count{stage=\"simulate\"}",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // Every `_bucket` series must be cumulative (monotone, ending at
    // `_count` on the `+Inf` bound), and a nonzero `_count` must come
    // with a nonzero `_sum`.
    for series in [
        "dsp_serve_http_request_seconds",
        "dsp_serve_exec_queue_wait_seconds",
        "dsp_serve_stage_seconds",
    ] {
        let mut counts = std::collections::BTreeMap::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(series) else {
                continue;
            };
            let (kind, value) = rest.split_once('}').expect("labelled series");
            let value = value.trim();
            if let Some(labels) = kind.strip_prefix("_bucket{") {
                let labels = labels.split(",le=").next().expect("le label");
                let v: u64 = value.parse().expect("bucket count");
                let (last, inf) = counts.entry(labels.to_string()).or_insert((0u64, 0u64));
                assert!(v >= *last, "non-monotone bucket in {series}: {line}");
                *last = v;
                if kind.contains("le=\"+Inf\"") {
                    *inf = v;
                }
            } else if let Some(labels) = kind.strip_prefix("_count{") {
                let v: u64 = value.parse().expect("count");
                let (_, inf) = counts
                    .get(labels)
                    .unwrap_or_else(|| panic!("count without buckets: {line}"));
                assert_eq!(v, *inf, "+Inf bucket != _count for {series}{{{labels}}}");
                if v > 0 {
                    let sum_line = format!("{series}_sum{{{labels}}}");
                    let sum: f64 = text
                        .lines()
                        .find_map(|l| l.strip_prefix(&sum_line))
                        .expect("sum line present")
                        .trim()
                        .parse()
                        .expect("sum value");
                    assert!(sum > 0.0, "zero _sum with nonzero _count: {series}{labels}");
                }
            }
        }
        assert!(!counts.is_empty(), "no series found for {series}");
    }
    server.stop();
}

/// One raw HTTP/1.1 request with arbitrary extra headers.
fn raw_request(
    conn: &mut ClientConn,
    method: &str,
    path: &str,
    headers: &str,
    body: &str,
) -> dsp_serve::client::ClientResponse {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.raw(raw.as_bytes()).expect("raw request")
}

#[test]
fn request_ids_are_echoed_minted_and_sanitized() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();

    // No client ID: the server mints one from the trace ID (16 hex
    // chars) and puts it in the header and the response body.
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    let minted = resp.header("x-request-id").expect("minted id").to_string();
    assert_eq!(minted.len(), 16, "trace-derived id is 16 hex chars");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
    let doc = json::parse(&resp.text()).expect("valid JSON");
    assert_eq!(
        doc.get("request_id").and_then(Value::as_str),
        Some(minted.as_str())
    );

    // A sane client-supplied ID wins and is echoed verbatim.
    let resp = raw_request(
        &mut conn,
        "POST",
        "/compile",
        "X-Request-Id: client.id-42\r\n",
        &compile_body(FIR_SRC, "cb"),
    );
    assert_eq!(resp.header("x-request-id"), Some("client.id-42"));

    // A hostile one is sanitized before it is echoed anywhere.
    let resp = raw_request(
        &mut conn,
        "POST",
        "/compile",
        "X-Request-Id: abc\"<&>/def\r\n",
        &compile_body(FIR_SRC, "cb"),
    );
    assert_eq!(resp.header("x-request-id"), Some("abcdef"));

    // Non-compute endpoints carry the header too.
    let resp = conn.request("GET", "/healthz", None).expect("request");
    assert!(resp.header("x-request-id").is_some());
    server.stop();
}

#[test]
fn sweep_is_followable_end_to_end_by_request_id() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    let resp = raw_request(
        &mut conn,
        "POST",
        "/sweep",
        "X-Request-Id: e2e-follow-1\r\n",
        "{\"bench\": \"fir_32_1\", \"strategies\": [\"cb\"]}",
    );
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.header("x-request-id"), Some("e2e-follow-1"));
    let doc = json::parse(&resp.text()).expect("valid JSON");
    let jobs = doc.get("jobs").and_then(Value::as_array).expect("jobs[]");
    assert!(!jobs.is_empty());
    for job in jobs {
        assert_eq!(
            job.get("request_id").and_then(Value::as_str),
            Some("e2e-follow-1"),
            "every streamed job object carries the request id"
        );
    }

    // Find the sweep's root span by its request_id attribute, then
    // assert its trace covers the whole pipeline: queue wait, the
    // cell, and every compile stage down to simulation.
    let resp = conn
        .request("GET", "/debug/trace?n=4096", None)
        .expect("request");
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.text()).expect("valid trace JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("dualbank-trace/v1")
    );
    let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
    let root = spans
        .iter()
        .find(|s| {
            s.get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Value::as_str)
                == Some("e2e-follow-1")
        })
        .expect("the sweep's http.request span is in the ring");
    assert_eq!(
        root.get("name").and_then(Value::as_str),
        Some("http.request")
    );
    let trace = root.get("trace").and_then(Value::as_str).expect("trace id");
    let in_trace: Vec<&str> = spans
        .iter()
        .filter(|s| s.get("trace").and_then(Value::as_str) == Some(trace))
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for name in [
        "exec.wait",
        "cell",
        "prepared",
        "parse",
        "opt",
        "local",
        "dce",
        "licm",
        "ivopt",
        "faint-dce",
        "artifact",
        "trial_compaction",
        "partition",
        "regalloc",
        "lower",
        "final_pack",
        "deps",
        "priorities",
        "compact",
        "link",
        "simulate",
        "decode",
        "execute",
    ] {
        assert!(
            in_trace.contains(&name),
            "span `{name}` missing from the request's trace; got {in_trace:?}"
        );
    }
    server.stop();
}

#[test]
fn disabled_tracing_removes_ids_trace_endpoint_and_histograms() {
    let server = TestServer::start(ServerConfig {
        trace: false,
        ..small_config()
    });
    let mut conn = server.connect();

    // No minted IDs…
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), None);
    assert!(!resp.text().contains("request_id"));
    // …but a client-supplied ID is still honored (plain echo, no
    // tracing required).
    let resp = raw_request(
        &mut conn,
        "POST",
        "/compile",
        "X-Request-Id: still-here\r\n",
        &compile_body(FIR_SRC, "cb"),
    );
    assert_eq!(resp.header("x-request-id"), Some("still-here"));

    // /debug/trace distinguishes "off" from "empty".
    let resp = conn.request("GET", "/debug/trace", None).expect("request");
    assert_eq!(resp.status, 404);

    // And the histogram families disappear from /metrics entirely.
    let text = conn
        .request("GET", "/metrics", None)
        .expect("request")
        .text();
    for family in [
        "dsp_serve_http_request_seconds",
        "dsp_serve_exec_queue_wait_seconds",
        "dsp_serve_stage_seconds",
    ] {
        assert!(!text.contains(family), "unexpected `{family}` in:\n{text}");
    }
    server.stop();
}

#[test]
fn hostile_input_never_kills_the_server() {
    for front in front_ends(Limits {
        workers: 2,
        queue_capacity: 8,
        read_timeout: Duration::from_secs(2),
        read_deadline: Duration::from_secs(15),
    }) {
        let who = front.prefix;

        // Raw garbage → 400.
        let mut garbage = front.connect();
        let resp = garbage.raw(b"NOT HTTP AT ALL\r\n\r\n").expect("response");
        assert_eq!(resp.status, 400, "{who}");

        // Oversized body (declared) → 413 without reading it all.
        let mut big = front.connect();
        let resp = big
            .raw(b"POST /compile HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .expect("response");
        assert_eq!(resp.status, 413, "{who}");

        // The compile-body cases need a replica to answer them.
        if !front.routed {
            // Bad JSON → 400 with an error envelope.
            let mut bad_json = front.connect();
            let resp = bad_json
                .request("POST", "/compile", Some("{not json"))
                .expect("response");
            assert_eq!(resp.status, 400);
            assert!(resp.text().contains("error"));

            // Valid JSON, missing fields → 400.
            let mut missing = front.connect();
            let resp = missing
                .request("POST", "/compile", Some("{}"))
                .expect("response");
            assert_eq!(resp.status, 400);

            // Source that does not compile → 400, not a panic.
            let mut uncompilable = front.connect();
            let resp = uncompilable
                .request("POST", "/compile", Some(&compile_body("int $!bad", "cb")))
                .expect("response");
            assert_eq!(resp.status, 400);
        }

        // Unknown path → 404; wrong method → 405.
        let mut nav = front.connect();
        let resp = nav.request("GET", "/nope", None).expect("response");
        assert_eq!(resp.status, 404, "{who}");
        let resp = nav.request("GET", "/compile", None).expect("response");
        assert_eq!(resp.status, 405, "{who}");

        // After all of that, the front-end still works.
        let mut alive = front.connect();
        let resp = alive.request("GET", "/healthz", None).expect("response");
        assert_eq!(resp.status, 200, "{who}");
        front.stop();
    }
}

#[test]
fn deep_recursion_answers_a_well_formed_error_and_the_server_lives() {
    // Its profiling run nests far past the call-stack limit; it once
    // overflowed the worker thread's stack and aborted the process.
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    let src = "int out;
        int down(int n) { if (n == 0) return 0; return down(n - 1) + 1; }
        void main() { out = down(20000); }";
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(src, "pr")))
        .expect("response");
    assert!(
        (400..500).contains(&resp.status),
        "status {}: {}",
        resp.status,
        resp.text()
    );
    let doc = json::parse(&resp.text()).expect("a JSON error envelope");
    let error = doc.get("error").and_then(Value::as_str).expect("an error");
    assert!(error.contains("call-stack overflow"), "{error}");

    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("response");
    assert_eq!(resp.status, 200);
    server.stop();
}

#[test]
fn admin_shutdown_drains_and_stops() {
    let server = TestServer::start(small_config());
    let mut conn = server.connect();
    let resp = conn
        .request("POST", "/admin/shutdown", None)
        .expect("response");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));
    // run() must return on its own; join with the handle path too
    // (idempotent shutdown).
    server.stop();
}

#[test]
fn drain_withdraws_readiness_while_liveness_holds() {
    let server = TestServer::start(ServerConfig {
        drain_grace: Duration::from_millis(400),
        ..small_config()
    });

    // Before the drain both probes agree and the gauge says ready.
    let resp = server
        .connect()
        .request("GET", "/readyz", None)
        .expect("readyz");
    assert_eq!(resp.status, 200);
    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("metrics")
        .text();
    assert!(text.contains("dsp_serve_ready 1"), "{text}");

    let resp = server
        .connect()
        .request("POST", "/admin/shutdown", None)
        .expect("shutdown");
    assert_eq!(resp.status, 200);

    // During the grace window the process is alive (liveness 200, and
    // it still answers real work) but not ready (readiness 503) — the
    // split that lets a router stop routing here without an
    // orchestrator killing the replica mid-drain.
    let resp = server
        .connect()
        .request("GET", "/healthz", None)
        .expect("healthz while draining");
    assert_eq!(resp.status, 200);
    let resp = server
        .connect()
        .request("GET", "/readyz", None)
        .expect("readyz while draining");
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("metrics while draining")
        .text();
    assert!(text.contains("dsp_serve_ready 0"), "{text}");
    let resp = server
        .connect()
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("compile while draining");
    assert_eq!(resp.status, 200, "in-flight work finishes during drain");

    server.stop();
}

#[test]
fn replica_id_tags_every_response_and_the_metrics() {
    let server = TestServer::start(ServerConfig {
        replica_id: Some("r-test".to_string()),
        ..small_config()
    });

    let resp = server
        .connect()
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("compile");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-dsp-replica"), Some("r-test"));
    let resp = server
        .connect()
        .request("GET", "/healthz", None)
        .expect("healthz");
    assert_eq!(resp.header("x-dsp-replica"), Some("r-test"));

    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("metrics")
        .text();
    assert!(
        text.contains("dsp_serve_replica_info{replica=\"r-test\"} 1"),
        "{text}"
    );

    server.stop();
}

#[test]
fn disk_backed_server_warm_starts_and_exposes_disk_metrics() {
    let dir = std::env::temp_dir().join(format!("dualbank-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..small_config()
    };

    // First server: the compile misses disk, then publishes.
    let server = TestServer::start(disk_config());
    let mut conn = server.connect();
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("request")
        .text();
    assert!(
        text.contains("dsp_serve_cache_disk_misses_total 1"),
        "cold compile must miss disk:\n{text}"
    );
    assert!(text.contains("dsp_serve_cache_disk_entries 1"), "{text}");
    server.stop();

    // Second server over the same directory: warm start — the same
    // compile rehydrates from disk. A hostile request first must not
    // disturb the store (it never reaches the cache).
    let server = TestServer::start(disk_config());
    let resp = server
        .connect()
        .raw(b"POST /compile HTTP/1.1\r\nContent-Length: nonsense\r\n\r\n")
        .expect("response");
    assert_eq!(resp.status, 400, "unparsable Content-Length is a 400");
    let mut conn = server.connect();
    let resp = conn
        .request("POST", "/compile", Some(&compile_body(FIR_SRC, "cb")))
        .expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("request")
        .text();
    assert!(
        text.contains("dsp_serve_cache_disk_hits_total 1"),
        "warm compile must hit disk:\n{text}"
    );
    assert!(
        text.contains("dsp_serve_cache_disk_quarantined_total 0"),
        "{text}"
    );
    server.stop();

    // A store-less server must not emit the disk families at all, so
    // dashboards can tell "no disk configured" from "disk idle".
    let server = TestServer::start(small_config());
    let text = server
        .connect()
        .request("GET", "/metrics", None)
        .expect("request")
        .text();
    assert!(
        !text.contains("dsp_serve_cache_disk"),
        "disk families must be absent without a store:\n{text}"
    );
    server.stop();

    let _ = std::fs::remove_dir_all(&dir);
}
