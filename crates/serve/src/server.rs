//! The server: accept loop → bounded queue → connection workers →
//! shared compute executor.
//!
//! ```text
//!             ┌─────────────┐   try_push    ┌──────────────────┐
//!  clients ──▶│ accept loop │──────────────▶│ BoundedQueue<Tcp> │
//!             │ (run thread)│  full → 503   └────────┬─────────┘
//!             └─────────────┘                        │ pop
//!                                     ┌──────────────▼─────────────┐
//!                                     │ workers: parse HTTP, route │
//!                                     │ submit jobs, stream results│
//!                                     └──────────────┬─────────────┘
//!                                         submit     │  wait/stream
//!                                     ┌──────────────▼─────────────┐
//!                                     │  dsp-exec shared executor  │
//!                                     │ /compile = Interactive     │
//!                                     │ /sweep cells = Batch       │
//!                                     └──────────────┬─────────────┘
//!                                                    ▼
//!                                        dsp-driver Engine + cache
//!                                          (shared via Arc)
//! ```
//!
//! Each queued item is one TCP connection; a worker owns it for its
//! keep-alive lifetime (bounded by the read timeout). Connection
//! workers never compile inline: compute requests are decomposed into
//! per-cell jobs on the process-wide [`Executor`] — `/compile` at
//! [`Priority::Interactive`] so it jumps queued sweep work, `/sweep`
//! cells at [`Priority::Batch`]. The worker waits on job handles under
//! the request deadline; a `/sweep` to an HTTP/1.1 peer streams its
//! `jobs[]` array back with `Transfer-Encoding: chunked` as cells
//! finish, in matrix order. On deadline, still-queued cells are
//! cancelled out of the executor; a sweep that already streamed output
//! closes the document with `"truncated": true`, and only a request
//! with nothing on the wire yet gets a 504.
//!
//! Graceful shutdown (the `/admin/shutdown` endpoint or
//! [`ServerHandle::shutdown`]) stops the accept loop, closes the
//! queue, lets workers drain queued connections, and joins them. A
//! keep-alive connection idle between requests closes at once rather
//! than holding its worker for the read timeout; a request that has
//! begun to arrive, or a queued connection's first request, is still
//! answered.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_backend::{CompileConfig, PartitionerKind, Strategy};
use dsp_driver::json::{self, ObjectWriter, Value};
use dsp_driver::{
    sweep_json_prefix, sweep_json_tail, CancelToken, Engine, EngineOptions, Executor, JobReport,
    MatrixRun, Priority, SpanCtx, Tracer, WaitOutcome,
};
use dsp_workloads::{Benchmark, Kind};

use crate::http::{
    await_request, poll_slice, read_request_deadline, ChunkedWriter, Request, RequestError,
    Response,
};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Connection-worker threads; `0` means
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Compute-executor threads; `0` means
    /// [`std::thread::available_parallelism`]. One executor serves
    /// every request, so this — not `workers` — sizes the machine's
    /// compile throughput.
    pub jobs: usize,
    /// Accept-queue capacity (connections beyond this get 503).
    pub queue_capacity: usize,
    /// Wall-clock deadline per compute request (`/compile`, `/sweep`);
    /// exceeding it answers 504.
    pub deadline: Duration,
    /// Maximum request-body size in bytes (beyond → 413).
    pub max_body: usize,
    /// Simulator fuel per job (runaway guard under the deadline).
    pub fuel: u64,
    /// Engine cache bound (entries per layer); `None` = unbounded.
    pub cache_capacity: Option<NonZeroUsize>,
    /// Engine cache byte budget (estimated bytes per layer); `None` =
    /// unbounded. Composes with `cache_capacity`: whichever limit is
    /// hit first evicts.
    pub cache_max_bytes: Option<u64>,
    /// Directory of the persistent on-disk artifact store; `None` =
    /// in-memory only. On boot the store's startup sweep warms the
    /// engine from entries published by previous processes; every disk
    /// failure degrades to in-memory operation (counted in `/metrics`,
    /// never fatal).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store (LRU-by-mtime eviction);
    /// `None` = unbounded. Only meaningful with `cache_dir`.
    pub cache_disk_max_bytes: Option<u64>,
    /// Longest wait for the peer's next bytes — also the idle
    /// keep-alive lifetime, so a silent client cannot pin a worker.
    pub read_timeout: Duration,
    /// Whole-request read budget, measured from the first request
    /// byte: a client trickling bytes (each gap shorter than
    /// `read_timeout`) still cannot pin a worker past this. Exceeding
    /// it answers 408 and closes. `ZERO` disables.
    pub read_deadline: Duration,
    /// Whether to record spans and latency histograms (request IDs,
    /// `/debug/trace`, the `dsp_serve_*_seconds` metric families).
    /// Disabling reduces the server to the exact pre-tracing hot path.
    pub trace: bool,
    /// This replica's identity in a multi-node fleet: echoed on every
    /// response as `X-Dsp-Replica` and rendered as
    /// `dsp_serve_replica_info` in `/metrics`. `None` (single-node)
    /// adds neither.
    pub replica_id: Option<String>,
    /// How long `/admin/shutdown` keeps serving after flipping
    /// readiness off. During the window `/readyz` answers 503 (load
    /// balancers eject the replica and drain it from their hash
    /// rings) while `/healthz` stays 200 and in-flight plus new
    /// requests still complete. `ZERO` shuts down immediately after
    /// the shutdown response, the single-node behavior.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            jobs: 0,
            queue_capacity: 64,
            deadline: Duration::from_secs(10),
            max_body: 1024 * 1024,
            fuel: 200_000_000,
            cache_capacity: NonZeroUsize::new(256),
            cache_max_bytes: None,
            cache_dir: None,
            cache_disk_max_bytes: None,
            read_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(15),
            trace: true,
            replica_id: None,
            drain_grace: Duration::ZERO,
        }
    }
}

struct Shared {
    config: ServerConfig,
    engine: Engine,
    queue: BoundedQueue<TcpStream>,
    metrics: Metrics,
    tracer: Arc<Tracer>,
    shutdown: AtomicBool,
    /// Readiness is withdrawn (`/readyz` → 503) ahead of the actual
    /// shutdown so a drain window can exist between the two.
    draining: AtomicBool,
    workers: usize,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Remote control for a running [`Server`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful shutdown: stop accepting, drain queued and
    /// in-flight requests, then let [`Server::run`] return. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind to `config.addr` and build the engine. The server is not
    /// serving until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            config.workers
        };
        // One tracer feeds every layer: request spans here, queue-wait
        // spans in the executor, stage spans in the engine, histogram
        // families in `/metrics`. Disabled = the no-op recorder.
        let tracer = if config.trace {
            Tracer::new(8192)
        } else {
            Tracer::disabled()
        };
        dsp_trace::log::route_events_to(&tracer);
        // One machine-sized executor for every compute job in the
        // process; connection workers only parse, submit, and stream.
        let exec = Arc::new(Executor::with_tracer(config.jobs, Arc::clone(&tracer)));
        let engine = Engine::with_executor(
            EngineOptions {
                fuel: config.fuel,
                cache_capacity: config.cache_capacity,
                cache_max_bytes: config.cache_max_bytes,
                cache_dir: config.cache_dir.clone(),
                cache_disk_max_bytes: config.cache_disk_max_bytes,
                tracer: Arc::clone(&tracer),
                ..EngineOptions::default()
            },
            exec,
        );
        let queue = BoundedQueue::new(config.queue_capacity);
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                config,
                engine,
                queue,
                metrics: Metrics::new(Arc::clone(&tracer)),
                tracer,
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                workers,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many job workers the shared executor runs (resolved from
    /// [`ServerConfig::jobs`], where 0 means all cores).
    #[must_use]
    pub fn executor_workers(&self) -> usize {
        self.shared.engine.executor().workers()
    }

    /// The persistent store's startup-sweep report, when
    /// [`ServerConfig::cache_dir`] is set — what the boot banner prints
    /// as the warm-start summary.
    #[must_use]
    pub fn disk_sweep(&self) -> Option<&dsp_driver::DiskSweep> {
        self.shared.engine.cache().store().map(|s| s.sweep())
    }

    /// A handle for shutting the server down from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr,
        }
    }

    /// Serve until a graceful shutdown is requested, then drain and
    /// return. Runs the accept loop on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop transport failures (individual
    /// per-connection errors are handled, not propagated).
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::with_capacity(self.shared.workers);
        for i in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dsp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            self.shared
                .metrics
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_read_timeout(Some(poll_slice(self.shared.config.read_timeout)));
            let _ = stream.set_nodelay(true);
            match self.shared.queue.try_push(stream) {
                Ok(()) => {}
                Err(PushError::Full(mut stream)) => {
                    self.shared
                        .metrics
                        .rejected_total
                        .fetch_add(1, Ordering::Relaxed);
                    let resp = Response::error(503, "server is at capacity, retry shortly")
                        .with_header("Retry-After", "1".to_string());
                    let _ = resp.write_to(&mut stream, false);
                }
                Err(PushError::Closed(_)) => break,
            }
        }

        // Shutdown: close the queue (idempotent), drain, join.
        self.shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(mut stream) = shared.queue.pop() {
        shared.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        handle_connection(shared, &mut stream);
        shared.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve one connection for its keep-alive lifetime. Never panics on
/// peer input: every parse failure maps to a 4xx and a close.
fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let idle = shared.config.read_timeout;
    let mut between_requests = false;
    loop {
        // A connection's first request is awaited by the read alone, so
        // one accepted before a stop is still answered; between
        // keep-alive requests a stop closes the connection at once.
        if between_requests && !await_request(stream, &shared.shutdown, idle) {
            return;
        }
        between_requests = true;
        let request = match read_request_deadline(
            stream,
            shared.config.max_body,
            Some(idle),
            shared.config.read_deadline,
        ) {
            Ok(r) => r,
            Err(RequestError::Closed | RequestError::TimedOut | RequestError::Io(_)) => return,
            Err(RequestError::ReadDeadline) => {
                shared
                    .metrics
                    .read_deadline_total
                    .fetch_add(1, Ordering::Relaxed);
                let _ =
                    Response::error(408, "request read deadline exceeded").write_to(stream, false);
                return;
            }
            Err(RequestError::BodyTooLarge { declared, limit }) => {
                let msg =
                    format!("request body of {declared} bytes exceeds the {limit}-byte limit");
                let _ = Response::error(413, &msg).write_to(stream, false);
                return;
            }
            Err(RequestError::Malformed(why)) => {
                let _ = Response::error(400, why).write_to(stream, false);
                return;
            }
        };

        let started = Instant::now();
        let endpoint = Metrics::endpoint_label(&request.path);
        // Root span of this request's trace; executor queue-wait and
        // pipeline-stage spans parent onto it. A router-injected
        // `X-Dsp-Traceparent` is adopted so this replica's spans join
        // the caller's trace (parented onto its `router.upstream`
        // span); a malformed value falls back to a fresh trace. A
        // no-op when tracing is disabled (ctx stays `SpanCtx::NONE`,
        // attrs are dropped).
        let parent = if shared.tracer.is_enabled() {
            request
                .header("x-dsp-traceparent")
                .and_then(dsp_trace::parse_traceparent)
                .unwrap_or_else(|| shared.tracer.new_trace())
        } else {
            SpanCtx::NONE
        };
        let mut span = shared.tracer.span("http.request", "serve", parent);
        let root = span.ctx();
        let req_id = request_id(&request, root);
        span.attr("method", &request.method);
        span.attr("path", &request.path);
        if let Some(id) = &req_id {
            span.attr("request_id", id);
        }

        // `/sweep` writes its own response — chunked for HTTP/1.1
        // peers — so it bypasses the buffered route path.
        if request.method == "POST" && request.path == "/sweep" {
            let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
            let outcome = handle_sweep(
                shared,
                &request,
                stream,
                keep_alive,
                root,
                req_id.as_deref(),
            );
            span.attr("status", &outcome.status.to_string());
            drop(span);
            shared
                .metrics
                .record_request(endpoint, outcome.status, started.elapsed());
            if !outcome.io_ok || !keep_alive {
                return;
            }
            continue;
        }

        let (response, trigger_shutdown) = route(shared, &request, root, req_id.as_deref());
        let response = match &req_id {
            Some(id) => response.with_header("X-Request-Id", id.clone()),
            None => response,
        };
        let response = match &shared.config.replica_id {
            Some(rid) => response.with_header("X-Dsp-Replica", rid.clone()),
            None => response,
        };
        span.attr("status", &response.status.to_string());
        drop(span);
        shared
            .metrics
            .record_request(endpoint, response.status, started.elapsed());

        let shutting_down = shared.shutdown.load(Ordering::SeqCst) || trigger_shutdown;
        let keep_alive = request.keep_alive() && !shutting_down;
        if response.write_to(stream, keep_alive).is_err() {
            return;
        }
        if trigger_shutdown {
            // After answering: stop accepting and drain — immediately
            // with no grace, else after the drain window during which
            // the replica keeps serving but reports not-ready.
            let handle = ServerHandle {
                shared: Arc::clone(shared),
                // Fallback never used in practice; shutdown() only
                // needs the addr for the accept-loop wakeup. Built
                // infallibly — no parse/expect on the request path.
                addr: stream
                    .local_addr()
                    .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0))),
            };
            let grace = shared.config.drain_grace;
            if grace.is_zero() {
                handle.shutdown();
            } else {
                std::thread::spawn(move || {
                    std::thread::sleep(grace);
                    handle.shutdown();
                });
            }
        }
        if !keep_alive {
            return;
        }
    }
}

/// Dispatch one request. The bool asks the caller to begin shutdown
/// after the response is written.
fn route(
    shared: &Arc<Shared>,
    request: &Request,
    root: SpanCtx,
    req_id: Option<&str>,
) -> (Response, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        // Liveness: "the process serves requests" — stays 200 while
        // draining so orchestrators don't kill a replica that is
        // gracefully finishing its work.
        ("GET", "/healthz") => (
            Response::json(200, "{\"status\": \"ok\"}\n".to_string()),
            false,
        ),
        // Readiness: "send me new work" — withdrawn the moment a drain
        // begins, which is what routers and load balancers probe.
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::SeqCst) {
                (
                    Response::error(503, "draining: not ready for new work"),
                    false,
                )
            } else {
                (
                    Response::json(200, "{\"status\": \"ready\"}\n".to_string()),
                    false,
                )
            }
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render(
                shared.queue.len(),
                shared.config.queue_capacity,
                shared.workers,
                &shared.engine.cache().stats(),
                shared.engine.cache().resident(),
                &shared.engine.executor().stats(),
                !shared.draining.load(Ordering::SeqCst),
                shared.config.replica_id.as_deref(),
            );
            (Response::text(200, &text), false)
        }
        ("GET", "/debug/trace") => (handle_debug_trace(shared, &request.query), false),
        ("POST", "/compile") => (handle_compile(shared, &request.body, root, req_id), false),
        ("POST", "/admin/shutdown") => {
            // Readiness is withdrawn before the response goes out, so
            // a router probing `/readyz` stops routing here even if
            // the drain grace keeps the process serving for a while.
            shared.draining.store(true, Ordering::SeqCst);
            (
                Response::json(200, "{\"status\": \"draining\"}\n".to_string()),
                true,
            )
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/debug/trace" | "/compile" | "/sweep"
            | "/admin/shutdown",
        ) => (
            Response::error(405, "method not allowed for this path"),
            false,
        ),
        _ => (Response::error(404, "no such endpoint"), false),
    }
}

/// The request's correlation ID: a client-supplied `X-Request-Id`
/// (sanitized to `[A-Za-z0-9._:-]`, at most 64 chars) wins; otherwise
/// the trace ID is minted into one; with tracing off and no client
/// header there is none.
fn request_id(request: &Request, root: SpanCtx) -> Option<String> {
    let client: Option<String> = request.header("x-request-id").map(|v| {
        v.chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
            .take(64)
            .collect()
    });
    match client {
        Some(id) if !id.is_empty() => Some(id),
        _ if root.trace != 0 => Some(format!("{:016x}", root.trace)),
        _ => None,
    }
}

/// The value of `key` in a query string like `a=1&b=2` (no percent
/// decoding — trace parameters are plain integers).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `GET /debug/trace?n=K`: the most recent `K` finished spans (default
/// 256, clamped to 1..=4096) as a JSON document, oldest first. 404
/// when tracing is disabled so probes can tell "off" from "empty".
fn handle_debug_trace(shared: &Shared, query: &str) -> Response {
    if !shared.tracer.is_enabled() {
        return Response::error(404, "tracing is disabled on this server");
    }
    let n = query_param(query, "n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256)
        .clamp(1, 4096);
    let spans = shared.tracer.snapshot(n);
    let mut body = String::with_capacity(64 + spans.len() * 192);
    body.push_str("{\"schema\": \"dualbank-trace/v1\", \"dropped\": ");
    body.push_str(&shared.tracer.dropped().to_string());
    body.push_str(", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        body.push_str(if i == 0 { "\n" } else { ",\n" });
        body.push_str(&dsp_trace::export::span_json(s));
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

/// Parse a request body as a JSON object.
fn parse_body(body: &[u8]) -> Result<Value, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "request body is not UTF-8"))?;
    let value =
        json::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))?;
    if matches!(value, Value::Object(_)) {
        Ok(value)
    } else {
        Err(Response::error(400, "request body must be a JSON object"))
    }
}

fn parse_strategies(body: &Value) -> Result<Vec<Strategy>, Response> {
    match body.get("strategies") {
        None => Ok(Strategy::ALL.to_vec()),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| Response::error(400, "`strategies` must be an array of names"))?;
            if items.is_empty() {
                return Err(Response::error(400, "`strategies` must not be empty"));
            }
            items
                .iter()
                .map(|s| {
                    s.as_str()
                        .ok_or_else(|| {
                            Response::error(400, "`strategies` must contain only strings")
                        })
                        .and_then(|name| {
                            Strategy::parse(name).map_err(|e| Response::error(400, &e))
                        })
                })
                .collect()
        }
    }
}

/// Parse the optional `"partitioner"` body field shared by `/compile`
/// and `/sweep`. `None` means "the engine's configured default".
fn parse_partitioner(body: &Value) -> Result<Option<PartitionerKind>, Response> {
    match body.get("partitioner") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(name) => PartitionerKind::parse(name)
                .map(Some)
                .map_err(|e| Response::error(400, &e)),
            None => Err(Response::error(400, "`partitioner` must be a string")),
        },
    }
}

/// The engine's compile config with a request-level partitioner
/// override applied.
fn effective_config(shared: &Shared, partitioner: Option<PartitionerKind>) -> CompileConfig {
    let mut config = shared.engine.options().config;
    if let Some(p) = partitioner {
        config.partitioner = p;
    }
    config
}

fn deadline_response(shared: &Shared) -> Response {
    shared
        .metrics
        .timeouts_total
        .fetch_add(1, Ordering::Relaxed);
    Response::error(
        504,
        &format!(
            "request exceeded the {}ms deadline",
            shared.config.deadline.as_millis()
        ),
    )
}

/// `POST /compile`: `{"source": "...", "strategy": "cb", "lir": true}`
/// → one compiled-and-simulated job.
fn handle_compile(
    shared: &Arc<Shared>,
    body: &[u8],
    root: SpanCtx,
    req_id: Option<&str>,
) -> Response {
    let body = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(source) = body.get("source").and_then(Value::as_str) else {
        return Response::error(400, "`source` (string) is required");
    };
    let strategy = match body.get("strategy") {
        None => Strategy::CbPartition,
        Some(v) => match v.as_str().map(Strategy::parse) {
            Some(Ok(s)) => s,
            Some(Err(e)) => return Response::error(400, &e),
            None => return Response::error(400, "`strategy` must be a string"),
        },
    };
    let want_lir = match body.get("lir") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Response::error(400, "`lir` must be a boolean"),
        },
    };
    let partitioner = match parse_partitioner(&body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let config = effective_config(shared, partitioner);

    let bench = Benchmark {
        name: "request".to_string(),
        kind: Kind::Application,
        description: String::new(),
        source: source.to_string(),
        check_globals: Vec::new(),
    };
    // Interactive priority: a point query is dequeued ahead of any
    // queued sweep cells, waiting only on jobs already running.
    let deadline = Instant::now() + shared.config.deadline;
    let run = shared.engine.submit_matrix_with_config(
        std::slice::from_ref(&bench),
        &[strategy],
        Priority::Interactive,
        CancelToken::new(),
        root,
        config,
    );
    let job = match run.wait_job_until(0, deadline) {
        WaitOutcome::TimedOut => {
            run.cancel();
            return deadline_response(shared);
        }
        WaitOutcome::Cancelled => return Response::error(500, "compile job failed to run"),
        WaitOutcome::Done(Err(e)) => {
            return Response::error(400, &format!("compilation failed: {e}"))
        }
        WaitOutcome::Done(Ok(job)) => job,
    };
    // The artifact is resident in the cache the job just went through;
    // fetch it back (a cache hit) only to render the listing.
    let listing = if want_lir {
        match render_lir(shared, &bench.source, strategy, config) {
            Ok(l) => Some(l),
            Err(e) => return Response::error(400, &format!("compilation failed: {e}")),
        }
    } else {
        None
    };
    let mut o = ObjectWriter::new();
    o.str("schema", "dualbank-compile-response/v1");
    if let Some(id) = req_id {
        o.str("request_id", id);
    }
    o.raw("job", &job.to_json());
    if let Some(lir) = listing {
        o.str("lir", &lir);
    }
    Response::json(200, o.finish())
}

/// Disassemble the artifact `/compile` just produced (served from the
/// cache; recompiles inline only if it was already evicted).
fn render_lir(
    shared: &Shared,
    source: &str,
    strategy: Strategy,
    config: CompileConfig,
) -> Result<String, Box<dyn std::error::Error + Send + Sync>> {
    let cache = shared.engine.cache();
    let (prep, _) = cache.prepared(source)?;
    let profile = if matches!(strategy, Strategy::ProfileWeighted | Strategy::SelectiveDup) {
        Some(cache.profile(&prep)?.0)
    } else {
        None
    };
    let (artifact, _, _) = cache.artifact(&prep, strategy, config, profile)?;
    Ok(artifact.program.disassemble())
}

/// A validated `/sweep` request body: the benchmark × strategy matrix
/// to run plus the optional partitioner override.
pub struct SweepRequest {
    /// Benchmarks to sweep (one synthetic "request" entry for a
    /// `source` body).
    pub benches: Vec<Benchmark>,
    /// Strategy columns (all of them when the body names none).
    pub strategies: Vec<Strategy>,
    /// Partitioning algorithm override; `None` = server default.
    pub partitioner: Option<PartitionerKind>,
}

/// Parse a `/sweep` body — `{"source": "..."}` or
/// `{"bench": "fir_32_1"|"all"}` plus optional `"strategies"` and
/// `"partitioner"` — into the matrix to run. Public so the router can
/// decompose the identical matrix into per-cell sub-requests with the
/// same validation (and the same 400s) a replica would produce.
///
/// # Errors
///
/// Returns the 400 [`Response`] describing the first body problem.
pub fn parse_sweep_targets(body: &[u8]) -> Result<SweepRequest, Response> {
    let body = parse_body(body)?;
    let strategies = parse_strategies(&body)?;
    let partitioner = parse_partitioner(&body)?;
    let benches = match (body.get("source"), body.get("bench")) {
        (Some(_), Some(_)) => {
            return Err(Response::error(
                400,
                "`source` and `bench` are mutually exclusive",
            ))
        }
        (Some(v), None) => {
            let Some(source) = v.as_str() else {
                return Err(Response::error(400, "`source` must be a string"));
            };
            vec![Benchmark {
                name: "request".to_string(),
                kind: Kind::Application,
                description: String::new(),
                source: source.to_string(),
                check_globals: Vec::new(),
            }]
        }
        (None, Some(v)) => {
            let Some(name) = v.as_str() else {
                return Err(Response::error(400, "`bench` must be a string"));
            };
            if name == "all" {
                dsp_workloads::all()
            } else {
                match dsp_workloads::by_name(name) {
                    Some(b) => vec![b],
                    None => {
                        return Err(Response::error(400, &format!("unknown benchmark `{name}`")));
                    }
                }
            }
        }
        (None, None) => {
            return Err(Response::error(
                400,
                "one of `source` or `bench` (string) is required",
            ))
        }
    };
    Ok(SweepRequest {
        benches,
        strategies,
        partitioner,
    })
}

/// How a self-writing handler left the connection.
struct SweepOutcome {
    /// Status for the request log/metrics.
    status: u16,
    /// False once a write failed — the connection must close.
    io_ok: bool,
}

fn finish_buffered(
    resp: Response,
    req_id: Option<&str>,
    replica: Option<&str>,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> SweepOutcome {
    let resp = match req_id {
        Some(id) => resp.with_header("X-Request-Id", id.to_string()),
        None => resp,
    };
    let resp = match replica {
        Some(rid) => resp.with_header("X-Dsp-Replica", rid.to_string()),
        None => resp,
    };
    SweepOutcome {
        status: resp.status,
        io_ok: resp.write_to(stream, keep_alive).is_ok(),
    }
}

/// `POST /sweep`: submit the matrix as batch jobs on the shared
/// executor and stream the `dualbank-run-report/v1` document back
/// chunk-by-chunk as cells finish, in matrix order.
///
/// Deadline semantics: the first cell decides the status line — if it
/// is not done by the deadline, everything is cancelled and the answer
/// is a plain 504. Once streaming has begun, hitting the deadline
/// cancels the remaining queued cells and closes the document with
/// `"truncated": true` (the status line is already on the wire, so it
/// stays 200). HTTP/1.0 peers cannot take chunked encoding and get the
/// same document buffered.
fn handle_sweep(
    shared: &Arc<Shared>,
    request: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
    root: SpanCtx,
    req_id: Option<&str>,
) -> SweepOutcome {
    let sweep = match parse_sweep_targets(&request.body) {
        Ok(t) => t,
        Err(resp) => {
            return finish_buffered(
                resp,
                req_id,
                shared.config.replica_id.as_deref(),
                stream,
                keep_alive,
            )
        }
    };
    let deadline = Instant::now() + shared.config.deadline;
    let run = shared.engine.submit_matrix_with_config(
        &sweep.benches,
        &sweep.strategies,
        Priority::Batch,
        CancelToken::new(),
        root,
        effective_config(shared, sweep.partitioner),
    );

    // Nothing is on the wire yet, so the first cell can still change
    // the status line.
    let first = match run.wait_job_until(0, deadline) {
        WaitOutcome::TimedOut => {
            run.cancel();
            return finish_buffered(
                deadline_response(shared),
                req_id,
                shared.config.replica_id.as_deref(),
                stream,
                keep_alive,
            );
        }
        WaitOutcome::Cancelled => {
            return finish_buffered(
                Response::error(500, "sweep job failed to run"),
                req_id,
                shared.config.replica_id.as_deref(),
                stream,
                keep_alive,
            )
        }
        WaitOutcome::Done(Err(e)) => {
            run.cancel();
            return finish_buffered(
                Response::error(400, &format!("sweep failed: {e}")),
                req_id,
                shared.config.replica_id.as_deref(),
                stream,
                keep_alive,
            );
        }
        WaitOutcome::Done(Ok(job)) => job,
    };

    if request.http1_0 {
        return sweep_buffered(shared, &run, &first, deadline, stream, keep_alive, req_id);
    }

    // The request ID rides in the response header and on every job
    // object, so a streamed document stays attributable even if the
    // client saves only the body; the replica identity rides with it
    // so a routed client can see who served the sweep.
    let mut extra: Vec<(&str, String)> = req_id
        .iter()
        .map(|id| ("X-Request-Id", (*id).to_string()))
        .collect();
    if let Some(rid) = &shared.config.replica_id {
        extra.push(("X-Dsp-Replica", rid.clone()));
    }
    let mut writer = match ChunkedWriter::start(stream, 200, "application/json", keep_alive, &extra)
    {
        Ok(w) => w,
        Err(_) => {
            run.cancel();
            return SweepOutcome {
                status: 200,
                io_ok: false,
            };
        }
    };
    let mut truncated = false;
    let mut io = writer
        .chunk(sweep_json_prefix(run.workers(), run.strategies()).as_bytes())
        .and_then(|()| writer.chunk(first.to_json_digested(req_id).as_bytes()));
    if io.is_ok() {
        for i in 1..run.len() {
            match run.wait_job_until(i, deadline) {
                WaitOutcome::Done(Ok(job)) => {
                    io = writer.chunk(format!(",\n{}", job.to_json_digested(req_id)).as_bytes());
                    if io.is_err() {
                        break;
                    }
                }
                WaitOutcome::TimedOut => {
                    // Take the still-queued cells out of the executor
                    // and close the document honestly.
                    run.cancel();
                    shared
                        .metrics
                        .truncations_total
                        .fetch_add(1, Ordering::Relaxed);
                    truncated = true;
                    break;
                }
                WaitOutcome::Done(Err(_)) | WaitOutcome::Cancelled => {
                    // A failed cell cannot change the already-sent
                    // status line; end the document as truncated.
                    run.cancel();
                    truncated = true;
                    break;
                }
            }
        }
    }
    if io.is_err() {
        // The peer went away mid-stream: stop computing for it.
        run.cancel();
        return SweepOutcome {
            status: 200,
            io_ok: false,
        };
    }
    let tail = sweep_json_tail(run.elapsed(), &run.cache_stats(), truncated);
    if writer.chunk(tail.as_bytes()).is_err() {
        run.cancel();
        return SweepOutcome {
            status: 200,
            io_ok: false,
        };
    }
    SweepOutcome {
        status: 200,
        io_ok: writer.finish().is_ok(),
    }
}

/// The `/sweep` fallback for HTTP/1.0 peers: same document, same
/// deadline semantics, buffered with a `Content-Length`.
fn sweep_buffered(
    shared: &Arc<Shared>,
    run: &MatrixRun,
    first: &JobReport,
    deadline: Instant,
    stream: &mut TcpStream,
    keep_alive: bool,
    req_id: Option<&str>,
) -> SweepOutcome {
    let mut jobs = vec![first.to_json_digested(req_id)];
    let mut truncated = false;
    for i in 1..run.len() {
        match run.wait_job_until(i, deadline) {
            WaitOutcome::Done(Ok(job)) => jobs.push(job.to_json_digested(req_id)),
            WaitOutcome::TimedOut => {
                run.cancel();
                shared
                    .metrics
                    .truncations_total
                    .fetch_add(1, Ordering::Relaxed);
                truncated = true;
                break;
            }
            WaitOutcome::Done(Err(_)) | WaitOutcome::Cancelled => {
                run.cancel();
                truncated = true;
                break;
            }
        }
    }
    let body = format!(
        "{}{}{}",
        sweep_json_prefix(run.workers(), run.strategies()),
        jobs.join(",\n"),
        sweep_json_tail(run.elapsed(), &run.cache_stats(), truncated)
    );
    finish_buffered(
        Response::json(200, body),
        req_id,
        shared.config.replica_id.as_deref(),
        stream,
        keep_alive,
    )
}
