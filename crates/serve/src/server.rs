//! The server: the shared HTTP front-end ([`crate::front`]) in front of
//! the shared compute executor.
//!
//! ```text
//!   clients ──▶ front-end: accept loop → bounded queue → workers
//!                                     │  submit     ▲ wait/stream
//!                       ┌─────────────▼─────────────┴┐
//!                       │  dsp-exec shared executor  │
//!                       │ /compile = Interactive     │
//!                       │ /sweep cells = Batch       │
//!                       └─────────────┬──────────────┘
//!                                     ▼
//!                         dsp-driver Engine + cache
//!                           (shared via Arc)
//! ```
//!
//! Connection workers never compile inline: compute requests are
//! decomposed into per-cell jobs on the process-wide [`Executor`] —
//! `/compile` at [`Priority::Interactive`] so it jumps queued sweep
//! work, `/sweep` cells at [`Priority::Batch`]. The worker waits on job
//! handles under the request deadline; a `/sweep` to an HTTP/1.1 peer
//! streams its `jobs[]` array back with `Transfer-Encoding: chunked` as
//! cells finish, in matrix order. On deadline, still-queued cells are
//! cancelled out of the executor; a sweep that already streamed output
//! closes the document with `"truncated": true`, and only a request
//! with nothing on the wire yet gets a 504.
//!
//! `/admin/shutdown` withdraws readiness first (`/readyz` → 503), keeps
//! serving for [`ServerConfig::drain_grace`], then shuts the front-end
//! down.

use std::io;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_backend::{CompileConfig, PartitionerKind, Strategy};
use dsp_driver::json::{self, ObjectWriter, Value};
use dsp_driver::{
    sweep_json_prefix, sweep_json_tail, CancelToken, Engine, EngineOptions, Executor, MatrixRun,
    Priority, SpanCtx, WaitOutcome,
};
use dsp_workloads::{Benchmark, Kind};

use crate::front::{Bound, Counters, Front, Handle, Reply, Service, Settings, SweepOutcome};
use crate::http::{Request, Response};
use crate::metrics::Metrics;

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

/// A bound, not-yet-running server.
pub type Server = Bound<ServeState>;

/// Remote control for a running [`Server`] (cloneable, thread-safe).
pub type ServerHandle = Handle<ServeState>;

/// What a server adds to the shared front-end: the engine, its
/// metrics, and readiness.
pub struct ServeState {
    config: ServerConfig,
    engine: Engine,
    metrics: Metrics,
    /// Readiness is withdrawn (`/readyz` → 503) ahead of the actual
    /// shutdown so a drain window can exist between the two.
    draining: AtomicBool,
}

impl Server {
    /// Bind to `config.addr` and build the engine. The server is not
    /// serving until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures; `InvalidInput` for a zero
    /// `queue_capacity`.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let settings = Settings {
            addr: &config.addr,
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            max_body: config.max_body,
            read_timeout: config.read_timeout,
            read_deadline: config.read_deadline,
            trace: config.trace,
        };
        Bound::open(&settings, |tracer| {
            // One tracer feeds every layer: request spans in the
            // front-end, queue-wait spans in the executor, stage spans
            // in the engine, histogram families in `/metrics`.
            dsp_trace::log::route_events_to(tracer);
            // One machine-sized executor for every compute job in the
            // process; connection workers only parse, submit, and stream.
            let exec = Arc::new(Executor::with_tracer(config.jobs, Arc::clone(tracer)));
            let engine = Engine::with_executor(
                EngineOptions {
                    fuel: config.fuel,
                    cache_capacity: config.cache_capacity,
                    cache_max_bytes: config.cache_max_bytes,
                    cache_dir: config.cache_dir.clone(),
                    cache_disk_max_bytes: config.cache_disk_max_bytes,
                    tracer: Arc::clone(tracer),
                    ..EngineOptions::default()
                },
                exec,
            );
            ServeState {
                metrics: Metrics::new(Arc::clone(tracer)),
                config: config.clone(),
                engine,
                draining: AtomicBool::new(false),
            }
        })
    }

    /// How many job workers the shared executor runs (resolved from
    /// [`ServerConfig::jobs`], where 0 means all cores).
    #[must_use]
    pub fn executor_workers(&self) -> usize {
        self.service().engine.executor().workers()
    }

    /// The persistent store's startup-sweep report, when
    /// [`ServerConfig::cache_dir`] is set — what the boot banner prints
    /// as the warm-start summary.
    #[must_use]
    pub fn disk_sweep(&self) -> Option<&dsp_driver::DiskSweep> {
        self.service().engine.cache().store().map(|s| s.sweep())
    }
}

impl ServeState {
    /// Ready for new work: neither draining nor stopping.
    fn ready(&self, front: &Front) -> bool {
        !self.draining.load(Ordering::SeqCst) && !front.stopping()
    }
}

impl Service for ServeState {
    const NOUN: &'static str = "server";
    const THREADS: &'static str = "dsp-serve";
    const ROOT_SPAN: (&'static str, &'static str) = ("http.request", "serve");
    // A router-injected `X-Dsp-Traceparent` is adopted so this
    // replica's spans join the caller's trace (parented onto its
    // `router.upstream` span); a malformed value starts a fresh trace.
    const ADOPT_TRACEPARENT: bool = true;
    const ENDPOINTS: &'static [(&'static str, &'static str)] = crate::metrics::ENDPOINTS;

    fn counters(&self) -> &Counters {
        &self.metrics.front
    }

    fn tag(&self) -> Option<(&'static str, &str)> {
        self.config
            .replica_id
            .as_deref()
            .map(|id| ("X-Dsp-Replica", id))
    }

    fn route(
        &self,
        front: &Front,
        request: &Request,
        root: SpanCtx,
        req_id: Option<&str>,
    ) -> Option<Response> {
        Some(match (request.method.as_str(), request.path.as_str()) {
            // Liveness: "the process serves requests" — stays 200 while
            // draining so orchestrators don't kill a replica that is
            // gracefully finishing its work.
            ("GET", "/healthz") => Response::json(200, "{\"status\": \"ok\"}\n".to_string()),
            // Readiness: "send me new work" — withdrawn the moment a
            // drain begins, which is what routers and load balancers
            // probe.
            ("GET", "/readyz") if self.ready(front) => {
                Response::json(200, "{\"status\": \"ready\"}\n".to_string())
            }
            ("GET", "/readyz") => Response::error(503, "draining: not ready for new work"),
            ("GET", "/metrics") => {
                let cache = self.engine.cache();
                Response::text(
                    200,
                    &self.metrics.render(
                        front.queue_depth(),
                        front.queue_capacity(),
                        front.workers(),
                        &cache.stats(),
                        cache.resident(),
                        &self.engine.executor().stats(),
                        self.ready(front),
                        self.config.replica_id.as_deref(),
                    ),
                )
            }
            ("POST", "/compile") => handle_compile(self, &request.body, root, req_id),
            _ => return None,
        })
    }

    fn sweep(&self, request: &Request, reply: Reply<'_>, root: SpanCtx) -> SweepOutcome {
        handle_sweep(self, request, reply, root)
    }

    fn begin_drain(&self) -> Duration {
        // Readiness is withdrawn before the response goes out, so a
        // router probing `/readyz` stops routing here even if the drain
        // grace keeps the process serving for a while.
        self.draining.store(true, Ordering::SeqCst);
        self.config.drain_grace
    }
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
fn effective_config(state: &ServeState, partitioner: Option<PartitionerKind>) -> CompileConfig {
    let mut config = state.engine.options().config;
    if let Some(p) = partitioner {
        config.partitioner = p;
    }
    config
}

fn deadline_response(state: &ServeState) -> Response {
    state.metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
    Response::error(
        504,
        &format!(
            "request exceeded the {}ms deadline",
            state.config.deadline.as_millis()
        ),
    )
}

/// `POST /compile`: `{"source": "...", "strategy": "cb", "lir": true}`
/// → one compiled-and-simulated job.
fn handle_compile(
    state: &ServeState,
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
    let config = effective_config(state, partitioner);

    let bench = Benchmark {
        name: "request".to_string(),
        kind: Kind::Application,
        description: String::new(),
        source: source.to_string(),
        check_globals: Vec::new(),
    };
    // Interactive priority: a point query is dequeued ahead of any
    // queued sweep cells, waiting only on jobs already running.
    let deadline = Instant::now() + state.config.deadline;
    let run = state.engine.submit_matrix_with_config(
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
            return deadline_response(state);
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
        match render_lir(state, &bench.source, strategy, config) {
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
    state: &ServeState,
    source: &str,
    strategy: Strategy,
    config: CompileConfig,
) -> Result<String, Box<dyn std::error::Error + Send + Sync>> {
    let cache = state.engine.cache();
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
    /// Whether the body named a `source` rather than a `bench`.
    pub source_mode: bool,
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
    let source_mode = body.get("source").is_some();
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
        source_mode,
    })
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
    state: &ServeState,
    request: &Request,
    reply: Reply<'_>,
    root: SpanCtx,
) -> SweepOutcome {
    let sweep = match parse_sweep_targets(&request.body) {
        Ok(t) => t,
        Err(resp) => return reply.finish_buffered(resp),
    };
    let deadline = Instant::now() + state.config.deadline;
    let run = state.engine.submit_matrix_with_config(
        &sweep.benches,
        &sweep.strategies,
        Priority::Batch,
        CancelToken::new(),
        root,
        effective_config(state, sweep.partitioner),
    );

    // Nothing is on the wire yet, so the first cell can still change
    // the status line.
    let first = match run.wait_job_until(0, deadline) {
        WaitOutcome::TimedOut => {
            run.cancel();
            return reply.finish_buffered(deadline_response(state));
        }
        WaitOutcome::Cancelled => {
            return reply.finish_buffered(Response::error(500, "sweep job failed to run"))
        }
        WaitOutcome::Done(Err(e)) => {
            run.cancel();
            return reply.finish_buffered(Response::error(400, &format!("sweep failed: {e}")));
        }
        WaitOutcome::Done(Ok(job)) => job,
    };
    // The request ID rides in the response header and on every job
    // object, so a streamed document stays attributable even if the
    // client saves only the body.
    let req_id = reply.req_id;
    let mut jobs = vec![first.to_json_digested(req_id)];
    let mut truncated = false;

    if request.http1_0 {
        // The buffered fallback: same document, same deadline semantics.
        for i in 1..run.len() {
            match next_job(state, &run, i, deadline, req_id) {
                Some(job) => jobs.push(job),
                None => {
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
        return reply.finish_buffered(Response::json(200, body));
    }

    let Ok(mut writer) = reply.chunked() else {
        run.cancel();
        return SweepOutcome::BROKEN;
    };
    let mut io = writer
        .chunk(sweep_json_prefix(run.workers(), run.strategies()).as_bytes())
        .and_then(|()| writer.chunk(jobs[0].as_bytes()));
    if io.is_ok() {
        for i in 1..run.len() {
            let Some(job) = next_job(state, &run, i, deadline, req_id) else {
                truncated = true;
                break;
            };
            io = writer.chunk(format!(",\n{job}").as_bytes());
            if io.is_err() {
                break;
            }
        }
    }
    let tail = sweep_json_tail(run.elapsed(), &run.cache_stats(), truncated);
    if io.and_then(|()| writer.chunk(tail.as_bytes())).is_err() {
        // The peer went away mid-stream: stop computing for it.
        run.cancel();
        return SweepOutcome::BROKEN;
    }
    SweepOutcome {
        status: 200,
        io_ok: writer.finish().is_ok(),
    }
}

/// Wait for cell `i` of a sweep and render it, or `None` when the
/// document must end truncated: on the deadline (the still-queued
/// cells are taken out of the executor) or on a failed cell, which
/// cannot change a status line that is already sent.
fn next_job(
    state: &ServeState,
    run: &MatrixRun,
    i: usize,
    deadline: Instant,
    req_id: Option<&str>,
) -> Option<String> {
    match run.wait_job_until(i, deadline) {
        WaitOutcome::Done(Ok(job)) => Some(job.to_json_digested(req_id)),
        WaitOutcome::TimedOut => {
            run.cancel();
            state
                .metrics
                .truncations_total
                .fetch_add(1, Ordering::Relaxed);
            None
        }
        WaitOutcome::Done(Err(_)) | WaitOutcome::Cancelled => {
            run.cancel();
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_refuses_a_zero_queue() {
        let err = Server::bind(ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        })
        .err()
        .expect("zero queue refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("queue_capacity"), "{err}");
    }
}
