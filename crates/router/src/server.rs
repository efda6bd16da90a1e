//! The router itself: the shared HTTP front-end
//! ([`dsp_serve::front`]), a background readiness prober, and the two
//! proxied compute paths.
//!
//! ```text
//!            ┌────────────┐        ┌──────────────────────────────┐
//!  clients ──│ dsp-router │──┬────▶│ replica A  (dsp-serve :8301) │
//!            │  hash ring │  │     ├──────────────────────────────┤
//!            │  + retries │  └────▶│ replica B  (dsp-serve :8302) │
//!            └────────────┘        └──────────────────────────────┘
//! ```
//!
//! `/compile` routes by the shard key of `(source, strategy)` — the
//! cache-affinity key — so repeated compiles of the same unit land on
//! the replica whose memory and disk caches already hold the
//! artifact. On a retryable failure (connect error, transport error
//! before any response byte, or a complete 5xx answer) the request
//! replays to the next ring candidate, gated by the shared
//! [`RetryBudget`]; a transport failure *after* the first response
//! byte is never replayed — the upstream may have executed the
//! request — and becomes a 502.
//!
//! `/sweep` fans the benchmark × strategy matrix out cell-by-cell,
//! each cell routed by its own shard key, fetched concurrently by a
//! bounded worker pool, and reassembled **in matrix order** into a
//! `dualbank-run-report/v1` document that is wire-shape-compatible
//! with a single replica's: same prefix, the same job objects, same
//! tail. Cells are pure compute (idempotent), so unlike `/compile`
//! they may be replayed even after a response byte was seen — this is
//! what makes `kill -9` of a replica mid-sweep recoverable. A cell
//! that fails every allowed attempt closes the document honestly with
//! `"truncated": true`, exactly like a single node hitting its
//! deadline mid-stream.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::json::{self, Value};
use dsp_driver::{sweep_json_prefix, sweep_json_tail, CacheStats, SpanCtx, Tracer};
use dsp_serve::client::ClientResponse;
use dsp_serve::front::{Bound, Counters, Front, Handle, Reply, Service, Settings, SweepOutcome};
use dsp_serve::http::{Request, Response};
use dsp_serve::server::parse_sweep_targets;

use crate::metrics::RouterMetrics;
use crate::replica::{ReplicaSet, RetryBudget, UpstreamPolicy};
use crate::ring::shard_key;

/// Everything tunable about a router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Upstream `dsp-serve` replica addresses (`host:port`).
    pub replicas: Vec<String>,
    /// Connection-worker threads; `0` means
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Accept-queue capacity (connections beyond this get 503).
    pub queue_capacity: usize,
    /// Maximum request-body size in bytes (beyond → 413).
    pub max_body: usize,
    /// Longest wait for a client's next bytes (idle keep-alive
    /// lifetime).
    pub read_timeout: Duration,
    /// Whole-request read budget for *client* requests, from their
    /// first byte; a trickling client gets 408. `ZERO` disables.
    pub read_deadline: Duration,
    /// Per-attempt upstream timeout: connect, pool wait, and response
    /// read are each bounded by it.
    pub upstream_timeout: Duration,
    /// Upstream TCP connect budget (distinct from `upstream_timeout`:
    /// a dead host should fail in connect time, not request time).
    pub connect_timeout: Duration,
    /// Upstream budget from request written to first response byte.
    pub first_byte_timeout: Duration,
    /// Longest allowed silent gap between upstream response bytes.
    pub idle_timeout: Duration,
    /// Reap pooled upstream connections idle longer than this.
    pub pool_idle: Duration,
    /// Consecutive upstream transport errors before that replica's
    /// circuit breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before its half-open probe.
    pub breaker_cooldown: Duration,
    /// How often the background prober checks every replica's
    /// `/readyz`.
    pub probe_interval: Duration,
    /// Consecutive failed observations that eject a replica.
    pub fail_after: u32,
    /// Consecutive successful probes that readmit one.
    pub readmit_after: u32,
    /// Bounded keep-alive connections per replica (checked out by
    /// requests and sweep cells alike).
    pub pool_per_replica: usize,
    /// Extra attempts per request/cell beyond the first.
    pub retries: u32,
    /// Backoff before the first retry (doubles per further retry).
    pub retry_backoff: Duration,
    /// Retry-budget token cap (the bucket starts full).
    pub retry_budget: f64,
    /// Tokens earned per incoming request or sweep cell.
    pub retry_deposit: f64,
    /// Concurrent sweep-cell fetches.
    pub fanout: usize,
    /// Whether to record spans and latency histograms.
    pub trace: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            workers: 0,
            queue_capacity: 64,
            max_body: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(15),
            upstream_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            first_byte_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(10),
            pool_idle: Duration::from_secs(30),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_secs(1),
            probe_interval: Duration::from_millis(500),
            fail_after: 2,
            readmit_after: 2,
            pool_per_replica: 4,
            retries: 2,
            retry_backoff: Duration::from_millis(10),
            retry_budget: 16.0,
            retry_deposit: 0.1,
            fanout: 4,
            trace: true,
        }
    }
}

/// A bound, not-yet-running router.
pub struct Router(Bound<RouterState>);

/// Remote control for a running [`Router`] (cloneable, thread-safe).
/// Its shutdown leaves the replicas running.
pub type RouterHandle = Handle<RouterState>;

/// What a router adds to the shared front-end: the replica set, its
/// metrics, and the retry budget.
pub struct RouterState {
    config: RouterConfig,
    set: ReplicaSet,
    metrics: RouterMetrics,
    budget: RetryBudget,
    tracer: Arc<Tracer>,
}

impl Router {
    /// Bind to `config.addr`. The router is not serving until
    /// [`Router::run`].
    ///
    /// # Errors
    ///
    /// Fails on bind failure, an empty replica list, or a zero
    /// `queue_capacity` (`InvalidInput`).
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.replicas.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one --replica",
            ));
        }
        let settings = Settings {
            addr: &config.addr,
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            max_body: config.max_body,
            read_timeout: config.read_timeout,
            read_deadline: config.read_deadline,
            trace: config.trace,
        };
        Bound::open(&settings, |tracer| RouterState {
            set: ReplicaSet::new(
                config.replicas.clone(),
                UpstreamPolicy {
                    pool_cap: config.pool_per_replica,
                    fail_after: config.fail_after,
                    readmit_after: config.readmit_after,
                    upstream_timeout: config.upstream_timeout,
                    connect_timeout: config.connect_timeout,
                    first_byte_timeout: config.first_byte_timeout,
                    idle_timeout: config.idle_timeout,
                    pool_idle: config.pool_idle,
                    breaker_threshold: config.breaker_threshold,
                    breaker_cooldown: config.breaker_cooldown,
                },
            ),
            budget: RetryBudget::new(config.retry_budget, config.retry_deposit),
            metrics: RouterMetrics::new(Arc::clone(tracer)),
            tracer: Arc::clone(tracer),
            config: config.clone(),
        })
        .map(Router)
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// A handle for shutting the router down from another thread.
    #[must_use]
    pub fn handle(&self) -> RouterHandle {
        self.0.handle()
    }

    /// Serve until a graceful shutdown is requested. Runs the accept
    /// loop on the calling thread; connection workers and the
    /// readiness prober run on background threads. Pooled upstream
    /// connections close once the workers have drained.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures.
    pub fn run(self) -> io::Result<()> {
        let handle = self.handle();
        let prober = {
            let handle = handle.clone();
            std::thread::Builder::new()
                .name("dsp-router-prober".to_string())
                .spawn(move || prober_loop(&handle))?
        };
        let served = self.0.run();
        handle.shutdown();
        let _ = prober.join();
        handle.service().set.drain_pools();
        served
    }
}

impl Service for RouterState {
    const NOUN: &'static str = "router";
    const THREADS: &'static str = "dsp-router";
    const ROOT_SPAN: (&'static str, &'static str) = ("router.request", "router");
    // Every request starts its own trace: the router is where a
    // fleet-wide trace begins.
    const ADOPT_TRACEPARENT: bool = false;
    const ENDPOINTS: &'static [(&'static str, &'static str)] = crate::metrics::ENDPOINTS;

    fn counters(&self) -> &Counters {
        &self.metrics.front
    }

    fn route(
        &self,
        front: &Front,
        request: &Request,
        root: SpanCtx,
        req_id: Option<&str>,
    ) -> Option<Response> {
        Some(match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Response::json(200, "{\"status\": \"ok\"}\n".to_string()),
            // The router is ready when it can route somewhere.
            ("GET", "/readyz") => match self.set.ready_count() {
                0 => Response::error(503, "no upstream replica is ready"),
                ready => Response::json(
                    200,
                    format!("{{\"status\": \"ready\", \"upstreams\": {ready}}}\n"),
                ),
            },
            ("GET", "/metrics") => Response::text(
                200,
                &self.metrics.render(
                    &self.set,
                    &self.budget,
                    front.queue_depth(),
                    front.queue_capacity(),
                ),
            ),
            ("GET", "/replicas") => replicas_response(self),
            ("POST", "/compile") => proxy_compile(self, request, root, req_id),
            _ => return None,
        })
    }

    fn sweep(&self, request: &Request, reply: Reply<'_>, root: SpanCtx) -> SweepOutcome {
        handle_sweep(self, request, reply, root)
    }
}

/// Probe every replica's `/readyz` on a fresh connection (never a
/// pooled one — a probe must not contend with request traffic for
/// pool slots) and feed the outcomes into the hysteretic health state.
fn prober_loop(handle: &RouterHandle) {
    let (shared, front) = (handle.service(), handle.front());
    let probe_timeout = shared.config.upstream_timeout.min(Duration::from_secs(1));
    while !front.stopping() {
        for idx in 0..shared.set.len() {
            let ok = probe_once(shared, idx, probe_timeout);
            if ok {
                shared.set.probes_ok_total.fetch_add(1, Ordering::Relaxed);
            } else {
                shared
                    .set
                    .probes_failed_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            shared.set.observe(idx, ok);
        }
        // Retire keep-alives that idled past --pool-idle-ms between
        // requests, off the request critical path.
        shared.set.reap_idle();
        // Sleep in short slices so shutdown is prompt.
        let mut remaining = shared.config.probe_interval;
        while !remaining.is_zero() && !front.stopping() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

fn probe_once(shared: &RouterState, idx: usize, timeout: Duration) -> bool {
    let Ok(mut conn) = dsp_serve::client::ClientConn::connect(shared.set.addr(idx), timeout) else {
        return false;
    };
    match conn.request("GET", "/readyz", None) {
        Ok(resp) => {
            if let Some(id) = resp.header("x-dsp-replica") {
                shared.set.set_announced_id(idx, id);
            }
            resp.status == 200
        }
        Err(_) => false,
    }
}

/// `GET /replicas`: the fleet as the router sees it.
fn replicas_response(shared: &RouterState) -> Response {
    let mut body = String::from("{\"schema\": \"dualbank-router-replicas/v1\", \"replicas\": [");
    for i in 0..shared.set.len() {
        if i > 0 {
            body.push_str(", ");
        }
        let id = shared
            .set
            .announced_id(i)
            .map_or_else(|| "null".to_string(), |id| json::escape(&id));
        body.push_str(&format!(
            "{{\"addr\": {}, \"up\": {}, \"id\": {id}}}",
            json::escape(shared.set.addr(i)),
            shared.set.is_up(i),
        ));
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

/// One upstream attempt's outcome.
enum Attempt {
    /// A complete HTTP response (any status).
    Answered(ClientResponse),
    /// A transport failure; `response_started` is the replay-safety
    /// signal.
    Transport {
        response_started: bool,
        error: String,
    },
}

/// One attempt against replica `idx`: check out a pooled connection,
/// exchange, feed health and metrics.
///
/// A transport failure before any response byte on a *reused* pooled
/// socket is not evidence about the replica — it is almost always a
/// keep-alive the replica closed while the socket sat idle. Those are
/// discarded and the exchange redialed against the same replica (the
/// idle pool is finite, so this terminates at a fresh dial, whose
/// outcome is authoritative). Without this, an idle-timeout sweep of
/// the pool would spray cache affinity across the fleet and eject
/// healthy replicas.
fn attempt_exchange(
    shared: &RouterState,
    idx: usize,
    path: &str,
    req_id: Option<&str>,
    body: Option<&str>,
    root: SpanCtx,
) -> Attempt {
    let addr = shared.set.addr(idx);
    let t0 = Instant::now();
    let mut span = shared.tracer.span("router.upstream", "router", root);
    span.attr("replica", addr);
    // The breaker sits under ring health: a replica still in the ring
    // whose requests are all failing gets fast-failed here without
    // burning a connect/read timeout per attempt. Denied attempts
    // record no health observation — no new evidence was gathered.
    if !shared.set.breaker_allow(idx) {
        shared
            .metrics
            .breaker_fast_fail_total
            .fetch_add(1, Ordering::Relaxed);
        span.attr("outcome", "breaker-open");
        return Attempt::Transport {
            response_started: false,
            error: format!("circuit breaker open for {addr}"),
        };
    }
    // Propagate the trace across the hop: the replica adopts this
    // attempt's own span context, so its `http.request` span parents
    // onto `router.upstream` under one fleet-wide trace id. Absent
    // entirely with tracing off (ctx is zero). Health probes use the
    // plain probe path and never carry it.
    let traceparent = {
        let ctx = span.ctx();
        (ctx.trace != 0).then(|| dsp_trace::format_traceparent(ctx))
    };
    let mut headers: Vec<(&str, &str)> = req_id.iter().map(|id| ("X-Request-Id", *id)).collect();
    if let Some(tp) = &traceparent {
        headers.push((dsp_trace::TRACEPARENT_HEADER, tp.as_str()));
    }
    loop {
        let mut pooled = match shared.set.checkout(idx) {
            Ok(c) => c,
            Err(e) => {
                shared.metrics.record_upstream(addr, None, t0.elapsed());
                shared.set.observe(idx, false);
                shared.set.breaker_record(idx, false);
                span.attr("outcome", "connect-error");
                return Attempt::Transport {
                    response_started: false,
                    error: format!("connect to {addr}: {e}"),
                };
            }
        };
        let stale_candidate = pooled.was_reused();
        match pooled.conn().exchange("POST", path, &headers, body) {
            Ok(resp) => {
                shared
                    .metrics
                    .record_upstream(addr, Some(resp.status), t0.elapsed());
                // Transport-level health: the replica answered, even if
                // with an error status. Ejection is for dead replicas.
                shared.set.observe(idx, true);
                shared.set.breaker_record(idx, true);
                if let Some(id) = resp.header("x-dsp-replica") {
                    shared.set.set_announced_id(idx, id);
                }
                span.attr("status", &resp.status.to_string());
                pooled.succeed();
                return Attempt::Answered(resp);
            }
            Err(e) if stale_candidate && !e.response_started => {
                // Stale keep-alive: discard (the drop frees the slot)
                // and go around — no health or failover consequences.
                drop(pooled);
                continue;
            }
            Err(e) => {
                shared.metrics.record_upstream(addr, None, t0.elapsed());
                shared.set.observe(idx, false);
                shared.set.breaker_record(idx, false);
                span.attr(
                    "outcome",
                    if e.response_started {
                        "failed-mid-response"
                    } else {
                        "failed-before-response"
                    },
                );
                // `pooled` drops here: the broken socket is discarded
                // and the pool slot freed.
                return Attempt::Transport {
                    response_started: e.response_started,
                    error: format!("{addr}: {e}"),
                };
            }
        }
    }
}

/// Spend a retry token (after backoff) or report the budget empty.
fn take_retry_token(shared: &RouterState, attempt: usize) -> bool {
    if !shared.budget.try_withdraw() {
        shared
            .metrics
            .retry_budget_exhausted_total
            .fetch_add(1, Ordering::Relaxed);
        return false;
    }
    shared.metrics.retries_total.fetch_add(1, Ordering::Relaxed);
    // 10ms, 20ms, 40ms, ... — enough to ride out a replica restart
    // without stalling interactive traffic.
    let backoff = shared.config.retry_backoff * (1 << (attempt - 1).min(6)) as u32;
    std::thread::sleep(backoff);
    true
}

/// The `/compile` shard key: hash of `(source, strategy label)`, the
/// routing-side mirror of the engine's artifact-cache key. An
/// unparsable body still hashes deterministically (the replica will
/// produce the 400).
fn compile_shard_key(body: &[u8]) -> u64 {
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|s| json::parse(s).ok());
    let source = parsed
        .as_ref()
        .and_then(|v| v.get("source"))
        .and_then(Value::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| String::from_utf8_lossy(body).into_owned());
    let strategy = parsed
        .as_ref()
        .and_then(|v| v.get("strategy"))
        .and_then(Value::as_str)
        .and_then(|name| Strategy::parse(name).ok())
        .unwrap_or(Strategy::CbPartition);
    shard_key(&source, strategy.label())
}

/// `POST /compile`: route by cache affinity, replay retryable
/// failures to the next ring candidate, never double-send after the
/// first response byte.
fn proxy_compile(
    shared: &RouterState,
    request: &Request,
    root: SpanCtx,
    req_id: Option<&str>,
) -> Response {
    shared.budget.earn();
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    let candidates = shared
        .set
        .ring()
        .candidates(compile_shard_key(&request.body));
    if candidates.is_empty() {
        shared
            .metrics
            .no_upstream_total
            .fetch_add(1, Ordering::Relaxed);
        return Response::error(503, "no upstream replica is ready");
    }
    let attempts = candidates.len().min(shared.config.retries as usize + 1);
    let mut last_error = String::new();
    for (i, &idx) in candidates.iter().take(attempts).enumerate() {
        if i > 0 && !take_retry_token(shared, i) {
            break;
        }
        match attempt_exchange(shared, idx, "/compile", req_id, Some(body), root) {
            Attempt::Answered(resp) if resp.status >= 500 => {
                // A complete 5xx answer: the replica executed and
                // failed; safe and explicitly in-contract to replay.
                last_error = format!("replica {} answered {}", shared.set.addr(idx), resp.status);
            }
            Attempt::Answered(resp) => return forward_response(shared, idx, &resp),
            Attempt::Transport {
                response_started: true,
                error,
            } => {
                // The upstream began answering, then died: the request
                // may have executed. Never replay — surface the
                // ambiguity to the client instead.
                return Response::error(
                    502,
                    &format!("upstream failed mid-response; not replayed: {error}"),
                );
            }
            Attempt::Transport { error, .. } => last_error = error,
        }
    }
    Response::error(502, &format!("no upstream attempt succeeded: {last_error}"))
}

/// Re-emit an upstream response to the client, tagged with the
/// replica that served it.
fn forward_response(shared: &RouterState, idx: usize, upstream: &ClientResponse) -> Response {
    let body = String::from_utf8_lossy(&upstream.body).into_owned();
    let is_json = upstream
        .header("content-type")
        .is_some_and(|ct| ct.contains("json"));
    let resp = if is_json {
        Response::json(upstream.status, body)
    } else {
        Response::text(upstream.status, &body)
    };
    let replica = upstream
        .header("x-dsp-replica")
        .map_or_else(|| shared.set.addr(idx).to_string(), str::to_string);
    resp.with_header("X-Dsp-Replica", replica)
}

/// One cell of a fanned-out sweep: the sub-request body (a
/// single-bench, single-strategy `/sweep`) and its shard key.
struct Cell {
    body: String,
    key: u64,
}

/// Decompose a validated sweep matrix into per-cell sub-requests in
/// matrix order (bench-major, strategy-minor — the order a single
/// replica runs and streams them).
fn decompose_cells(
    source_mode: bool,
    benches: &[dsp_workloads::Benchmark],
    strategies: &[Strategy],
    partitioner: Option<dsp_backend::PartitionerKind>,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(benches.len() * strategies.len());
    // A request-level partitioner override is forwarded verbatim on
    // every cell; it does not enter the shard key (affinity is about
    // which sources a replica has cached front-half work for).
    let partitioner_field = partitioner.map_or(String::new(), |p| {
        format!(", \"partitioner\": {}", json::escape(p.label()))
    });
    for bench in benches {
        for &strategy in strategies {
            let target = if source_mode {
                format!("\"source\": {}", json::escape(&bench.source))
            } else {
                format!("\"bench\": {}", json::escape(&bench.name))
            };
            cells.push(Cell {
                body: format!(
                    "{{{target}, \"strategies\": [{}]{partitioner_field}}}",
                    json::escape(strategy.label())
                ),
                key: shard_key(&bench.source, strategy.label()),
            });
        }
    }
    cells
}

/// Extract the job objects of a single-cell sweep response: the text
/// between the document's `"jobs": [` opener and its closing `],`.
/// Refuses truncated documents — a cell must deliver all of its jobs
/// or be retried.
fn extract_cell_jobs(doc: &str) -> Result<String, String> {
    if !doc.contains("\"truncated\": false") {
        return Err("cell response was truncated".to_string());
    }
    let open = "\"jobs\": [\n";
    let start = doc
        .find(open)
        .map(|at| at + open.len())
        .ok_or("cell response has no jobs array")?;
    let end = doc[start..]
        .find("\n  ],")
        .map(|at| start + at)
        .ok_or("cell response's jobs array is unterminated")?;
    if doc[start..end].trim().is_empty() {
        return Err("cell response carried no jobs".to_string());
    }
    Ok(doc[start..end].to_string())
}

/// Fetch one cell with affinity routing and (budget-gated) retries.
/// Cells are idempotent pure compute, so unlike `/compile` a cell may
/// be replayed even after a response byte was seen — this is what
/// makes a replica killed mid-sweep recoverable.
fn fetch_cell(
    shared: &RouterState,
    cell: &Cell,
    root: SpanCtx,
    req_id: Option<&str>,
) -> Result<String, String> {
    shared.budget.earn();
    let mut last_error = "no ready replica".to_string();
    let mut digest_failures = 0u32;
    for attempt in 0..=shared.config.retries as usize {
        // A fresh ring snapshot per attempt: a replica ejected a
        // moment ago (by the prober or another cell's failure) is
        // already excluded, and its shard has remapped.
        let candidates = shared.set.ring().candidates(cell.key);
        if candidates.is_empty() {
            return Err(last_error);
        }
        if attempt > 0 && !take_retry_token(shared, attempt) {
            return Err(format!("retry budget exhausted after: {last_error}"));
        }
        let idx = candidates[attempt.min(candidates.len() - 1)];
        match attempt_exchange(shared, idx, "/sweep", req_id, Some(&cell.body), root) {
            Attempt::Answered(resp) if resp.status == 200 => {
                match extract_cell_jobs(&resp.text()) {
                    // End-to-end integrity: the replica appended a
                    // digest over each job's own bytes, so a byte
                    // flipped anywhere on the wire is caught here. A
                    // mismatched cell is re-fetched once — transient
                    // wire damage heals, a genuinely bad payload does
                    // not, and a second failure errors the cell.
                    Ok(jobs) => match dsp_driver::verify_job_digest(&jobs) {
                        Ok(()) => return Ok(jobs),
                        Err(e) => {
                            shared
                                .metrics
                                .cell_digest_mismatch_total
                                .fetch_add(1, Ordering::Relaxed);
                            last_error = format!("{}: {e}", shared.set.addr(idx));
                            digest_failures += 1;
                            if digest_failures > 1 {
                                return Err(format!("{last_error} (after one re-fetch)"));
                            }
                        }
                    },
                    Err(e) => last_error = format!("{}: {e}", shared.set.addr(idx)),
                }
            }
            Attempt::Answered(resp) if resp.status >= 500 => {
                last_error = format!("replica {} answered {}", shared.set.addr(idx), resp.status);
            }
            Attempt::Answered(resp) => {
                // A 4xx for a router-built cell body is not going to
                // change on another replica: fail the cell now.
                return Err(format!(
                    "replica {} rejected the cell with {}: {}",
                    shared.set.addr(idx),
                    resp.status,
                    resp.text().trim()
                ));
            }
            Attempt::Transport { error, .. } => last_error = error,
        }
    }
    Err(last_error)
}

/// The fan-in state shared between cell-fetching workers and the
/// response writer: a slot per cell (filled out of order) and a
/// cursor handing cells to workers.
struct FanIn {
    slots: Mutex<Vec<Option<Result<String, String>>>>,
    filled: Condvar,
    next_cell: AtomicUsize,
    stop: AtomicBool,
}

impl FanIn {
    fn new(n: usize) -> FanIn {
        FanIn {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            filled: Condvar::new(),
            next_cell: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Worker side: claim the next unfetched cell index.
    fn claim(&self, n: usize) -> Option<usize> {
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        let i = self.next_cell.fetch_add(1, Ordering::SeqCst);
        (i < n).then_some(i)
    }

    fn fill(&self, i: usize, outcome: Result<String, String>) {
        self.slots.lock().expect("fan-in mutex")[i] = Some(outcome);
        self.filled.notify_all();
    }

    /// Writer side: block until slot `i` is filled, then take it.
    fn take(&self, i: usize) -> Result<String, String> {
        let mut slots = self.slots.lock().expect("fan-in mutex");
        loop {
            if let Some(outcome) = slots[i].take() {
                return outcome;
            }
            slots = self.filled.wait(slots).expect("fan-in mutex");
        }
    }
}

/// `POST /sweep`: decompose, fan out, reassemble in matrix order.
///
/// The emitted document is wire-shape-compatible with a single
/// replica's `/sweep`: [`sweep_json_prefix`] (workers = ready replica
/// count), the cells' job objects joined in matrix order, and
/// [`sweep_json_tail`] with zeroed cache counters — per-replica cache
/// telemetry lives on each replica's `/metrics`, not in a routed
/// document. Its deterministic projection is byte-identical to a
/// single node's.
fn handle_sweep(
    shared: &RouterState,
    request: &Request,
    reply: Reply<'_>,
    root: SpanCtx,
) -> SweepOutcome {
    shared.budget.earn();
    let sweep = match parse_sweep_targets(&request.body) {
        Ok(t) => t,
        Err(resp) => return reply.finish_buffered(resp),
    };
    if shared.set.ring().is_empty() {
        shared
            .metrics
            .no_upstream_total
            .fetch_add(1, Ordering::Relaxed);
        return reply.finish_buffered(Response::error(503, "no upstream replica is ready"));
    }
    let source_mode = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|s| json::parse(s).ok())
        .is_some_and(|v| v.get("source").is_some());
    let cells = decompose_cells(
        source_mode,
        &sweep.benches,
        &sweep.strategies,
        sweep.partitioner,
    );
    let started = Instant::now();
    let req_id = reply.req_id;

    let fan = FanIn::new(cells.len());
    let workers = shared.config.fanout.clamp(1, cells.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(i) = fan.claim(cells.len()) {
                    let out = fetch_cell(shared, &cells[i], root, req_id);
                    fan.fill(i, out);
                }
            });
        }
        let outcome = write_sweep(
            shared,
            request.http1_0,
            reply,
            &fan,
            cells.len(),
            &sweep.strategies,
            started,
        );
        // Writer done (or aborted): stop handing out cells so the
        // scope can join its workers.
        fan.stop.store(true, Ordering::SeqCst);
        outcome
    })
}

/// The writer half of the sweep fan-in: consume the `n` cell slots in
/// matrix order and write the document, streamed to HTTP/1.1 peers and
/// buffered for HTTP/1.0 ones.
fn write_sweep(
    shared: &RouterState,
    http1_0: bool,
    reply: Reply<'_>,
    fan: &FanIn,
    n: usize,
    strategies: &[Strategy],
    started: Instant,
) -> SweepOutcome {
    // Like a single node, the first cell decides the status line.
    let first = match fan.take(0) {
        Ok(jobs) => jobs,
        Err(e) => {
            return reply.finish_buffered(Response::error(502, &format!("sweep failed: {e}")))
        }
    };
    let prefix = sweep_json_prefix(shared.set.ready_count().max(1), strategies);
    // A cell that failed every allowed attempt ends the document: the
    // status line is already decided, so it closes honestly with
    // `"truncated": true` — exactly like a single node hitting its
    // deadline mid-stream.
    let next = |i: usize| {
        let cell = fan.take(i);
        if cell.is_err() {
            shared
                .metrics
                .sweep_truncations_total
                .fetch_add(1, Ordering::Relaxed);
        }
        cell.ok()
    };
    let tail = |truncated| sweep_json_tail(started.elapsed(), &CacheStats::default(), truncated);

    if http1_0 {
        let mut jobs = vec![first];
        jobs.extend((1..n).map_while(next));
        let body = format!("{prefix}{}{}", jobs.join(",\n"), tail(jobs.len() < n));
        return reply.finish_buffered(Response::json(200, body));
    }

    let Ok(mut writer) = reply.chunked() else {
        return SweepOutcome::BROKEN;
    };
    let mut sent = 1;
    let mut io = writer
        .chunk(prefix.as_bytes())
        .and_then(|()| writer.chunk(first.as_bytes()));
    while io.is_ok() && sent < n {
        let Some(jobs) = next(sent) else { break };
        io = writer.chunk(format!(",\n{jobs}").as_bytes());
        sent += 1;
    }
    if io
        .and_then(|()| writer.chunk(tail(sent < n).as_bytes()))
        .is_err()
    {
        return SweepOutcome::BROKEN;
    }
    SweepOutcome {
        status: 200,
        io_ok: writer.finish().is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_follow_matrix_order_and_carry_affinity_keys() {
        let benches = vec![
            dsp_workloads::kernels::fir(8, 4),
            dsp_workloads::kernels::fir(16, 4),
        ];
        let strategies = vec![Strategy::Baseline, Strategy::CbPartition];
        let cells = decompose_cells(false, &benches, &strategies, None);
        assert_eq!(cells.len(), 4);
        // Bench-major, strategy-minor — the single-node stream order.
        assert!(cells[0].body.contains(&benches[0].name));
        assert!(cells[0].body.contains(Strategy::Baseline.label()));
        assert!(cells[1].body.contains(&benches[0].name));
        assert!(cells[1].body.contains(Strategy::CbPartition.label()));
        assert!(cells[2].body.contains(&benches[1].name));
        // No partitioner override → the field is absent entirely, so
        // replicas fall back to their own configured default.
        assert!(!cells[0].body.contains("partitioner"));
        let fm = decompose_cells(
            false,
            &benches,
            &strategies,
            Some(dsp_backend::PartitionerKind::Fm),
        );
        assert!(fm[0].body.contains("\"partitioner\": \"fm\""));
        // The override rides along without disturbing cache affinity.
        assert_eq!(fm[0].key, cells[0].key);
        // Same (source, strategy) → same key; different strategy →
        // (almost surely) different key.
        assert_eq!(
            cells[0].key,
            shard_key(&benches[0].source, Strategy::Baseline.label())
        );
        assert_ne!(cells[0].key, cells[1].key);
    }

    #[test]
    fn cell_extraction_takes_exactly_the_job_objects() {
        let doc = "{\n  \"schema\": \"dualbank-run-report/v1\",\n  \"workers\": 1,\n  \
                   \"strategies\": [\"cb\"],\n  \"jobs\": [\n    {\"benchmark\": \"x\"}\n  ],\n  \
                   \"wall_time_ms\": 1.0,\n  \"cache\": {},\n  \"truncated\": false\n}\n";
        assert_eq!(
            extract_cell_jobs(doc).expect("well-formed cell"),
            "    {\"benchmark\": \"x\"}"
        );
        let truncated = doc.replace("\"truncated\": false", "\"truncated\": true");
        assert!(
            extract_cell_jobs(&truncated).is_err(),
            "must refuse truncated cells"
        );
        assert!(extract_cell_jobs("{}").is_err());
    }

    #[test]
    fn compile_shard_key_is_stable_and_strategy_sensitive() {
        let a = compile_shard_key(br#"{"source": "let x = 1;", "strategy": "cb"}"#);
        let b = compile_shard_key(br#"{"source": "let x = 1;", "strategy": "cb"}"#);
        assert_eq!(a, b);
        let c = compile_shard_key(br#"{"source": "let x = 1;", "strategy": "baseline"}"#);
        assert_ne!(a, c);
        // No strategy defaults to cb — the same default the replica
        // applies, so default-strategy compiles share affinity.
        let d = compile_shard_key(br#"{"source": "let x = 1;"}"#);
        assert_eq!(a, d);
    }

    #[test]
    fn binding_requires_replicas() {
        assert!(Router::bind(RouterConfig::default()).is_err());
        // A zero accept queue is refused as a bad field, not a panic.
        let zero_queue = RouterConfig {
            replicas: vec!["127.0.0.1:1".to_string()],
            queue_capacity: 0,
            ..RouterConfig::default()
        };
        let err = Router::bind(zero_queue).err().expect("zero queue refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("queue_capacity"), "{err}");
    }
}
