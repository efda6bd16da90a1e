//! The HTTP front-end shared by `dsp-serve` and `dsp-router`: accept
//! loop → bounded connection queue → connection workers, each serving
//! one keep-alive connection at a time.
//!
//! ```text
//!             ┌─────────────┐   try_push    ┌──────────────────┐
//!  clients ──▶│ accept loop │──────────────▶│ BoundedQueue<Tcp> │
//!             │ (run thread)│  full → 503   └────────┬─────────┘
//!             └─────────────┘                        │ pop
//!                                     ┌──────────────▼─────────────┐
//!                                     │ workers: read the request, │
//!                                     │ 400/408/413 on bad input,  │
//!                                     │ root span + request ID,    │
//!                                     │ route to the Service       │
//!                                     └────────────────────────────┘
//! ```
//!
//! The front-end owns everything the two processes do alike: binding,
//! the accept loop's `503` + `Retry-After` backpressure, the keep-alive
//! loop and its error answers, the request-ID policy, each request's
//! root span, the request counters ([`Counters`]), `GET /debug/trace`,
//! `POST /admin/shutdown` and graceful shutdown. A [`Service`] supplies
//! the rest: its routes (including the self-writing `/sweep`), its
//! endpoint labels, how its root span is named and parented, the
//! header it puts on every response, and the drain that precedes an
//! asked-for shutdown. Dispatch is static: the front-end is generic
//! over the service.
//!
//! Graceful shutdown ([`Handle::shutdown`]) stops the accept loop,
//! closes the queue, lets workers drain queued connections, and joins
//! them. A keep-alive connection idle between requests closes at once
//! rather than holding its worker for the read timeout; a request that
//! has begun to arrive, or a queued connection's first request, is
//! still answered.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsp_trace::expo::{Exposition, Kind};
use dsp_trace::{families, SpanCtx, Tracer};

use crate::http::{
    await_request, poll_slice, read_request_deadline, ChunkedWriter, Request, RequestError,
    Response,
};
use crate::queue::{BoundedQueue, PushError};

/// What a service plugs into the shared front-end.
pub trait Service: Sized + Send + Sync + 'static {
    /// How the service names itself in messages (`server`, `router`).
    const NOUN: &'static str;
    /// Prefix of its connection-worker thread names.
    const THREADS: &'static str;
    /// Name and category of every request's root span.
    const ROOT_SPAN: (&'static str, &'static str);
    /// Whether the root span joins the trace an incoming
    /// `X-Dsp-Traceparent` names; otherwise each request starts a
    /// fresh trace.
    const ADOPT_TRACEPARENT: bool;
    /// Every path the service answers, with its endpoint label. Other
    /// paths count as `other` and get a 404; a listed path asked with
    /// a method no route takes gets a 405.
    const ENDPOINTS: &'static [(&'static str, &'static str)];

    /// The front-end's counters, rendered with the service's metrics.
    fn counters(&self) -> &Counters;

    /// A header every response carries, if any.
    fn tag(&self) -> Option<(&'static str, &str)> {
        None
    }

    /// Answer a buffered request; `None` when no route matches.
    fn route(
        &self,
        front: &Front,
        request: &Request,
        root: SpanCtx,
        req_id: Option<&str>,
    ) -> Option<Response>;

    /// Answer `POST /sweep`, writing the response itself.
    fn sweep(&self, request: &Request, reply: Reply<'_>, root: SpanCtx) -> SweepOutcome;

    /// Called when `POST /admin/shutdown` arrives, before it is
    /// answered. Returns how long to keep serving before the shutdown.
    fn begin_drain(&self) -> Duration {
        Duration::ZERO
    }
}

/// The front-end's share of a service's configuration.
pub struct Settings<'a> {
    /// Bind address; port `0` picks a free port.
    pub addr: &'a str,
    /// Connection-worker threads; `0` means all cores.
    pub workers: usize,
    /// Accept-queue capacity (connections beyond this get 503).
    pub queue_capacity: usize,
    /// Maximum request-body size in bytes (beyond → 413).
    pub max_body: usize,
    /// Longest wait for the peer's next bytes (idle keep-alive
    /// lifetime).
    pub read_timeout: Duration,
    /// Whole-request read budget from the first byte (beyond → 408);
    /// `ZERO` disables.
    pub read_deadline: Duration,
    /// Whether to record spans and latency histograms.
    pub trace: bool,
}

/// The running front-end's state, as routes see it.
pub struct Front {
    queue: BoundedQueue<TcpStream>,
    tracer: Arc<Tracer>,
    stop: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    max_body: usize,
    read_timeout: Duration,
    read_deadline: Duration,
}

impl Front {
    /// Connections waiting in the accept queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The accept queue's capacity.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Connection-worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True once a shutdown has begun.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

struct Shared<S> {
    front: Front,
    service: S,
}

/// A bound, not-yet-running front-end.
pub struct Bound<S> {
    listener: TcpListener,
    shared: Arc<Shared<S>>,
}

/// Remote control for a running front-end (cloneable, thread-safe).
pub struct Handle<S> {
    shared: Arc<Shared<S>>,
}

impl<S> Clone for Handle<S> {
    fn clone(&self) -> Handle<S> {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S> Handle<S> {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr
    }

    /// The service behind the front-end.
    #[must_use]
    pub fn service(&self) -> &S {
        &self.shared.service
    }

    /// The front-end's state.
    #[must_use]
    pub fn front(&self) -> &Front {
        &self.shared.front
    }

    /// Begin a graceful shutdown: stop accepting, drain queued and
    /// in-flight requests, then let `run` return. Idempotent.
    pub fn shutdown(&self) {
        let front = &self.shared.front;
        if front.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        front.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(front.addr);
    }
}

impl<S: Service> Bound<S> {
    /// Bind `settings.addr`, then build the service around the
    /// front-end's tracer. It serves nothing until [`Bound::run`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a zero `queue_capacity`; bind failures.
    pub fn open(settings: &Settings, service: impl FnOnce(&Arc<Tracer>) -> S) -> io::Result<Self> {
        if settings.queue_capacity == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "queue_capacity must be at least 1",
            ));
        }
        let listener = TcpListener::bind(settings.addr)?;
        let addr = listener.local_addr()?;
        let workers = if settings.workers == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            settings.workers
        };
        let tracer = if settings.trace {
            Tracer::new(8192)
        } else {
            Tracer::disabled()
        };
        let service = service(&tracer);
        Ok(Bound {
            listener,
            shared: Arc::new(Shared {
                front: Front {
                    queue: BoundedQueue::new(settings.queue_capacity),
                    tracer,
                    stop: AtomicBool::new(false),
                    addr,
                    workers,
                    max_body: settings.max_body,
                    read_timeout: settings.read_timeout,
                    read_deadline: settings.read_deadline,
                },
                service,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.front.addr
    }

    /// The service behind the front-end.
    pub(crate) fn service(&self) -> &S {
        &self.shared.service
    }

    /// A handle for shutting the front-end down from another thread.
    #[must_use]
    pub fn handle(&self) -> Handle<S> {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until a graceful shutdown is requested, then drain and
    /// return. Runs the accept loop on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates worker-spawn failures (per-connection errors are
    /// handled, not propagated).
    pub fn run(self) -> io::Result<()> {
        let (front, counters) = (&self.shared.front, self.shared.service.counters());
        let mut workers = Vec::with_capacity(front.workers);
        for i in 0..front.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", S::THREADS))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        for stream in self.listener.incoming() {
            if front.stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            counters.connections_total.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_read_timeout(Some(poll_slice(front.read_timeout)));
            let _ = stream.set_nodelay(true);
            match front.queue.try_push(stream) {
                Ok(()) => {}
                Err(PushError::Full(mut stream)) => {
                    counters.rejected_total.fetch_add(1, Ordering::Relaxed);
                    let msg = format!("{} is at capacity, retry shortly", S::NOUN);
                    let resp = Response::error(503, &msg).with_header("Retry-After", "1".into());
                    let _ = resp.write_to(&mut stream, false);
                }
                Err(PushError::Closed(_)) => break,
            }
        }

        // Shutdown: close the queue (idempotent), drain, join.
        front.queue.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop<S: Service>(shared: &Arc<Shared<S>>) {
    let busy = &shared.service.counters().workers_busy;
    while let Some(mut stream) = shared.front.queue.pop() {
        busy.fetch_add(1, Ordering::Relaxed);
        handle_connection(shared, &mut stream);
        busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve one connection for its keep-alive lifetime. Never panics on
/// peer input: every parse failure maps to a 4xx and a close.
fn handle_connection<S: Service>(shared: &Arc<Shared<S>>, stream: &mut TcpStream) {
    let (front, service) = (&shared.front, &shared.service);
    let (counters, tracer) = (service.counters(), &front.tracer);
    let idle = front.read_timeout;
    let mut between_requests = false;
    loop {
        // A connection's first request is awaited by the read alone, so
        // one accepted before a stop is still answered; between
        // keep-alive requests a stop closes the connection at once.
        if between_requests && !await_request(stream, &front.stop, idle) {
            return;
        }
        between_requests = true;
        let request =
            match read_request_deadline(stream, front.max_body, Some(idle), front.read_deadline) {
                Ok(r) => r,
                Err(RequestError::Closed | RequestError::TimedOut | RequestError::Io(_)) => return,
                Err(RequestError::ReadDeadline) => {
                    counters.read_deadline_total.fetch_add(1, Ordering::Relaxed);
                    let _ = Response::error(408, "request read deadline exceeded")
                        .write_to(stream, false);
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
        let endpoint = endpoint_label(S::ENDPOINTS, &request.path);
        // Root span of this request's trace; everything the request
        // causes parents onto it. A no-op when tracing is disabled
        // (ctx stays `SpanCtx::NONE`, attrs are dropped).
        let adopted = if S::ADOPT_TRACEPARENT && tracer.is_enabled() {
            request
                .header("x-dsp-traceparent")
                .and_then(dsp_trace::parse_traceparent)
        } else {
            None
        };
        let parent = adopted.unwrap_or_else(|| tracer.new_trace());
        let mut span = tracer.span(S::ROOT_SPAN.0, S::ROOT_SPAN.1, parent);
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
            let keep_alive = request.keep_alive() && !front.stopping();
            let reply = Reply {
                stream,
                keep_alive,
                req_id: req_id.as_deref(),
                tag: service.tag(),
            };
            let outcome = service.sweep(&request, reply, root);
            span.attr("status", &outcome.status.to_string());
            drop(span);
            counters.record_request(endpoint, outcome.status, started.elapsed());
            if !outcome.io_ok || !keep_alive {
                return;
            }
            continue;
        }

        let mut grace = None;
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/debug/trace") => handle_debug_trace::<S>(tracer, &request.query),
            ("POST", "/admin/shutdown") => {
                grace = Some(service.begin_drain());
                Response::json(200, "{\"status\": \"draining\"}\n".to_string())
            }
            _ => service
                .route(front, &request, root, req_id.as_deref())
                .unwrap_or_else(|| unrouted(S::ENDPOINTS, &request.path)),
        };
        let response = tagged(response, req_id.as_deref(), service.tag());
        span.attr("status", &response.status.to_string());
        drop(span);
        counters.record_request(endpoint, response.status, started.elapsed());

        let keep_alive = request.keep_alive() && !front.stopping() && grace.is_none();
        if response.write_to(stream, keep_alive).is_err() {
            return;
        }
        if let Some(grace) = grace {
            // After answering: stop accepting and drain — immediately
            // with no grace, else after the drain window.
            let handle = Handle {
                shared: Arc::clone(shared),
            };
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

/// The endpoint label of `path` in `endpoints` (`other` when absent,
/// so label cardinality stays fixed).
#[must_use]
pub fn endpoint_label(endpoints: &[(&str, &'static str)], path: &str) -> &'static str {
    endpoints
        .iter()
        .find(|(p, _)| *p == path)
        .map_or("other", |(_, label)| label)
}

/// The answer when no route matched: 405 on a known path, else 404.
fn unrouted(endpoints: &[(&str, &str)], path: &str) -> Response {
    if endpoints.iter().any(|(p, _)| *p == path) {
        Response::error(405, "method not allowed for this path")
    } else {
        Response::error(404, "no such endpoint")
    }
}

/// `resp` with the request's `X-Request-Id` and the service's tag.
fn tagged(resp: Response, req_id: Option<&str>, tag: Option<(&'static str, &str)>) -> Response {
    let resp = match req_id {
        Some(id) => resp.with_header("X-Request-Id", id.to_string()),
        None => resp,
    };
    match tag {
        Some((name, value)) => resp.with_header(name, value.to_string()),
        None => resp,
    }
}

/// The request's correlation ID: a client-supplied `X-Request-Id`
/// (sanitized to `[A-Za-z0-9._:-]`, at most 64 chars) wins; otherwise
/// the trace ID is minted into one; with tracing off and no client
/// header there is none. A router and its replicas share the policy,
/// so an ID minted at the router passes every hop verbatim.
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

/// `GET /debug/trace?n=K`: the most recent `K` finished spans (default
/// 256, clamped to 1..=4096) as a JSON document, oldest first. 404
/// when tracing is disabled so probes can tell "off" from "empty".
fn handle_debug_trace<S: Service>(tracer: &Tracer, query: &str) -> Response {
    if !tracer.is_enabled() {
        return Response::error(404, &format!("tracing is disabled on this {}", S::NOUN));
    }
    // No percent decoding: trace parameters are plain integers.
    let n = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256)
        .clamp(1, 4096);
    let spans = tracer.snapshot(n);
    let mut body = String::with_capacity(64 + spans.len() * 192);
    body.push_str("{\"schema\": \"dualbank-trace/v1\", \"dropped\": ");
    body.push_str(&tracer.dropped().to_string());
    body.push_str(", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        body.push_str(if i == 0 { "\n" } else { ",\n" });
        body.push_str(&dsp_trace::export::span_json(s));
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

/// The connection a self-writing handler answers on, with the headers
/// every response on it carries.
pub struct Reply<'a> {
    stream: &'a mut TcpStream,
    keep_alive: bool,
    /// The request's correlation ID (echoed as `X-Request-Id`).
    pub req_id: Option<&'a str>,
    tag: Option<(&'static str, &'a str)>,
}

impl<'a> Reply<'a> {
    /// Write `resp` with a `Content-Length`.
    #[must_use]
    pub fn finish_buffered(self, resp: Response) -> SweepOutcome {
        let resp = tagged(resp, self.req_id, self.tag);
        SweepOutcome {
            status: resp.status,
            io_ok: resp.write_to(self.stream, self.keep_alive).is_ok(),
        }
    }

    /// Start a chunked `200` JSON response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn chunked(self) -> io::Result<ChunkedWriter<'a>> {
        let id = self.req_id.map(|id| ("X-Request-Id", id));
        let headers: Vec<(&str, &str)> = id.into_iter().chain(self.tag).collect();
        ChunkedWriter::start(
            self.stream,
            200,
            "application/json",
            self.keep_alive,
            &headers,
        )
    }
}

/// How a self-writing handler left the connection.
#[derive(Debug, Clone, Copy)]
pub struct SweepOutcome {
    /// Status for the request counters and the root span.
    pub status: u16,
    /// False once a write failed — the connection must close.
    pub io_ok: bool,
}

impl SweepOutcome {
    /// A `200` whose body could not be written to the end.
    pub const BROKEN: SweepOutcome = SweepOutcome {
        status: 200,
        io_ok: false,
    };
}

/// The front-end's counters. Each service renders them with its own
/// metric names; `dsp-serve` alone renders `connections_total` and
/// `workers_busy`.
pub struct Counters {
    /// Requests by (endpoint label, status code).
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Connections accepted (including ones later rejected with 503).
    pub connections_total: AtomicU64,
    /// Connections answered 503 because the queue was full.
    pub rejected_total: AtomicU64,
    /// Requests whose bytes trickled past the whole-request read
    /// deadline (answered 408).
    pub read_deadline_total: AtomicU64,
    /// Workers currently handling a connection.
    pub workers_busy: AtomicUsize,
    /// Feeds the request-latency histogram; also the service's source
    /// of its other histogram families.
    tracer: Arc<Tracer>,
}

impl Counters {
    /// Fresh, zeroed counters recording latencies into `tracer` (pass
    /// [`Tracer::disabled`] to record none).
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Counters {
        Counters {
            requests: Mutex::new(BTreeMap::new()),
            connections_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            read_deadline_total: AtomicU64::new(0),
            workers_busy: AtomicUsize::new(0),
            tracer,
        }
    }

    /// The tracer latencies are recorded into.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Count one finished request and feed its latency to the tracer.
    ///
    /// # Panics
    ///
    /// Panics if the request-map mutex is poisoned.
    pub fn record_request(&self, endpoint: &'static str, status: u16, latency: Duration) {
        *self
            .requests
            .lock()
            .expect("metrics mutex poisoned")
            .entry((endpoint, status))
            .or_insert(0) += 1;
        if self.tracer.is_enabled() {
            self.tracer.observe(
                families::HTTP_REQUEST,
                &format!("{endpoint}|{status}"),
                latency,
            );
        }
    }

    /// Total requests recorded for `endpoint` (any status).
    ///
    /// # Panics
    ///
    /// Panics if the request-map mutex is poisoned.
    #[must_use]
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.requests
            .lock()
            .expect("metrics mutex poisoned")
            .iter()
            .filter(|((e, _), _)| *e == endpoint)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Render the request counts as counter family `name`, labelled
    /// by endpoint and status.
    ///
    /// # Panics
    ///
    /// Panics if the request-map mutex is poisoned.
    pub fn render_requests(&self, x: &mut Exposition, name: &str, help: &str) {
        x.family(name, Kind::Counter, help);
        for ((endpoint, status), n) in self.requests.lock().expect("metrics mutex poisoned").iter()
        {
            let status = status.to_string();
            x.sample(name, &[("endpoint", endpoint), ("status", &status)], n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_paths_count_as_other_and_known_ones_answer_405() {
        let table = [("/compile", "compile"), ("/debug/trace", "trace")];
        assert_eq!(endpoint_label(&table, "/compile"), "compile");
        assert_eq!(endpoint_label(&table, "/debug/trace"), "trace");
        assert_eq!(endpoint_label(&table, "/compile/x"), "other");
        assert_eq!(unrouted(&table, "/compile").status, 405);
        assert_eq!(unrouted(&table, "/nope").status, 404);
    }
}
