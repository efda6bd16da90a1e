#![warn(missing_docs)]
//! `dsp-serve` — the bank-partitioning pipeline as a long-running
//! network service.
//!
//! A hand-rolled HTTP/1.1 server on [`std::net::TcpListener`] (the
//! build container has no registry access, so there is no tokio /
//! hyper / serde — everything here is `std`-only, like the vendored
//! `proptest` shim). An accept loop feeds a bounded connection queue
//! drained by a worker pool; workers parse requests and submit compute
//! to the one machine-sized [`dsp_driver::Executor`] shared with the
//! [`dsp_driver::Engine`] — `/compile` at interactive priority,
//! `/sweep` cells as batch jobs — so every request benefits from the
//! same 4-layer content-hashed artifact cache, and a repeated kernel
//! compiles once and then serves from memory.
//!
//! `/sweep` responses stream: the server decomposes the matrix into
//! per-cell jobs and sends each completed `jobs[]` entry as an
//! HTTP/1.1 chunk, in submission order, so the reassembled body is
//! byte-identical to the buffered report (HTTP/1.0 clients get the
//! buffered fallback).
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /compile` | DSP-C source + strategy → cycles, bank stats, optional LIR listing |
//! | `POST /sweep` | strategy × workload matrix → `dualbank-run-report/v1` JSON |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text: requests, latency histograms, queue, 503s, cache |
//! | `GET /debug/trace?n=K` | most recent `K` finished spans (request → queue wait → stages) |
//! | `POST /admin/shutdown` | graceful drain |
//!
//! # Observability
//!
//! Every request gets a root span and a correlation ID: a sane
//! client-supplied `X-Request-Id` is reused, otherwise one is minted
//! from the trace ID. The ID is echoed in the `X-Request-Id` response
//! header, appears as `"request_id"` in `/compile` responses and on
//! each streamed `/sweep` job object, and links the request to its
//! spans in `GET /debug/trace`. Latency distributions (request by
//! endpoint/status, executor queue wait by class, pipeline stage
//! duration) render as `dsp_serve_*_seconds` histogram families in
//! `/metrics`. Set [`ServerConfig::trace`] to `false` for the no-op
//! recorder: no spans, no IDs, no histogram families, zero overhead.
//! See `docs/observability.md`.
//!
//! # Robustness
//!
//! * **Backpressure** — a full queue answers `503` with `Retry-After`
//!   instead of queueing unboundedly.
//! * **Deadlines** — a compute request exceeding the configured
//!   wall-clock budget before any byte is sent answers `504` and its
//!   remaining queued jobs are cancelled; a sweep that times out
//!   mid-stream closes with a well-formed `"truncated": true` tail
//!   instead. An abandoned in-flight job runs to its end: its
//!   simulation stops at `--fuel` cycles, but its profile and reference
//!   interpreter runs ignore `--fuel` and stop only at the
//!   interpreter's fixed 500 M-op budget (about 11 s on a tight loop,
//!   release build, 2-CPU host), which outlasts the default deadline.
//! * **Input limits** — oversized bodies get `413`, malformed requests
//!   `400`; no peer input can panic a worker.
//! * **Graceful shutdown** — draining finishes queued and in-flight
//!   requests before [`Server::run`] returns.
//!
//! # Example
//!
//! ```
//! use dsp_serve::{Server, ServerConfig, client::ClientConn};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! })?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut conn = ClientConn::connect(addr, Duration::from_secs(10))?;
//! let resp = conn.request("GET", "/healthz", None)?;
//! assert_eq!(resp.status, 200);
//!
//! handle.shutdown();
//! thread.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use metrics::Metrics;
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig, ServerHandle};
