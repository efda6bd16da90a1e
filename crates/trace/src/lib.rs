#![warn(missing_docs)]
//! `dsp-trace` — std-only, lock-cheap tracing for the dualbank
//! pipeline: spans, request IDs, latency histograms, Perfetto export.
//!
//! The paper's evaluation hinges on knowing where cycles go; this
//! crate applies the same discipline to our own pipeline. One
//! [`Tracer`] is shared (via `Arc`) by the executor, the engine, and
//! the HTTP server:
//!
//! - **Spans.** [`Tracer::span`] returns an RAII guard that records a
//!   [`FinishedSpan`] on drop — name, category, parent/child context,
//!   start offset and duration in microseconds against the tracer's
//!   own monotonic epoch, the recording thread, and string attributes.
//!   Stages whose durations were already measured elsewhere (the
//!   compile pipeline records per-stage wall times in its reports) are
//!   backfilled with [`Tracer::record_span`] so the trace still nests.
//! - **IDs.** [`Tracer::new_trace`] mints process-unique 64-bit trace
//!   IDs (a random-ish per-process base plus an atomic counter); the
//!   server derives `X-Request-Id` values from them.
//! - **Ring buffer.** Finished spans land in a bounded ring; when it
//!   fills, the oldest spans are dropped and counted, so a long-lived
//!   server never grows without bound.
//! - **Histograms.** [`Tracer::observe`] feeds named families of
//!   log-bucketed [`hist::Histogram`]s (request latency, queue wait,
//!   stage duration) from which p50/p90/p99/max derive.
//! - **Exporters.** [`export::chrome_trace`] writes Chrome trace-event
//!   JSON loadable in Perfetto / `chrome://tracing`;
//!   [`export::jsonl`] writes one JSON object per line;
//!   [`expo::Exposition`] writes the Prometheus text format every
//!   `/metrics` endpoint serves, tracer families included.
//! - **Wire context.** [`wire`] carries a trace across processes: the
//!   router injects `X-Dsp-Traceparent: <trace>-<parent_span>` on
//!   upstream hops and replicas adopt it, so one trace id spans the
//!   whole fleet and `/debug/trace` dumps join on it.
//!
//! A tracer built with [`Tracer::disabled`] is a no-op: spans carry no
//! state, nothing allocates, nothing locks. The `overhead` integration
//! test asserts this stays effectively free, so instrumentation can be
//! left in place on hot paths. Trace IDs and timestamps never enter
//! deterministic report projections, so enabling tracing cannot
//! perturb `--deterministic` output.

pub mod expo;
pub mod export;
pub mod hist;
pub mod log;
pub mod wire;

pub use hist::{
    bucket_bound_micros, bucket_bound_seconds, Histogram, HistogramSnapshot, FINITE_BUCKETS,
};
pub use wire::{format_traceparent, parse_traceparent, TRACEPARENT_HEADER};

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Well-known histogram family names shared by the instrumented
/// crates, so `/metrics` rendering and instrumentation sites agree.
pub mod families {
    /// Compile/simulate pipeline stage durations, labeled by stage.
    pub const STAGE: &str = "stage";
    /// Executor queue wait, labeled by priority class.
    pub const QUEUE_WAIT: &str = "exec_queue_wait";
    /// HTTP request latency, labeled `"endpoint|status"`.
    pub const HTTP_REQUEST: &str = "http_request";
    /// Router → replica attempt latency, labeled by replica address.
    pub const UPSTREAM: &str = "upstream";
}

/// 64-bit FNV-1a of `bytes`: the one stable, dependency-free hash
/// behind artifact-cache keys, the router's ring, sweep-cell digests,
/// chaos schedules, and fuzz campaign digests — identical on every
/// platform and in every process.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash `h` over more `bytes` (a running digest).
#[must_use]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A span's identity: the trace it belongs to and its own span ID.
/// `Copy`, so it travels freely across threads and closures (the
/// executor carries one per task to parent queue-wait spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Trace (request) ID; 0 means "no trace".
    pub trace: u64,
    /// Span ID; 0 means "no span" (a root context).
    pub span: u64,
}

impl SpanCtx {
    /// The empty context: no trace, no parent.
    pub const NONE: SpanCtx = SpanCtx { trace: 0, span: 0 };
}

/// A completed span, as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Trace ID (0 when recorded outside any trace).
    pub trace: u64,
    /// This span's ID.
    pub span: u64,
    /// Parent span ID (0 for roots).
    pub parent: u64,
    /// Span name (static: instrumentation sites name their spans).
    pub name: &'static str,
    /// Category, e.g. `http`, `exec`, `engine`, `stage`, `log`.
    pub cat: &'static str,
    /// Small dense ID of the recording thread.
    pub tid: u64,
    /// Start offset from the tracer's epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// String attributes (bench name, strategy, cache decision, …).
    pub attrs: Vec<(&'static str, String)>,
}

struct Inner {
    epoch: Instant,
    /// Random-ish per-process base for ID generation.
    id_base: u64,
    next_id: AtomicU64,
    capacity: usize,
    spans: Mutex<VecDeque<FinishedSpan>>,
    dropped: AtomicU64,
    hists: Mutex<BTreeMap<&'static str, BTreeMap<String, Arc<Histogram>>>>,
}

/// The span recorder. Build one with [`Tracer::new`] (enabled) or
/// [`Tracer::disabled`] (a no-op that costs one branch per call).
pub struct Tracer {
    inner: Option<Inner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Small dense per-thread ID for trace events (`tid` in the Chrome
/// export). Assigned on first use per thread, starting at 1.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// An enabled tracer whose ring keeps the most recent `capacity`
    /// finished spans.
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Tracer> {
        let capacity = capacity.max(1);
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
            .unwrap_or(0);
        // Mix wall clock and PID so concurrent processes mint disjoint
        // ID ranges with high probability.
        let id_base =
            (nanos ^ (u64::from(std::process::id()) << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Arc::new(Tracer {
            inner: Some(Inner {
                epoch: Instant::now(),
                id_base,
                next_id: AtomicU64::new(1),
                capacity,
                spans: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
                dropped: AtomicU64::new(0),
                hists: Mutex::new(BTreeMap::new()),
            }),
        })
    }

    /// A disabled tracer: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Arc<Tracer> {
        Arc::new(Tracer { inner: None })
    }

    /// Whether spans and observations are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mint a process-unique ID (0 when disabled).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        loop {
            let n = inner.next_id.fetch_add(1, Ordering::Relaxed);
            let id = inner.id_base.wrapping_add(n);
            if id != 0 {
                return id;
            }
        }
    }

    /// Start a new trace: a fresh trace ID with no parent span.
    #[must_use]
    pub fn new_trace(&self) -> SpanCtx {
        SpanCtx {
            trace: self.next_id(),
            span: 0,
        }
    }

    /// Open a span. It records itself when dropped; use
    /// [`Span::ctx`] to parent children onto it.
    #[must_use]
    pub fn span(&self, name: &'static str, cat: &'static str, parent: SpanCtx) -> Span<'_> {
        let pending = self.inner.as_ref().map(|_| {
            Box::new(PendingSpan {
                ctx: SpanCtx {
                    trace: parent.trace,
                    span: self.next_id(),
                },
                parent: parent.span,
                name,
                cat,
                start: Instant::now(),
                attrs: Vec::new(),
            })
        });
        Span {
            tracer: self,
            pending,
        }
    }

    /// Record a span whose timing was measured elsewhere: `start` is
    /// the wall-clock anchor, `dur` the measured duration. Used to
    /// backfill pipeline stages whose times the engine already
    /// captures in its reports. Returns the recorded span's context.
    pub fn record_span(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: SpanCtx,
        start: Instant,
        dur: Duration,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanCtx {
        let Some(inner) = &self.inner else {
            return SpanCtx::NONE;
        };
        let ctx = SpanCtx {
            trace: parent.trace,
            span: self.next_id(),
        };
        let start_us = start
            .checked_duration_since(inner.epoch)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        self.push(FinishedSpan {
            trace: ctx.trace,
            span: ctx.span,
            parent: parent.span,
            name,
            cat,
            tid: current_tid(),
            start_us,
            dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            attrs,
        });
        ctx
    }

    /// Record an instantaneous (zero-duration) event span.
    pub fn record_event(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: SpanCtx,
        attrs: Vec<(&'static str, String)>,
    ) {
        if self.is_enabled() {
            self.record_span(name, cat, parent, Instant::now(), Duration::ZERO, attrs);
        }
    }

    fn push(&self, span: FinishedSpan) {
        let Some(inner) = &self.inner else { return };
        let mut ring = lock(&inner.spans);
        if ring.len() >= inner.capacity {
            ring.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Record `d` into the `family` histogram labeled `label`.
    pub fn observe(&self, family: &'static str, label: &str, d: Duration) {
        let Some(inner) = &self.inner else { return };
        let hist = {
            let mut map = lock(&inner.hists);
            let by_label = map.entry(family).or_default();
            match by_label.get(label) {
                Some(h) => Arc::clone(h),
                None => {
                    let h = Arc::new(Histogram::new());
                    by_label.insert(label.to_string(), Arc::clone(&h));
                    h
                }
            }
        };
        hist.observe(d);
    }

    /// Snapshot one histogram family, labels in sorted order. Empty
    /// when the family has no observations (or tracing is disabled).
    #[must_use]
    pub fn family_snapshot(&self, family: &str) -> Vec<(String, HistogramSnapshot)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let map = lock(&inner.hists);
        map.get(family)
            .map(|by_label| {
                by_label
                    .iter()
                    .map(|(label, h)| (label.clone(), h.snapshot()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Names of families with at least one observation, sorted.
    #[must_use]
    pub fn family_names(&self) -> Vec<&'static str> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock(&inner.hists).keys().copied().collect()
    }

    /// The most recent `n` finished spans, oldest first.
    #[must_use]
    pub fn snapshot(&self, n: usize) -> Vec<FinishedSpan> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let ring = lock(&inner.spans);
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// How many spans the ring has evicted to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Export every buffered span as a Chrome trace-event document.
    #[must_use]
    pub fn export_chrome(&self) -> String {
        export::chrome_trace(&self.snapshot(usize::MAX))
    }

    /// Export every buffered span as JSONL.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        export::jsonl(&self.snapshot(usize::MAX))
    }
}

struct PendingSpan {
    ctx: SpanCtx,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
}

/// An open span; records itself into the tracer on drop. Obtained
/// from [`Tracer::span`]. On a disabled tracer the guard is inert.
pub struct Span<'a> {
    tracer: &'a Tracer,
    pending: Option<Box<PendingSpan>>,
}

impl Span<'_> {
    /// This span's context, for parenting children ([`SpanCtx::NONE`]
    /// when the tracer is disabled).
    #[must_use]
    pub fn ctx(&self) -> SpanCtx {
        self.pending.as_ref().map_or(SpanCtx::NONE, |p| p.ctx)
    }

    /// When this span started (`None` when disabled). Lets callers
    /// anchor backfilled sibling spans inside this one's window.
    #[must_use]
    pub fn start_instant(&self) -> Option<Instant> {
        self.pending.as_ref().map(|p| p.start)
    }

    /// Attach a string attribute. A no-op (no allocation) when the
    /// tracer is disabled — pass borrowed values.
    pub fn attr(&mut self, key: &'static str, value: &str) {
        if let Some(p) = &mut self.pending {
            p.attrs.push((key, value.to_string()));
        }
    }

    /// The span's duration so far (zero when disabled).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.pending
            .as_ref()
            .map_or(Duration::ZERO, |p| p.start.elapsed())
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(p) = self.pending.take() else { return };
        let inner = self.tracer.inner.as_ref().expect("pending implies enabled");
        let start_us = p
            .start
            .checked_duration_since(inner.epoch)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        let dur_us = u64::try_from(p.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.tracer.push(FinishedSpan {
            trace: p.ctx.trace,
            span: p.ctx.span,
            parent: p.parent,
            name: p.name,
            cat: p.cat,
            tid: current_tid(),
            start_us,
            dur_us,
            attrs: p.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let t = Tracer::new(8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = t.next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn spans_nest_and_share_the_trace_id() {
        let t = Tracer::new(64);
        let root = t.new_trace();
        assert_ne!(root.trace, 0);
        assert_eq!(root.span, 0);
        {
            let parent = t.span("request", "http", root);
            let pctx = parent.ctx();
            let mut child = t.span("cell", "engine", pctx);
            child.attr("bench", "fir_8_4");
            drop(child);
            drop(parent);
        }
        let spans = t.snapshot(10);
        assert_eq!(spans.len(), 2);
        // Children record before parents (drop order).
        let (child, parent) = (&spans[0], &spans[1]);
        assert_eq!(child.name, "cell");
        assert_eq!(parent.name, "request");
        assert_eq!(child.parent, parent.span);
        assert_eq!(child.trace, root.trace);
        assert_eq!(parent.trace, root.trace);
        assert_eq!(parent.parent, 0);
        assert!(child.start_us >= parent.start_us);
        assert_eq!(child.attrs, vec![("bench", "fir_8_4".to_string())]);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::new(4);
        let root = t.new_trace();
        for _ in 0..10 {
            drop(t.span("s", "test", root));
        }
        assert_eq!(t.snapshot(usize::MAX).len(), 4);
        assert_eq!(t.dropped(), 6);
        // snapshot(n) keeps the newest spans.
        assert_eq!(t.snapshot(2).len(), 2);
    }

    #[test]
    fn record_span_backfills_with_external_timing() {
        let t = Tracer::new(8);
        let root = t.new_trace();
        let parent = t.span("artifact", "engine", root);
        let anchor = parent.start_instant().expect("enabled");
        let ctx = t.record_span(
            "regalloc",
            "stage",
            parent.ctx(),
            anchor,
            Duration::from_micros(250),
            vec![("strategy", "greedy".to_string())],
        );
        assert_ne!(ctx.span, 0);
        drop(parent);
        let spans = t.snapshot(10);
        let stage = spans.iter().find(|s| s.name == "regalloc").unwrap();
        let art = spans.iter().find(|s| s.name == "artifact").unwrap();
        assert_eq!(stage.parent, art.span);
        assert_eq!(stage.start_us, art.start_us);
        assert_eq!(stage.dur_us, 250);
    }

    #[test]
    fn histogram_families_collect_by_label() {
        let t = Tracer::new(8);
        t.observe(families::STAGE, "simulate", Duration::from_micros(100));
        t.observe(families::STAGE, "simulate", Duration::from_micros(200));
        t.observe(families::STAGE, "regalloc", Duration::from_micros(50));
        assert_eq!(t.family_names(), vec![families::STAGE]);
        let fam = t.family_snapshot(families::STAGE);
        assert_eq!(fam.len(), 2);
        assert_eq!(fam[0].0, "regalloc");
        assert_eq!(fam[0].1.count, 1);
        assert_eq!(fam[1].0, "simulate");
        assert_eq!(fam[1].1.count, 2);
        assert_eq!(fam[1].1.sum_micros, 300);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.new_trace(), SpanCtx::NONE);
        let mut s = t.span("x", "test", SpanCtx::NONE);
        s.attr("k", "v");
        assert_eq!(s.ctx(), SpanCtx::NONE);
        assert!(s.start_instant().is_none());
        drop(s);
        t.observe(families::STAGE, "simulate", Duration::from_micros(1));
        assert!(t.snapshot(10).is_empty());
        assert!(t.family_names().is_empty());
        assert_eq!(
            t.record_span(
                "y",
                "test",
                SpanCtx::NONE,
                Instant::now(),
                Duration::ZERO,
                Vec::new(),
            ),
            SpanCtx::NONE
        );
        assert_eq!(t.export_chrome().matches("\"ph\"").count(), 0);
    }

    #[test]
    fn export_round_trips_through_the_ring() {
        let t = Tracer::new(8);
        let root = t.new_trace();
        let parent = t.span("outer", "test", root);
        drop(t.span("inner", "test", parent.ctx()));
        drop(parent);
        let chrome = t.export_chrome();
        assert!(chrome.contains("\"traceEvents\""));
        assert_eq!(chrome.matches("\"ph\": \"X\"").count(), 2);
        let jsonl = t.export_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
    }
}
