//! Router telemetry in the Prometheus text exposition format
//! (`GET /metrics` on the router), written through the shared
//! [`Exposition`] writer.
//!
//! The families the scale-out tier is operated by:
//!
//! * `dsp_router_upstream_up{replica}` — ring membership per replica.
//! * `dsp_router_requests_total{replica,status}` — upstream attempts
//!   by replica and status (connect failures count as status `"error"`).
//! * `dsp_router_retries_total` / `dsp_router_retry_budget_tokens` /
//!   `dsp_router_retry_budget_exhausted_total` — failover pressure.
//! * `dsp_router_hash_moves_total` — ring membership transitions; each
//!   remaps exactly one replica's shard (consistent hashing).
//! * `dsp_router_request_seconds{endpoint,status}` and
//!   `dsp_router_upstream_seconds{replica}` — latency histograms fed
//!   through the shared `dsp-trace` tracer (absent with `--no-trace`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsp_serve::front::Counters;
use dsp_trace::expo::{Exposition, Kind};
use dsp_trace::{families, Tracer};

use crate::replica::{ReplicaSet, RetryBudget};

/// Path → endpoint label of every path the router answers.
pub const ENDPOINTS: &[(&str, &str)] = &[
    ("/compile", "compile"),
    ("/sweep", "sweep"),
    ("/healthz", "healthz"),
    ("/readyz", "readyz"),
    ("/metrics", "metrics"),
    ("/replicas", "replicas"),
    ("/debug/trace", "trace"),
    ("/admin/shutdown", "shutdown"),
];

/// All router counters.
pub struct RouterMetrics {
    started: Instant,
    /// The front-end's counters: client-facing requests by endpoint
    /// and status, 503s and 408s. Its tracer feeds the latency
    /// histogram families.
    pub front: Counters,
    /// Upstream attempts by (replica address, status label).
    upstream_requests: Mutex<BTreeMap<(String, String), u64>>,
    /// Upstream attempts replayed onto another replica.
    pub retries_total: AtomicU64,
    /// Retries refused because the token bucket was empty.
    pub retry_budget_exhausted_total: AtomicU64,
    /// Requests answered 503 because no upstream replica was ready.
    pub no_upstream_total: AtomicU64,
    /// Fanned-out sweeps closed with `"truncated": true` after a cell
    /// failed on every allowed attempt.
    pub sweep_truncations_total: AtomicU64,
    /// Upstream attempts fast-failed by an open circuit breaker.
    pub breaker_fast_fail_total: AtomicU64,
    /// Sweep cells whose `"digest"` checksum failed verification at
    /// fan-in (each is re-fetched once before the cell errors).
    pub cell_digest_mismatch_total: AtomicU64,
}

impl RouterMetrics {
    /// Fresh, zeroed counters; `tracer` feeds the latency histogram
    /// families (pass [`Tracer::disabled`] to omit them).
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> RouterMetrics {
        RouterMetrics {
            started: Instant::now(),
            front: Counters::new(tracer),
            upstream_requests: Mutex::new(BTreeMap::new()),
            retries_total: AtomicU64::new(0),
            retry_budget_exhausted_total: AtomicU64::new(0),
            no_upstream_total: AtomicU64::new(0),
            sweep_truncations_total: AtomicU64::new(0),
            breaker_fast_fail_total: AtomicU64::new(0),
            cell_digest_mismatch_total: AtomicU64::new(0),
        }
    }

    /// Count one upstream attempt. `status` is the HTTP status the
    /// replica answered, or `None` for a connect/transport failure
    /// (rendered as `status="error"`).
    ///
    /// # Panics
    ///
    /// Panics if the upstream-map mutex is poisoned.
    pub fn record_upstream(&self, replica: &str, status: Option<u16>, latency: Duration) {
        let label = status.map_or_else(|| "error".to_string(), |s| s.to_string());
        *self
            .upstream_requests
            .lock()
            .expect("metrics mutex poisoned")
            .entry((replica.to_string(), label))
            .or_insert(0) += 1;
        let tracer = self.front.tracer();
        if tracer.is_enabled() {
            tracer.observe(families::UPSTREAM, replica, latency);
        }
    }

    /// Render the Prometheus text format.
    ///
    /// # Panics
    ///
    /// Panics if a metrics mutex is poisoned.
    #[must_use]
    pub fn render(
        &self,
        set: &ReplicaSet,
        budget: &RetryBudget,
        queue_depth: usize,
        queue_capacity: usize,
    ) -> String {
        use Kind::{Counter, Gauge};
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut x = Exposition::new();
        x.single("dsp_router_up", Gauge, "1 while the router runs.", 1);
        x.single(
            "dsp_router_uptime_seconds",
            Gauge,
            "Seconds since the router started.",
            format_args!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        x.single(
            "dsp_router_queue_depth",
            Gauge,
            "Connections waiting in the accept queue.",
            queue_depth,
        );
        x.single(
            "dsp_router_queue_capacity",
            Gauge,
            "Accept-queue capacity (pushes beyond this are 503s).",
            queue_capacity,
        );

        let name = "dsp_router_upstream_up";
        x.family(
            name,
            Gauge,
            "1 while the replica is in the hash ring (ready), 0 while ejected.",
        );
        for i in 0..set.len() {
            x.sample(name, &[("replica", set.addr(i))], u8::from(set.is_up(i)));
        }
        let name = "dsp_router_upstream_info";
        x.family(
            name,
            Gauge,
            "Announced replica identity per upstream address.",
        );
        for i in 0..set.len() {
            // The id comes from the replica's `X-Dsp-Replica` header:
            // the writer escapes it like every other label value.
            let id = set.announced_id(i).unwrap_or_default();
            x.sample(name, &[("replica", set.addr(i)), ("id", &id)], 1);
        }

        let name = "dsp_router_requests_total";
        x.family(
            name,
            Counter,
            "Upstream attempts by replica and status (connect failures are status=\"error\").",
        );
        for ((replica, status), n) in self
            .upstream_requests
            .lock()
            .expect("metrics mutex poisoned")
            .iter()
        {
            x.sample(name, &[("replica", replica), ("status", status)], n);
        }
        self.front.render_requests(
            &mut x,
            "dsp_router_client_requests_total",
            "Finished client-facing requests by endpoint and status.",
        );

        for (name, help, n) in [
            (
                "dsp_router_retries_total",
                "Requests replayed onto another replica after a retryable failure.",
                load(&self.retries_total),
            ),
            (
                "dsp_router_retry_budget_exhausted_total",
                "Retries refused because the token bucket was empty.",
                load(&self.retry_budget_exhausted_total),
            ),
            (
                "dsp_router_hash_moves_total",
                "Ring membership transitions (ejections + readmissions); each remaps one replica's shard.",
                load(&set.hash_moves_total),
            ),
            (
                "dsp_router_probes_total",
                "Readiness probes answered ready.",
                load(&set.probes_ok_total),
            ),
            (
                "dsp_router_probe_failures_total",
                "Readiness probes that failed or answered not-ready.",
                load(&set.probes_failed_total),
            ),
            (
                "dsp_router_rejected_total",
                "Connections answered 503 because the accept queue was full.",
                load(&self.front.rejected_total),
            ),
            (
                "dsp_router_no_upstream_total",
                "Requests answered 503 because no replica was ready.",
                load(&self.no_upstream_total),
            ),
            (
                "dsp_router_sweep_truncated_total",
                "Fanned-out sweeps closed with truncated: true after cell failure.",
                load(&self.sweep_truncations_total),
            ),
            (
                "dsp_router_breaker_fast_fail_total",
                "Upstream attempts fast-failed by an open circuit breaker.",
                load(&self.breaker_fast_fail_total),
            ),
            (
                "dsp_router_pool_reaped_total",
                "Pooled keep-alive connections retired after idling past --pool-idle-ms.",
                load(&set.pool_reaped_total),
            ),
            (
                "dsp_router_read_deadline_total",
                "Client requests whose bytes trickled past the read deadline (408).",
                load(&self.front.read_deadline_total),
            ),
            (
                "dsp_router_cell_digest_mismatch_total",
                "Sweep cells whose end-to-end digest failed verification at fan-in.",
                load(&self.cell_digest_mismatch_total),
            ),
        ] {
            x.single(name, Counter, help, n);
        }
        let name = "dsp_router_breaker_state";
        x.family(
            name,
            Gauge,
            "Per-replica circuit breaker: 0 closed, 1 half-open, 2 open.",
        );
        for i in 0..set.len() {
            x.sample(
                name,
                &[("replica", set.addr(i))],
                set.breaker_state(i).gauge(),
            );
        }
        let name = "dsp_router_breaker_transitions_total";
        x.family(
            name,
            Counter,
            "Circuit-breaker state transitions by replica and target state.",
        );
        for i in 0..set.len() {
            let [open, half, closed] = set.breaker_transitions(i);
            for (to, n) in [("open", open), ("half-open", half), ("closed", closed)] {
                x.sample(name, &[("replica", set.addr(i)), ("to", to)], n);
            }
        }
        x.single(
            "dsp_router_retry_budget_tokens",
            Gauge,
            "Retry tokens currently available.",
            format_args!("{:.3}", budget.tokens()),
        );

        x.tracer_family(
            self.front.tracer(),
            families::HTTP_REQUEST,
            "dsp_router_request_seconds",
            "End-to-end routed request latency by endpoint and status.",
            &["endpoint", "status"],
        );
        x.tracer_family(
            self.front.tracer(),
            families::UPSTREAM,
            "dsp_router_upstream_seconds",
            "Upstream attempt latency by replica.",
            &["replica"],
        );
        x.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_set() -> ReplicaSet {
        ReplicaSet::new(
            vec!["127.0.0.1:9201".into(), "127.0.0.1:9202".into()],
            crate::replica::UpstreamPolicy {
                pool_cap: 2,
                upstream_timeout: Duration::from_millis(100),
                ..crate::replica::UpstreamPolicy::default()
            },
        )
    }

    #[test]
    fn render_contains_the_documented_families() {
        let set = sample_set();
        set.observe(1, false);
        set.observe(1, false); // eject replica 1
        set.set_announced_id(0, "r1");
        let budget = RetryBudget::new(8.0, 0.1);
        let m = RouterMetrics::new(Tracer::disabled());
        m.front
            .record_request("compile", 200, Duration::from_millis(2));
        m.record_upstream("127.0.0.1:9201", Some(200), Duration::from_millis(1));
        m.record_upstream("127.0.0.1:9202", None, Duration::from_millis(1));
        m.retries_total.fetch_add(1, Ordering::Relaxed);
        let text = m.render(&set, &budget, 0, 64);
        for line in [
            "dsp_router_up 1",
            "dsp_router_upstream_up{replica=\"127.0.0.1:9201\"} 1",
            "dsp_router_upstream_up{replica=\"127.0.0.1:9202\"} 0",
            "dsp_router_upstream_info{replica=\"127.0.0.1:9201\",id=\"r1\"} 1",
            "dsp_router_requests_total{replica=\"127.0.0.1:9201\",status=\"200\"} 1",
            "dsp_router_requests_total{replica=\"127.0.0.1:9202\",status=\"error\"} 1",
            "dsp_router_client_requests_total{endpoint=\"compile\",status=\"200\"} 1",
            "dsp_router_retries_total 1",
            "dsp_router_retry_budget_exhausted_total 0",
            "dsp_router_hash_moves_total 1",
            "dsp_router_retry_budget_tokens 8.000",
            "dsp_router_no_upstream_total 0",
            "dsp_router_sweep_truncated_total 0",
            "dsp_router_breaker_fast_fail_total 0",
            "dsp_router_pool_reaped_total 0",
            "dsp_router_read_deadline_total 0",
            "dsp_router_cell_digest_mismatch_total 0",
            "dsp_router_breaker_state{replica=\"127.0.0.1:9201\"} 0",
            "dsp_router_breaker_transitions_total{replica=\"127.0.0.1:9202\",to=\"open\"} 0",
        ] {
            assert!(text.contains(line), "missing `{line}` in:\n{text}");
        }
    }

    #[test]
    fn latency_families_render_only_with_tracing() {
        let set = sample_set();
        let budget = RetryBudget::new(8.0, 0.1);
        let traced = RouterMetrics::new(Tracer::new(64));
        traced
            .front
            .record_request("compile", 200, Duration::from_millis(2));
        traced.record_upstream("127.0.0.1:9201", Some(200), Duration::from_micros(700));
        let text = traced.render(&set, &budget, 0, 64);
        for line in [
            "# TYPE dsp_router_request_seconds histogram",
            "dsp_router_request_seconds_count{endpoint=\"compile\",status=\"200\"} 1",
            "# TYPE dsp_router_upstream_seconds histogram",
            "dsp_router_upstream_seconds_count{replica=\"127.0.0.1:9201\"} 1",
        ] {
            assert!(text.contains(line), "missing `{line}` in:\n{text}");
        }
        let untraced = RouterMetrics::new(Tracer::disabled());
        untraced
            .front
            .record_request("compile", 200, Duration::from_millis(2));
        let text = untraced.render(&set, &budget, 0, 64);
        assert!(!text.contains("dsp_router_request_seconds"), "{text}");
        assert!(!text.contains("dsp_router_upstream_seconds"), "{text}");
    }

    /// Every family with fixed counters and an enabled tracer, pinned
    /// byte for byte. The uptime sample is wall-clock, so it is masked.
    #[test]
    fn exposition_matches_the_golden_file() {
        let set = sample_set();
        set.observe(1, false);
        set.observe(1, false); // eject replica 1
        set.set_announced_id(0, "r1");
        set.probes_ok_total.store(4, Ordering::Relaxed);
        set.probes_failed_total.store(2, Ordering::Relaxed);
        let budget = RetryBudget::new(8.0, 0.1);
        let m = RouterMetrics::new(Tracer::new(64));
        m.front
            .record_request("compile", 200, Duration::from_millis(2));
        m.front
            .record_request("sweep", 503, Duration::from_micros(40));
        m.record_upstream("127.0.0.1:9201", Some(200), Duration::from_millis(1));
        m.record_upstream("127.0.0.1:9202", None, Duration::from_micros(700));
        m.retries_total.store(3, Ordering::Relaxed);
        m.retry_budget_exhausted_total.store(1, Ordering::Relaxed);
        m.front.rejected_total.store(2, Ordering::Relaxed);
        m.no_upstream_total.store(1, Ordering::Relaxed);
        m.sweep_truncations_total.store(1, Ordering::Relaxed);
        m.breaker_fast_fail_total.store(5, Ordering::Relaxed);
        m.front.read_deadline_total.store(1, Ordering::Relaxed);
        m.cell_digest_mismatch_total.store(1, Ordering::Relaxed);
        let text = m.render(&set, &budget, 1, 64);
        let masked: String = text
            .lines()
            .map(|l| match l.strip_prefix("dsp_router_uptime_seconds ") {
                Some(_) => "dsp_router_uptime_seconds <uptime>\n".to_string(),
                None => format!("{l}\n"),
            })
            .collect();
        assert_eq!(masked, include_str!("../tests/golden/metrics.prom"));
    }

    #[test]
    fn announced_ids_are_escaped_in_the_exposition() {
        // The id is whatever a replica's `X-Dsp-Replica` header said:
        // bytes from outside the process must not corrupt the scrape.
        let set = sample_set();
        set.set_announced_id(0, "a\"b\\c");
        let m = RouterMetrics::new(Tracer::disabled());
        let text = m.render(&set, &RetryBudget::new(8.0, 0.1), 0, 64);
        let families = dsp_obs::prom::parse(&text);
        let info = families
            .iter()
            .find(|f| f.name == "dsp_router_upstream_info")
            .expect("upstream info family");
        let ids: Vec<Option<&str>> = info.samples.iter().map(|s| s.label("id")).collect();
        assert_eq!(ids, [Some("a\"b\\c"), Some("")], "{text}");
    }

    #[test]
    fn unknown_paths_collapse_to_other() {
        use dsp_serve::front::endpoint_label;
        assert_eq!(endpoint_label(ENDPOINTS, "/compile"), "compile");
        assert_eq!(endpoint_label(ENDPOINTS, "/replicas"), "replicas");
        assert_eq!(endpoint_label(ENDPOINTS, "/nope"), "other");
    }
}
