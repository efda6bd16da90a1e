//! Server telemetry rendered in the Prometheus text exposition format
//! (`GET /metrics`) through the shared [`Exposition`] writer.
//!
//! Everything is lock-free counters except the per-(endpoint, status)
//! request map, which sits behind a short-lived mutex — `/metrics`
//! scrapes are rare next to request traffic. Cache counters are not
//! mirrored here: the scrape snapshots [`CacheStats`] straight from
//! the engine, so the two views can never drift. Likewise every
//! latency histogram — `dsp_serve_http_request_seconds` (request
//! latency by endpoint and status), `dsp_serve_exec_queue_wait_seconds`
//! (queue wait by class), and `dsp_serve_stage_seconds` (pipeline stage
//! duration) — renders straight from the shared tracer's log-bucketed
//! histograms, and is absent entirely when tracing is disabled —
//! mirroring how the disk-cache families are absent without a store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsp_driver::{CacheStats, ExecutorStats, Tracer};
use dsp_trace::expo::{Exposition, Kind};
use dsp_trace::families;

use crate::front::Counters;

/// Path → endpoint label of every path the server answers.
pub const ENDPOINTS: &[(&str, &str)] = &[
    ("/compile", "compile"),
    ("/sweep", "sweep"),
    ("/healthz", "healthz"),
    ("/readyz", "readyz"),
    ("/metrics", "metrics"),
    ("/debug/trace", "trace"),
    ("/admin/shutdown", "shutdown"),
];

/// All server counters.
pub struct Metrics {
    started: Instant,
    /// The front-end's counters: requests by endpoint and status,
    /// connections, 503s, 408s, busy workers. Its tracer is the
    /// source of the latency histogram families (request, queue wait,
    /// stage).
    pub front: Counters,
    /// Compute requests answered 504 (deadline exceeded).
    pub timeouts_total: AtomicU64,
    /// Streamed sweeps cut short by their deadline after the first
    /// result was already on the wire (`"truncated": true` tail).
    pub truncations_total: AtomicU64,
}

impl Metrics {
    /// Fresh, zeroed counters. `tracer` is the server's shared span
    /// recorder; its histogram families render into `/metrics` (pass
    /// [`Tracer::disabled`] to omit them).
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> Metrics {
        Metrics {
            started: Instant::now(),
            front: Counters::new(tracer),
            timeouts_total: AtomicU64::new(0),
            truncations_total: AtomicU64::new(0),
        }
    }

    /// Render the Prometheus text format. `queue_depth`,
    /// `queue_capacity`, and `workers` describe the live server;
    /// `cache`, `resident`, and `exec` are snapshotted from the engine
    /// and its shared executor; `ready` is the readiness state
    /// (`false` while draining) and `replica` the `--replica-id`
    /// identity, when configured.
    ///
    /// # Panics
    ///
    /// Panics if the request-map mutex is poisoned.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        workers: usize,
        cache: &CacheStats,
        resident: (usize, usize),
        exec: &ExecutorStats,
        ready: bool,
        replica: Option<&str>,
    ) -> String {
        use Kind::{Counter, Gauge};
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut x = Exposition::new();
        x.single("dsp_serve_up", Gauge, "1 while the server is running.", 1);
        x.single(
            "dsp_serve_ready",
            Gauge,
            "1 while accepting work, 0 while draining (mirrors /readyz).",
            u8::from(ready),
        );
        x.single(
            "dsp_serve_uptime_seconds",
            Gauge,
            "Seconds since the server started.",
            format_args!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        for (name, help, n) in [
            (
                "dsp_serve_queue_depth",
                "Connections waiting in the accept queue.",
                queue_depth,
            ),
            (
                "dsp_serve_queue_capacity",
                "Accept-queue capacity (pushes beyond this are 503s).",
                queue_capacity,
            ),
            (
                "dsp_serve_workers",
                "Worker threads serving connections.",
                workers,
            ),
            (
                "dsp_serve_workers_busy",
                "Workers currently handling a connection.",
                self.front.workers_busy.load(Ordering::Relaxed),
            ),
        ] {
            x.single(name, Gauge, help, n);
        }
        if let Some(id) = replica {
            let name = "dsp_serve_replica_info";
            x.family(name, Gauge, "This replica's --replica-id identity.");
            x.sample(name, &[("replica", id)], 1);
        }

        for (name, help, n) in [
            (
                "dsp_serve_connections_total",
                "TCP connections accepted.",
                load(&self.front.connections_total),
            ),
            (
                "dsp_serve_rejected_total",
                "Connections answered 503 because the queue was full.",
                load(&self.front.rejected_total),
            ),
            (
                "dsp_serve_deadline_timeouts_total",
                "Compute requests answered 504 (per-request deadline exceeded).",
                load(&self.timeouts_total),
            ),
            (
                "dsp_serve_sweep_truncated_total",
                "Streamed sweeps cut short by the deadline mid-response.",
                load(&self.truncations_total),
            ),
            (
                "dsp_serve_read_deadline_total",
                "Requests whose bytes trickled past the read deadline (408).",
                load(&self.front.read_deadline_total),
            ),
        ] {
            x.single(name, Counter, help, n);
        }

        self.front.render_requests(
            &mut x,
            "dsp_serve_requests_total",
            "Finished HTTP requests by endpoint and status.",
        );

        for (name, kind, help, layers) in [
            (
                "dsp_serve_cache_hits_total",
                Counter,
                "Engine artifact-cache hits by layer.",
                &[
                    ("prepared", cache.prepared_hits),
                    ("profile", cache.profile_hits),
                    ("reference", cache.reference_hits),
                    ("artifact", cache.artifact_hits),
                    ("sim", cache.sim_hits),
                ][..],
            ),
            (
                "dsp_serve_cache_misses_total",
                Counter,
                "Engine artifact-cache misses by layer.",
                &[
                    ("prepared", cache.prepared_misses),
                    ("profile", cache.profile_misses),
                    ("reference", cache.reference_misses),
                    ("artifact", cache.artifact_misses),
                    ("sim", cache.sim_misses),
                ],
            ),
            (
                "dsp_serve_cache_evictions_total",
                Counter,
                "Engine artifact-cache LRU evictions by layer.",
                &[
                    ("prepared", cache.prepared_evictions),
                    ("artifact", cache.artifact_evictions),
                ],
            ),
            (
                "dsp_serve_cache_evicted_bytes_total",
                Counter,
                "Estimated bytes released by cache evictions, by layer.",
                &[
                    ("prepared", cache.prepared_evicted_bytes),
                    ("artifact", cache.artifact_evicted_bytes),
                ],
            ),
            (
                "dsp_serve_cache_resident",
                Gauge,
                "Entries resident in the cache by layer.",
                &[
                    ("prepared", resident.0 as u64),
                    ("artifact", resident.1 as u64),
                ],
            ),
            (
                "dsp_serve_cache_bytes",
                Gauge,
                "Estimated bytes resident in the cache by layer.",
                &[
                    ("prepared", cache.prepared_bytes),
                    ("artifact", cache.artifact_bytes),
                ],
            ),
        ] {
            x.family(name, kind, help);
            for (layer, n) in layers {
                x.sample(name, &[("layer", layer)], n);
            }
        }

        // Disk-tier families: only present when a persistent store is
        // configured, so dashboards can tell "no disk" from "disk idle".
        if let Some(disk) = &cache.disk {
            for (name, kind, help, n) in [
                (
                    "dsp_serve_cache_disk_hits_total",
                    Counter,
                    "Artifacts rehydrated from the on-disk store.",
                    disk.hits,
                ),
                (
                    "dsp_serve_cache_disk_misses_total",
                    Counter,
                    "On-disk store lookups that found no entry.",
                    disk.misses,
                ),
                (
                    "dsp_serve_cache_disk_errors_total",
                    Counter,
                    "Disk-store IO failures absorbed (degraded to in-memory).",
                    disk.errors,
                ),
                (
                    "dsp_serve_cache_disk_quarantined_total",
                    Counter,
                    "Corrupt on-disk entries moved to quarantine.",
                    disk.quarantined,
                ),
                (
                    "dsp_serve_cache_disk_evictions_total",
                    Counter,
                    "On-disk entries dropped by the byte-budget LRU.",
                    disk.evictions,
                ),
                (
                    "dsp_serve_cache_disk_evicted_bytes_total",
                    Counter,
                    "Bytes released by on-disk evictions.",
                    disk.evicted_bytes,
                ),
                (
                    "dsp_serve_cache_disk_bytes",
                    Gauge,
                    "Bytes resident in the on-disk store.",
                    disk.bytes,
                ),
                (
                    "dsp_serve_cache_disk_entries",
                    Gauge,
                    "Entries resident in the on-disk store.",
                    disk.entries,
                ),
            ] {
                x.single(name, kind, help, n);
            }
        }
        x.single(
            "dsp_serve_exec_workers",
            Gauge,
            "Threads in the shared compute executor.",
            exec.workers,
        );
        x.single(
            "dsp_serve_exec_busy",
            Gauge,
            "Executor threads currently running a job.",
            exec.busy,
        );
        let name = "dsp_serve_exec_queue_depth";
        x.family(name, Gauge, "Jobs queued in the executor by priority.");
        x.sample(
            name,
            &[("priority", "interactive")],
            exec.queued_interactive,
        );
        x.sample(name, &[("priority", "batch")], exec.queued_batch);
        let name = "dsp_serve_exec_jobs_total";
        x.family(name, Counter, "Jobs the executor has run, by priority.");
        x.sample(
            name,
            &[("priority", "interactive")],
            exec.executed_interactive,
        );
        x.sample(name, &[("priority", "batch")], exec.executed_batch);
        x.single(
            "dsp_serve_exec_cancelled_total",
            Counter,
            "Jobs discarded from the executor queue by cancellation.",
            exec.cancelled,
        );

        // Tracer-fed histograms: absent when tracing is disabled, and a
        // family with no observations yet is omitted, like an endpoint
        // that has seen no requests.
        x.tracer_family(
            self.front.tracer(),
            families::HTTP_REQUEST,
            "dsp_serve_http_request_seconds",
            "End-to-end HTTP request latency by endpoint and status.",
            &["endpoint", "status"],
        );
        x.tracer_family(
            self.front.tracer(),
            families::QUEUE_WAIT,
            "dsp_serve_exec_queue_wait_seconds",
            "Executor queue wait (submit to dequeue) by priority class.",
            &["class"],
        );
        // The partition stage carries its algorithm in the flat label
        // ("partition|fm"): it renders as a second Prometheus label.
        x.tracer_family(
            self.front.tracer(),
            families::STAGE,
            "dsp_serve_stage_seconds",
            "Compile/simulate pipeline stage duration (fresh computes only).",
            &["stage", "partitioner"],
        );
        x.finish()
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new(Tracer::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_contains_all_families() {
        let m = Metrics::new(Tracer::disabled());
        m.front
            .record_request("compile", 200, Duration::from_millis(3));
        m.front
            .record_request("healthz", 200, Duration::from_micros(10));
        m.front.rejected_total.fetch_add(2, Ordering::Relaxed);
        let exec = ExecutorStats {
            workers: 2,
            executed_interactive: 5,
            ..ExecutorStats::default()
        };
        let stats = CacheStats {
            disk: Some(dsp_driver::DiskStats {
                hits: 3,
                bytes: 4096,
                ..dsp_driver::DiskStats::default()
            }),
            ..CacheStats::default()
        };
        let text = m.render(1, 64, 4, &stats, (0, 0), &exec, true, Some("r1"));
        for family in [
            "dsp_serve_up 1",
            "dsp_serve_ready 1",
            "dsp_serve_replica_info{replica=\"r1\"} 1",
            "dsp_serve_queue_depth 1",
            "dsp_serve_queue_capacity 64",
            "dsp_serve_workers 4",
            "dsp_serve_rejected_total 2",
            "dsp_serve_deadline_timeouts_total 0",
            "dsp_serve_sweep_truncated_total 0",
            "dsp_serve_read_deadline_total 0",
            "dsp_serve_requests_total{endpoint=\"compile\",status=\"200\"} 1",
            "dsp_serve_cache_hits_total{layer=\"prepared\"} 0",
            "dsp_serve_cache_evictions_total{layer=\"artifact\"} 0",
            "dsp_serve_cache_evicted_bytes_total{layer=\"prepared\"} 0",
            "dsp_serve_cache_bytes{layer=\"artifact\"} 0",
            "dsp_serve_cache_disk_hits_total 3",
            "dsp_serve_cache_disk_misses_total 0",
            "dsp_serve_cache_disk_errors_total 0",
            "dsp_serve_cache_disk_quarantined_total 0",
            "dsp_serve_cache_disk_bytes 4096",
            "dsp_serve_cache_disk_entries 0",
            "dsp_serve_exec_workers 2",
            "dsp_serve_exec_queue_depth{priority=\"batch\"} 0",
            "dsp_serve_exec_jobs_total{priority=\"interactive\"} 5",
            "dsp_serve_exec_cancelled_total 0",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
    }

    #[test]
    fn disk_families_absent_without_a_store() {
        // "No disk tier configured" must be distinguishable from
        // "disk tier idle": the families only render with a store.
        let m = Metrics::new(Tracer::disabled());
        let text = m.render(
            0,
            64,
            1,
            &CacheStats::default(),
            (0, 0),
            &ExecutorStats::default(),
            true,
            None,
        );
        assert!(!text.contains("dsp_serve_cache_disk"), "{text}");
        assert!(!text.contains("dsp_serve_replica_info"), "{text}");
    }

    #[test]
    fn draining_renders_ready_zero() {
        let m = Metrics::new(Tracer::disabled());
        let text = m.render(
            0,
            64,
            1,
            &CacheStats::default(),
            (0, 0),
            &ExecutorStats::default(),
            false,
            None,
        );
        assert!(text.contains("dsp_serve_ready 0"), "{text}");
    }

    #[test]
    fn unknown_paths_collapse_to_other() {
        use crate::front::endpoint_label;
        assert_eq!(endpoint_label(ENDPOINTS, "/compile"), "compile");
        assert_eq!(endpoint_label(ENDPOINTS, "/nope"), "other");
        assert_eq!(endpoint_label(ENDPOINTS, "/compile/x"), "other");
        assert_eq!(endpoint_label(ENDPOINTS, "/debug/trace"), "trace");
    }

    fn render_default(m: &Metrics) -> String {
        m.render(
            0,
            64,
            1,
            &CacheStats::default(),
            (0, 0),
            &ExecutorStats::default(),
            true,
            None,
        )
    }

    #[test]
    fn trace_families_render_with_an_enabled_tracer() {
        let tracer = Tracer::new(64);
        let m = Metrics::new(Arc::clone(&tracer));
        m.front
            .record_request("sweep", 200, Duration::from_millis(3));
        m.front
            .record_request("sweep", 429, Duration::from_micros(40));
        tracer.observe(
            dsp_trace::families::QUEUE_WAIT,
            "interactive",
            Duration::from_micros(90),
        );
        tracer.observe(
            dsp_trace::families::STAGE,
            "regalloc",
            Duration::from_millis(7),
        );
        // The partition stage's flat label carries the algorithm; it
        // renders as a second Prometheus label.
        tracer.observe(
            dsp_trace::families::STAGE,
            "partition|fm",
            Duration::from_millis(2),
        );
        let text = render_default(&m);
        for line in [
            "# TYPE dsp_serve_http_request_seconds histogram",
            "dsp_serve_http_request_seconds_count{endpoint=\"sweep\",status=\"200\"} 1",
            "dsp_serve_http_request_seconds_count{endpoint=\"sweep\",status=\"429\"} 1",
            "# TYPE dsp_serve_exec_queue_wait_seconds histogram",
            "dsp_serve_exec_queue_wait_seconds_count{class=\"interactive\"} 1",
            "# TYPE dsp_serve_stage_seconds histogram",
            "dsp_serve_stage_seconds_count{stage=\"regalloc\"} 1",
            "dsp_serve_stage_seconds_count{stage=\"partition\",partitioner=\"fm\"} 1",
        ] {
            assert!(text.contains(line), "missing `{line}` in:\n{text}");
        }
    }

    #[test]
    fn trace_histogram_buckets_are_monotone_and_sum_matches() {
        let tracer = Tracer::new(64);
        let m = Metrics::new(Arc::clone(&tracer));
        m.front
            .record_request("compile", 200, Duration::from_micros(300));
        m.front
            .record_request("compile", 200, Duration::from_millis(12));
        let text = render_default(&m);
        let prefix = "dsp_serve_http_request_seconds_bucket{endpoint=\"compile\",status=\"200\"";
        let mut last = 0u64;
        let mut bucket_lines = 0usize;
        let mut inf = None;
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            bucket_lines += 1;
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "non-monotone bucket line: {line}");
            last = value;
            if line.contains("le=\"+Inf\"") {
                inf = Some(value);
            }
        }
        assert_eq!(bucket_lines, dsp_trace::FINITE_BUCKETS + 1);
        assert_eq!(inf, Some(2), "+Inf bucket must equal the count");
        let count_line =
            "dsp_serve_http_request_seconds_count{endpoint=\"compile\",status=\"200\"} 2";
        assert!(text.contains(count_line), "{text}");
        let sum: f64 = text
            .lines()
            .find(|l| l.starts_with("dsp_serve_http_request_seconds_sum"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!((sum - 0.0123).abs() < 1e-6, "sum {sum} != 0.0123");
    }

    /// Every family with fixed counters and an enabled tracer, pinned
    /// byte for byte. The uptime sample is wall-clock, so it is masked.
    #[test]
    fn exposition_matches_the_golden_file() {
        let tracer = Tracer::new(64);
        let m = Metrics::new(Arc::clone(&tracer));
        m.front
            .record_request("compile", 200, Duration::from_millis(3));
        m.front
            .record_request("compile", 200, Duration::from_micros(300));
        m.front
            .record_request("sweep", 429, Duration::from_micros(40));
        m.front
            .record_request("healthz", 200, Duration::from_micros(10));
        m.front.connections_total.store(7, Ordering::Relaxed);
        m.front.rejected_total.store(2, Ordering::Relaxed);
        m.timeouts_total.store(1, Ordering::Relaxed);
        m.truncations_total.store(1, Ordering::Relaxed);
        m.front.read_deadline_total.store(1, Ordering::Relaxed);
        m.front.workers_busy.store(1, Ordering::Relaxed);
        tracer.observe(
            families::QUEUE_WAIT,
            "interactive",
            Duration::from_micros(90),
        );
        tracer.observe(families::QUEUE_WAIT, "batch", Duration::from_millis(1));
        tracer.observe(families::STAGE, "regalloc", Duration::from_millis(7));
        tracer.observe(families::STAGE, "partition|fm", Duration::from_millis(2));
        let cache = CacheStats {
            prepared_hits: 4,
            artifact_misses: 2,
            sim_hits: 5,
            sim_misses: 2,
            prepared_evictions: 1,
            prepared_bytes: 512,
            artifact_bytes: 2048,
            disk: Some(dsp_driver::DiskStats {
                hits: 3,
                misses: 1,
                bytes: 4096,
                entries: 2,
                ..dsp_driver::DiskStats::default()
            }),
            ..CacheStats::default()
        };
        let exec = ExecutorStats {
            workers: 2,
            busy: 1,
            queued_batch: 3,
            executed_interactive: 5,
            executed_batch: 9,
            cancelled: 1,
            ..ExecutorStats::default()
        };
        let text = m.render(1, 64, 4, &cache, (2, 3), &exec, true, Some("r1"));
        let masked: String = text
            .lines()
            .map(|l| match l.strip_prefix("dsp_serve_uptime_seconds ") {
                Some(_) => "dsp_serve_uptime_seconds <uptime>\n".to_string(),
                None => format!("{l}\n"),
            })
            .collect();
        assert_eq!(masked, include_str!("../tests/golden/metrics.prom"));
    }

    #[test]
    fn trace_families_absent_when_tracing_disabled() {
        let m = Metrics::new(Tracer::disabled());
        m.front
            .record_request("sweep", 200, Duration::from_millis(3));
        let text = render_default(&m);
        for family in [
            "dsp_serve_http_request_seconds",
            "dsp_serve_exec_queue_wait_seconds",
            "dsp_serve_stage_seconds",
        ] {
            assert!(!text.contains(family), "unexpected `{family}` in:\n{text}");
        }
    }
}
