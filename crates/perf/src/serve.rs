//! The serving workloads: a seeded `/compile` + `/sweep` stream against
//! an in-process `dsp-serve`, directly or through an in-process
//! `dsp-router` fronting two replicas.
//!
//! An untraced run measures a closed loop on both connections —
//! latency and throughput — in segments, with the calibration kernel
//! ([`crate::calib`]) run between them. It leaves the open loop out:
//! at 100 requests/s the host's CPUs idle between requests, and on a
//! shared VM the time to wake an idle CPU moved the open-loop median by
//! half between two runs minutes apart, while 15-second stretches of
//! the closed loop, which keeps the CPUs busy, agreed within about 5 %
//! within one run. A traced run measures
//! a fixed-rate open-loop phase (latency from each request's scheduled
//! send time) untraced, for a baseline and the `client.*` metrics, then
//! runs it on a traced fleet in short segments, reading every node's
//! `/metrics` and `/debug/trace` between them; each segment is short
//! enough that its spans fit the nodes' trace windows, which a marker
//! request proves.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::json::{self, Value};
use dsp_driver::{Engine, EngineOptions, RunReport};
use dsp_obs::fleet::{self, NodeView, SpanRec, Target};
use dsp_obs::prom::Family;
use dsp_router::{shard_key, Ring, Router, RouterConfig, RouterHandle};
use dsp_serve::client::{ClientConn, ClientResponse};
use dsp_serve::{Server, ServerConfig, ServerHandle};
use dsp_workloads::Benchmark;

use crate::calib::{self, Clock};
use crate::metrics::{self, put, RunResult};
use crate::schedule::{self, Arrival, Mix, Op};
use crate::spans::{self, Interval};
use crate::{peak_rss_mb, stage_metric, stats, Options, Workload, LOAD_THREADS};

/// Offered rate of the fixed-rate phase, requests per second.
const RATE_PER_S: f64 = 100.0;

/// Length of one closed-loop segment of an untraced run; the
/// calibration kernel runs between segments.
const CLOSED_SEGMENT: Duration = Duration::from_secs(1);

/// Longest traced segment: at the fixed rate a segment records about
/// 2 000 spans on the busiest node, inside the 4 096 that one
/// `/debug/trace` read returns.
const SEGMENT: Duration = Duration::from_secs(2);

/// Window of the closed-loop throughput median.
const WINDOW: Duration = Duration::from_millis(500);

/// Stream tags: each phase draws from its own stream of the run seed.
const TAG_FIXED: u64 = 0x6669_7865_6400_0000;
const TAG_CLOSED: u64 = 0x636c_6f73_6564_0000;
const TAG_SEGMENT: u64 = 0x7365_676d_656e_7400;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Replicas listen on the first free ports of this range. A replica's
/// address is its identity on the router's hash ring, so fixed
/// addresses give every run the same split of cells between the
/// replicas — as a deployment with fixed replica addresses has —
/// where ports picked by the OS would reshuffle it run by run.
const REPLICA_PORTS: std::ops::Range<u16> = 47_310..47_410;

/// The request catalogue and the in-process answer to every request.
struct Catalog {
    suite: Vec<Benchmark>,
    /// `(bench index, strategy)` of each compile cell, bench-major.
    cells: Vec<(usize, Strategy)>,
    compile_bodies: Vec<String>,
    sweep_bodies: Vec<String>,
    /// Expected cycles of each cell.
    cycles: Vec<u64>,
    /// Expected deterministic projection of each bench's sweep.
    projections: Vec<String>,
}

impl Catalog {
    /// Sweep the suite in process (not through the server under test)
    /// and keep every cell's cycles and every bench's projection.
    fn build() -> Result<Catalog, String> {
        let suite = dsp_workloads::all();
        let engine = Engine::new(EngineOptions {
            jobs: LOAD_THREADS,
            ..EngineOptions::default()
        });
        let report = engine
            .run_matrix(&suite, &Strategy::ALL)
            .map_err(|e| format!("in-process expectation sweep: {e}"))?;
        crate::expect::check_suite(&report)?;
        let per_bench = Strategy::ALL.len();
        let projections = report
            .jobs
            .chunks(per_bench)
            .map(|jobs| {
                RunReport {
                    jobs: jobs.to_vec(),
                    ..report.clone()
                }
                .deterministic_json()
            })
            .collect();
        let cells: Vec<(usize, Strategy)> = (0..suite.len())
            .flat_map(|b| Strategy::ALL.iter().map(move |&s| (b, s)))
            .collect();
        let compile_bodies = cells
            .iter()
            .map(|&(b, s)| {
                format!(
                    "{{\"source\": {}, \"strategy\": {}}}",
                    json::escape(&suite[b].source),
                    json::escape(s.label())
                )
            })
            .collect();
        let sweep_bodies = suite
            .iter()
            .map(|b| format!("{{\"bench\": {}}}", json::escape(&b.name)))
            .collect();
        Ok(Catalog {
            cycles: report.jobs.iter().map(|j| j.measurement.cycles).collect(),
            suite,
            cells,
            compile_bodies,
            sweep_bodies,
            projections,
        })
    }

    fn request(&self, op: Op) -> (&'static str, &str) {
        match op {
            Op::Compile(c) => ("/compile", &self.compile_bodies[c]),
            Op::Sweep(b) => ("/sweep", &self.sweep_bodies[b]),
        }
    }

    /// Check one response against the in-process answer.
    fn check(&self, op: Op, resp: &ClientResponse) -> Result<Checked, String> {
        if resp.status != 200 {
            return Err(format!("answered {}: {}", resp.status, resp.text().trim()));
        }
        let body = resp.text();
        let doc = json::parse(&body).map_err(|e| format!("unparsable body: {e}"))?;
        let jobs: Vec<&Value> = match op {
            Op::Compile(c) => {
                let job = doc.get("job").ok_or("compile response has no job")?;
                let cycles = job.get("cycles").and_then(Value::as_u64);
                if cycles != Some(self.cycles[c]) {
                    return Err(format!(
                        "cell {c} simulated {cycles:?} cycles, expected {}",
                        self.cycles[c]
                    ));
                }
                vec![job]
            }
            Op::Sweep(b) => {
                let projected = dsp_driver::project_deterministic_json(&body)?;
                if projected != self.projections[b] {
                    return Err(format!(
                        "sweep of {} differs from the in-process projection",
                        self.suite[b].name
                    ));
                }
                doc.get("jobs")
                    .and_then(Value::as_array)
                    .map(|j| j.iter().collect())
                    .unwrap_or_default()
            }
        };
        let field = |j: &Value, path: &[&str]| {
            path.iter()
                .try_fold(j, |v, k| v.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        Ok(Checked {
            cycles: jobs.iter().map(|j| field(j, &["cycles"])).sum(),
            moves: jobs
                .iter()
                .map(|j| field(j, &["partitioner", "moves"]))
                .sum(),
            replica: resp.header("x-dsp-replica").map(str::to_string),
            trace: resp.header("x-request-id").map(str::to_string),
        })
    }
}

/// What a correct response reported.
struct Checked {
    cycles: u64,
    moves: u64,
    replica: Option<String>,
    trace: Option<String>,
}

/// One request of a load phase.
struct Sample {
    op: Op,
    /// Seconds from the scheduled send time (open loop) or the actual
    /// send (closed loop) to the whole response; `None` when the
    /// request failed.
    latency: Option<f64>,
    /// How late the generator sent it, seconds.
    lag: f64,
    /// When the response completed, from the phase start.
    done: Duration,
    checked: Result<Checked, String>,
}

/// The in-process fleet under test.
struct Fleet {
    entry: SocketAddr,
    /// Scrape targets: the router first when there is one.
    targets: Vec<Target>,
    /// The router's ring labels (replica addresses), for home routing.
    replicas: Vec<String>,
    /// Executor workers across every replica.
    exec_workers: usize,
    router: Option<(RouterHandle, JoinHandle<std::io::Result<()>>)>,
    servers: Vec<(ServerHandle, JoinHandle<std::io::Result<()>>)>,
}

impl Fleet {
    /// Bind and start the fleet: one `dsp-serve` (2 executor workers)
    /// or a `dsp-router` over two replicas (1 executor worker each).
    /// The router and a lone server have 2 connection workers, one per
    /// client connection. The router pools 2 connections per replica,
    /// and a pooled keep-alive holds a replica's connection worker, so
    /// each replica gets a third worker for the router's health probes
    /// — without it the probes time out and the router ejects healthy
    /// replicas.
    fn start(routed: bool, trace: bool) -> Result<Fleet, String> {
        let replicas = if routed { 2 } else { 1 };
        let mut servers = Vec::new();
        let mut targets = Vec::new();
        let mut ports = REPLICA_PORTS;
        for i in 0..replicas {
            let config = ServerConfig {
                workers: if routed {
                    LOAD_THREADS + 1
                } else {
                    LOAD_THREADS
                },
                jobs: LOAD_THREADS / replicas,
                trace,
                ..ServerConfig::default()
            };
            let fixed = routed
                .then(|| {
                    ports.by_ref().find_map(|port| {
                        Server::bind(ServerConfig {
                            addr: format!("127.0.0.1:{port}"),
                            ..config.clone()
                        })
                        .ok()
                    })
                })
                .flatten();
            let server = match fixed {
                Some(server) => server,
                None => Server::bind(config).map_err(|e| format!("cannot bind dsp-serve: {e}"))?,
            };
            let addr = server.local_addr();
            targets.push(Target {
                name: if routed {
                    format!("replica-{}", i + 1)
                } else {
                    "serve".to_string()
                },
                addr: addr.to_string(),
            });
            servers.push((server.handle(), std::thread::spawn(move || server.run())));
        }
        let replica_addrs: Vec<String> = targets.iter().map(|t| t.addr.clone()).collect();
        let mut fleet = Fleet {
            entry: servers[0].0.addr(),
            targets,
            replicas: replica_addrs.clone(),
            exec_workers: LOAD_THREADS,
            router: None,
            servers,
        };
        if routed {
            let router = Router::bind(RouterConfig {
                replicas: replica_addrs,
                workers: LOAD_THREADS,
                pool_per_replica: LOAD_THREADS,
                fanout: LOAD_THREADS,
                trace,
                ..RouterConfig::default()
            })
            .map_err(|e| format!("cannot bind dsp-router: {e}"))?;
            fleet.entry = router.local_addr();
            fleet.targets.insert(
                0,
                Target {
                    name: "router".to_string(),
                    addr: fleet.entry.to_string(),
                },
            );
            fleet.router = Some((router.handle(), std::thread::spawn(move || router.run())));
        }
        Ok(fleet)
    }

    /// Shut down the router (which drops its pooled upstream
    /// connections), then the replicas, and join every node.
    fn stop(self) {
        if let Some((handle, thread)) = self.router {
            handle.shutdown();
            let _ = thread.join();
        }
        for (handle, _) in &self.servers {
            handle.shutdown();
        }
        for (_, thread) in self.servers {
            let _ = thread.join();
        }
    }

    fn scrape(&self, trace_depth: usize) -> Vec<NodeView> {
        self.targets
            .iter()
            .map(|t| fleet::scrape(t, IO_TIMEOUT, trace_depth))
            .collect()
    }
}

/// Run serving workload `serve-direct` (`routed == false`) or
/// `serve-routed`.
///
/// # Errors
///
/// Fails when the fleet cannot start, a warm-up answer is wrong, or a
/// traced segment's spans overflow a node's trace window.
pub fn run(routed: bool, opts: &Options) -> Result<RunResult, String> {
    let catalog = Catalog::build()?;
    if opts.traced {
        return traced(routed, opts, &catalog);
    }
    let mut clock = Clock::start();
    let t = Instant::now();
    let fleet = start_warm(routed, false, &catalog)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    clock.calibrate();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let segments = (opts.seconds.as_secs_f64() / CLOSED_SEGMENT.as_secs_f64())
        .round()
        .max(1.0) as u64;
    #[allow(clippy::cast_precision_loss)]
    let len = opts.seconds.div_f64(segments as f64);
    let (mut samples, mut rates) = (Vec::new(), Vec::new());
    for j in 0..segments {
        let closed = closed_loop(fleet.entry, opts.seed, TAG_CLOSED ^ (j << 8), len, &catalog);
        clock.calibrate();
        rates.extend(window_rates(&closed, len));
        samples.extend(closed);
    }
    fleet.stop();
    let peak_rss = peak_rss_mb();
    // The remaining set-up repetitions run after the measured phases so
    // that their allocations stay out of its peak memory.
    for _ in 1..opts.setup_reps {
        let t = Instant::now();
        let fleet = start_warm(routed, false, &catalog)?;
        setups.push(t.elapsed().as_secs_f64());
        fleet.stop();
        clock.calibrate();
    }
    eprintln!(
        "{}: calibration kernel median {:.3} ms, reference {} ms",
        if routed {
            "serve-routed"
        } else {
            "serve-direct"
        },
        clock.median_ms(),
        calib::REFERENCE_MS
    );

    let scale = clock.scale();
    let mut m = metrics::blank(false);
    put(
        &mut m,
        "latency_p50_ms",
        stats::median(&compile_ms(&samples)) * scale,
    );
    put(&mut m, "throughput_per_s", stats::median(&rates) / scale);
    put(&mut m, "setup_s", stats::median(&setups) * scale);
    put(&mut m, "peak_rss_mb", peak_rss);
    Ok(result(samples.iter(), m))
}

/// Start a fleet and warm it: every compile cell and every bench sweep
/// once, each answer checked, over connections closed afterwards (an
/// idle keep-alive would pin a connection worker).
fn start_warm(routed: bool, trace: bool, catalog: &Catalog) -> Result<Fleet, String> {
    let fleet = Fleet::start(routed, trace)?;
    let ops: Vec<Op> = (0..catalog.cells.len())
        .map(Op::Compile)
        .chain((0..catalog.suite.len()).map(Op::Sweep))
        .collect();
    let next = AtomicUsize::new(0);
    let samples = drive(fleet.entry, catalog, Instant::now(), || {
        ops.get(next.fetch_add(1, Ordering::SeqCst))
            .map(|&op| (op, None))
    });
    match samples.into_iter().find_map(|s| s.checked.err()) {
        None => Ok(fleet),
        Some(e) => {
            fleet.stop();
            Err(format!("warm-up: {e}"))
        }
    }
}

/// The seeded request mix of one phase.
fn mix(seed: u64, tag: u64, catalog: &Catalog) -> Mix {
    Mix::new(
        schedule::stream(seed, tag ^ 1),
        catalog.cells.len(),
        catalog.suite.len(),
    )
}

/// The open-loop arrivals of one phase.
fn arrivals(seed: u64, tag: u64, len: Duration, catalog: &Catalog) -> Vec<Arrival> {
    schedule::poisson(
        &mut schedule::stream(seed, tag),
        RATE_PER_S,
        len,
        &mut mix(seed, tag, catalog),
    )
}

/// Send `arrivals` open-loop over [`LOAD_THREADS`] keep-alive
/// connections: each request goes out at its due time or, when both
/// connections are busy, as soon as one frees up, and its latency
/// counts from the due time.
fn open_loop(entry: SocketAddr, arrivals: &[Arrival], catalog: &Catalog) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    drive(entry, catalog, start, || {
        let a = arrivals.get(next.fetch_add(1, Ordering::SeqCst))?;
        Some((a.op, Some(start + Duration::from_micros(a.at_us))))
    })
}

/// Both connections send back to back for `len`, drawing requests from
/// the seeded mix of stream `tag`.
fn closed_loop(
    entry: SocketAddr,
    seed: u64,
    tag: u64,
    len: Duration,
    catalog: &Catalog,
) -> Vec<Sample> {
    let ops = Mutex::new(mix(seed, tag, catalog));
    let start = Instant::now();
    drive(entry, catalog, start, || {
        (start.elapsed() < len).then(|| (ops.lock().expect("mix mutex poisoned").next_op(), None))
    })
}

/// Correct responses per second in each [`WINDOW`]-long window of a
/// closed-loop phase of `len` (the whole phase when it is shorter), so
/// that the median over windows lets a stall on a shared host cost one
/// window rather than move the whole figure.
fn window_rates(samples: &[Sample], len: Duration) -> Vec<f64> {
    let ok = samples.iter().filter(|s| s.latency.is_some());
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let windows = (len.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
    if windows == 0 {
        #[allow(clippy::cast_precision_loss)]
        return vec![ok.count() as f64 / len.as_secs_f64()];
    }
    let mut counts = vec![0u32; windows];
    for s in ok {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let w = (s.done.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| f64::from(c) / WINDOW.as_secs_f64())
        .collect()
}

/// The load loop shared by every phase: [`LOAD_THREADS`] threads, one
/// keep-alive connection each, taking requests from `next` (an op and,
/// open-loop, its due instant) until it runs dry. Each response is
/// checked as soon as its timing is taken.
fn drive<F>(entry: SocketAddr, catalog: &Catalog, start: Instant, next: F) -> Vec<Sample>
where
    F: Fn() -> Option<(Op, Option<Instant>)> + Sync,
{
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut conn = None;
                    while let Some((op, due)) = next() {
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let sent = Instant::now();
                        let due = due.unwrap_or(sent);
                        let (path, body) = catalog.request(op);
                        let resp = match conn.take() {
                            Some(c) => Ok(c),
                            None => ClientConn::connect(entry, IO_TIMEOUT),
                        }
                        .and_then(|mut c| {
                            let r = c.request("POST", path, Some(body));
                            // A connection that failed is not reused.
                            if r.is_ok() {
                                conn = Some(c);
                            }
                            r
                        });
                        let done = Instant::now();
                        let checked = resp
                            .map_err(|e| format!("{path}: {e}"))
                            .and_then(|r| catalog.check(op, &r));
                        if let Err(e) = &checked {
                            eprintln!("request failed: {e}");
                        }
                        out.push(Sample {
                            op,
                            latency: checked.is_ok().then(|| (done - due).as_secs_f64()),
                            lag: (sent - due).as_secs_f64(),
                            done: done - start,
                            checked,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    })
}

/// Compile latencies in ms; a failed request counts as missing every
/// latency limit.
fn compile_ms<'s>(samples: impl IntoIterator<Item = &'s Sample>) -> Vec<f64> {
    latencies_ms(samples, |op| matches!(op, Op::Compile(_)))
}

fn latencies_ms<'s>(
    samples: impl IntoIterator<Item = &'s Sample>,
    keep: impl Fn(Op) -> bool,
) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| keep(s.op))
        .map(|s| s.latency.map_or(f64::INFINITY, |l| l * 1e3))
        .collect()
}

fn result<'s>(
    samples: impl Iterator<Item = &'s Sample>,
    metrics: BTreeMap<String, f64>,
) -> RunResult {
    let (attempted, failed) = samples.fold((0, 0), |(a, f), s| {
        (a + 1, f + u64::from(s.latency.is_none()))
    });
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// One traced segment's spans on every node.
struct Segment {
    len: Duration,
    samples: Vec<Sample>,
    /// Per node, the spans of this segment's requests.
    spans: Vec<Vec<SpanRec>>,
}

/// The traced run: an untraced fixed-rate baseline, then the same rate
/// on a traced fleet in segments.
fn traced(routed: bool, opts: &Options, catalog: &Catalog) -> Result<RunResult, String> {
    let half = opts.seconds / 2;
    let fleet = start_warm(routed, false, catalog)?;
    let base = open_loop(
        fleet.entry,
        &arrivals(opts.seed, TAG_FIXED, half, catalog),
        catalog,
    );
    fleet.stop();

    let fleet = start_warm(routed, true, catalog)?;
    let before = fleet.scrape(1);
    let count = (half.as_secs_f64() / SEGMENT.as_secs_f64())
        .round()
        .max(1.0);
    let len = half.div_f64(count);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let segments: Result<Vec<Segment>, String> = (0..count as u64)
        .map(|j| segment(&fleet, opts.seed, j, len, catalog))
        .collect();
    let after = fleet.scrape(1);
    let (targets, replicas, exec_workers) = (
        fleet.targets.clone(),
        fleet.replicas.clone(),
        fleet.exec_workers,
    );
    fleet.stop();
    let segments = segments?;

    let samples: Vec<&Sample> = segments.iter().flat_map(|s| &s.samples).collect();
    let nodes: Vec<NodeView> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| NodeView {
            target: t.clone(),
            up: true,
            error: None,
            families: Vec::new(),
            traced: true,
            spans: segments.iter().flat_map(|s| s.spans[i].clone()).collect(),
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let requests = samples.len().max(1) as f64;
    let mut m = metrics::blank(true);

    // Stage times and cache traffic: `/metrics` deltas over the
    // segments, summed across replicas.
    let delta = |family: &str, label: Option<(&str, &str)>| -> f64 {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| sum(&a.families, family, label) - sum(&b.families, family, label))
            .sum()
    };
    let mut simulate_s = 0.0;
    for stage in STAGES {
        let name = stage_metric(stage).expect("a known stage");
        let secs = delta("dsp_serve_stage_seconds_sum", Some(("stage", stage)));
        put(&mut m, name, secs * 1e3 / requests);
        if stage == "simulate" {
            simulate_s = secs;
        }
    }
    let cycles: u64 = samples
        .iter()
        .filter_map(|s| s.checked.as_ref().ok())
        .map(|c| c.cycles)
        .sum();
    let moves: u64 = samples
        .iter()
        .filter_map(|s| s.checked.as_ref().ok())
        .map(|c| c.moves)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    {
        put(&mut m, "sim.cycles", cycles as f64);
        put(
            &mut m,
            "sim.ns_per_cycle",
            simulate_s * 1e9 / cycles.max(1) as f64,
        );
        put(&mut m, "bankalloc.partition_moves", moves as f64);
    }
    for (name, layer, family) in [
        (
            "driver.artifact_hits",
            "artifact",
            "dsp_serve_cache_hits_total",
        ),
        (
            "driver.artifact_misses",
            "artifact",
            "dsp_serve_cache_misses_total",
        ),
        (
            "driver.prepared_misses",
            "prepared",
            "dsp_serve_cache_misses_total",
        ),
    ] {
        put(&mut m, name, delta(family, Some(("layer", layer))));
    }
    put(
        &mut m,
        "serve.rejected_503",
        delta("dsp_serve_rejected_total", None),
    );
    put(
        &mut m,
        "serve.deadline_504",
        delta("dsp_serve_deadline_timeouts_total", None),
    );
    put(
        &mut m,
        "router.retries",
        delta("dsp_router_retries_total", None),
    );

    // Executor and HTTP layers: the segments' spans.
    let named = |name: &'static str| {
        nodes
            .iter()
            .flat_map(|n| &n.spans)
            .filter(move |s| s.name == name)
    };
    let waits = |class: &str| -> Vec<f64> {
        named("exec.wait")
            .filter(|s| arg(s, "class") == Some(class))
            .map(span_ms)
            .collect()
    };
    put(
        &mut m,
        "exec.wait_interactive_p99_ms",
        stats::percentile(&waits("interactive"), 99.0),
    );
    put(
        &mut m,
        "exec.wait_batch_p50_ms",
        stats::median(&waits("batch")),
    );
    #[allow(clippy::cast_precision_loss)]
    let busy_us = named("exec.run").map(|s| s.dur_us).sum::<u64>() as f64;
    let traced_s: f64 = segments.iter().map(|s| s.len.as_secs_f64()).sum();
    #[allow(clippy::cast_precision_loss)]
    let capacity_us = traced_s * 1e6 * exec_workers as f64;
    put(
        &mut m,
        "exec.idle_pct",
        100.0 * (1.0 - busy_us / capacity_us),
    );
    let compiles: Vec<(usize, &SpanRec)> = nodes
        .iter()
        .enumerate()
        .flat_map(|(i, n)| n.spans.iter().map(move |s| (i, s)))
        .filter(|(_, s)| s.name == "http.request" && arg(s, "path") == Some("/compile"))
        .collect();
    let http: Vec<f64> = compiles.iter().map(|(_, s)| span_ms(s)).collect();
    put(&mut m, "serve.http_p50_ms", stats::median(&http));
    let self_ms: Vec<f64> = compiles
        .iter()
        .map(|&(i, s)| {
            let children: Vec<Interval> = nodes[i]
                .spans
                .iter()
                .filter(|c| c.parent.as_deref() == Some(s.span.as_str()))
                .map(interval)
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let us = spans::self_time_us(interval(s), &children) as f64;
            us / 1e3
        })
        .collect();
    put(&mut m, "serve.http_self_ms", stats::median(&self_ms));

    if routed {
        // The hop: each router.upstream attempt minus the replica's
        // http.request it parented (joined across nodes by span id).
        let upstream: BTreeMap<&str, &SpanRec> = named("router.upstream")
            .map(|s| (s.span.as_str(), s))
            .collect();
        let hops: Vec<f64> = named("http.request")
            .filter_map(|h| {
                let u = upstream.get(h.parent.as_deref()?)?;
                Some(span_ms(u) - span_ms(h))
            })
            .collect();
        put(&mut m, "router.hop_p50_ms", stats::median(&hops));
        put(&mut m, "router.hop_p99_ms", stats::percentile(&hops, 99.0));
        let ups: Vec<f64> = upstream.values().map(|s| span_ms(s)).collect();
        put(&mut m, "router.upstream_p50_ms", stats::median(&ups));
        let members: Vec<usize> = (0..replicas.len()).collect();
        let ring = Ring::build(&replicas, &members);
        let (home, total) = samples
            .iter()
            .filter_map(|s| match (s.op, &s.checked) {
                (Op::Compile(c), Ok(ch)) => Some((c, ch)),
                _ => None,
            })
            .fold((0u32, 0u32), |(h, t), (c, ch)| {
                let (b, strategy) = catalog.cells[c];
                let key = shard_key(&catalog.suite[b].source, strategy.label());
                let at_home = ring
                    .route(key)
                    .is_some_and(|i| ch.replica.as_deref() == Some(replicas[i].as_str()));
                (h + u32::from(at_home), t + 1)
            });
        put(
            &mut m,
            "router.home_ratio",
            f64::from(home) / f64::from(total.max(1)),
        );
    }

    // Client-side numbers come from the untraced baseline.
    let base_compile = compile_ms(&base);
    put(
        &mut m,
        "client.compile_p50_ms",
        stats::median(&base_compile),
    );
    put(
        &mut m,
        "client.op_tail_ms",
        stats::tail_value(&base_compile),
    );
    let sweeps = latencies_ms(&base, |op| matches!(op, Op::Sweep(_)));
    put(&mut m, "client.sweep_p50_ms", stats::median(&sweeps));
    put(
        &mut m,
        "client.sweep_p90_ms",
        stats::percentile(&sweeps, 90.0),
    );
    let lags: Vec<f64> = base.iter().map(|s| s.lag * 1e3).collect();
    put(
        &mut m,
        "client.send_lag_p99_ms",
        stats::percentile(&lags, 99.0),
    );
    let traced_compile = compile_ms(samples.iter().copied());
    put(
        &mut m,
        "trace.overhead_pct",
        100.0 * (stats::median(&traced_compile) / stats::median(&base_compile) - 1.0),
    );

    if let Some(dir) = &opts.trace_out {
        let all: Vec<(usize, &SpanRec)> = nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.spans.iter().map(move |s| (i, s)))
            .collect();
        let workload = if routed {
            Workload::ServeRouted
        } else {
            Workload::ServeDirect
        };
        crate::write_trace(dir, workload, &dsp_obs::stitch::chrome_export(&nodes, &all))?;
    }
    Ok(result(base.iter().chain(samples.iter().copied()), m))
}

/// Pipeline stages whose `dsp_serve_stage_seconds` sums feed per-layer
/// metrics.
const STAGES: [&str; 12] = [
    "parse",
    "opt",
    "trial_compaction",
    "final_pack",
    "partition",
    "regalloc",
    "lower",
    "link",
    "profile",
    "reference",
    "verify",
    "simulate",
];

/// One traced segment: mark every node's trace ring, send the
/// segment's arrivals, then read each node's newest spans back. The
/// window must still hold the marker, or spans were lost.
fn segment(
    fleet: &Fleet,
    seed: u64,
    j: u64,
    len: Duration,
    catalog: &Catalog,
) -> Result<Segment, String> {
    let marker = format!("perf-segment-{j}");
    for t in &fleet.targets {
        let mut conn = ClientConn::connect(&t.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", t.name))?;
        conn.exchange(
            "GET",
            "/healthz",
            &[("X-Request-Id", marker.as_str())],
            None,
        )
        .map_err(|e| format!("mark {}: {e}", t.name))?;
    }
    let samples = open_loop(
        fleet.entry,
        &arrivals(seed, TAG_SEGMENT ^ (j << 8), len, catalog),
        catalog,
    );
    let traces: BTreeSet<&str> = samples
        .iter()
        .filter_map(|s| s.checked.as_ref().ok()?.trace.as_deref())
        .collect();
    // A worker records a cell's exec.run span just after handing its
    // result back; let the last ones land.
    std::thread::sleep(Duration::from_millis(50));
    let mut spans = Vec::new();
    for view in fleet.scrape(4096) {
        let at = view
            .spans
            .iter()
            .position(|s| arg(s, "request_id") == Some(marker.as_str()))
            .ok_or_else(|| {
                format!(
                    "{}: segment {j} overflowed the node's trace window",
                    view.target.name
                )
            })?;
        spans.push(
            view.spans[at + 1..]
                .iter()
                .filter(|s| traces.contains(s.trace.as_str()))
                .cloned()
                .collect(),
        );
    }
    Ok(Segment {
        len,
        samples,
        spans,
    })
}

fn arg<'s>(span: &'s SpanRec, key: &str) -> Option<&'s str> {
    span.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn interval(s: &SpanRec) -> Interval {
    Interval {
        start_us: s.start_us,
        dur_us: s.dur_us,
    }
}

#[allow(clippy::cast_precision_loss)]
fn span_ms(s: &SpanRec) -> f64 {
    s.dur_us as f64 / 1e3
}

/// Sum of every sample of series `series` (optionally only those with
/// label `key=value`) across a node's families.
fn sum(families: &[Family], series: &str, label: Option<(&str, &str)>) -> f64 {
    families
        .iter()
        .flat_map(|f| &f.samples)
        .filter(|s| s.name == series)
        .filter(|s| label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
        .sum()
}
