//! The batch workloads: the paper's 23 × 7 sweep on a cold, a
//! memory-warm and a disk-warm engine, and the same pipeline on unseen
//! generated programs.
//!
//! One iteration is one full matrix sweep. Its wall time runs from
//! building the engine (every workload but `suite-warm` starts a fresh
//! one) to the last cell's result; generating `gen-cold`'s programs and
//! checking results happen outside it. The calibration kernel
//! ([`crate::calib`]) runs after every iteration and set-up.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_driver::{CancelToken, Engine, EngineOptions, Priority, RunReport, SpanCtx, Tracer};
use dsp_trace::{families, HistogramSnapshot};
use dsp_workloads::{runner, Benchmark};

use crate::calib::{self, Clock};
use crate::expect::{self, CacheCounts};
use crate::metrics::{self, put, RunResult};
use crate::{ms, peak_rss_mb, stage_metric, stats, Options, Workload, LOAD_THREADS};

/// Generated programs per `gen-cold` iteration.
const GEN_PROGRAMS: usize = 40;

/// Most iterations in a traced run, after its untraced baseline; runs
/// shorter than that many seconds trace one sweep per second (at least
/// one), so a smoke run stays short.
const TRACED_ITERATIONS: u64 = 10;

/// Span ring of the benchmark's tracer: ten traced `gen-cold`
/// iterations record about 40 000 spans, and the run fails rather than
/// drop one.
const TRACE_CAPACITY: usize = 1 << 17;

/// Input index of the first traced iteration. The set-up's warm-up is
/// index 0 and untraced iterations count up from 1, so starting the
/// traced ones here keeps their inputs independent of how many
/// untraced iterations fit in the baseline.
const TRACED_INDEX_BASE: u64 = 1 << 32;

/// What a set-up leaves for the timed iterations.
#[derive(Default)]
struct State {
    /// `suite-warm`'s engine, its cache filled.
    engine: Option<Engine>,
    /// `suite-disk`'s filled store.
    store: Option<PathBuf>,
}

/// One timed sweep.
struct Iteration {
    wall: Duration,
    engine_new: Duration,
    cells: u64,
    failed: u64,
    error: Option<String>,
    cycles: u64,
    moves: u64,
    counts: CacheCounts,
    /// The iteration's `perf.iteration` span (0 untraced).
    span: u64,
}

struct Batch<'a> {
    workload: Workload,
    opts: &'a Options,
    suite: Vec<Benchmark>,
}

/// Run batch workload `workload`.
///
/// # Errors
///
/// Fails when a set-up sweep is wrong or the trace cannot be captured
/// whole; wrong timed sweeps are counted as failed instead.
pub fn run(workload: Workload, opts: &Options) -> Result<RunResult, String> {
    let batch = Batch {
        workload,
        opts,
        suite: dsp_workloads::all(),
    };
    let untraced = Tracer::disabled();
    let mut clock = Clock::start();
    let t = Instant::now();
    let state = batch.setup(&untraced)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    clock.calibrate();

    let phase = if opts.traced {
        opts.seconds / 2
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let mut timed = Vec::new();
    while timed.is_empty() || start.elapsed() < phase {
        timed.push(batch.iterate(&state, timed.len() as u64 + 1, &untraced, SpanCtx::NONE));
        clock.calibrate();
    }
    drop(state);
    let peak_rss = peak_rss_mb();

    let result = if opts.traced {
        batch.traced(&timed)
    } else {
        // The remaining set-up repetitions run after the measured phase
        // so that their allocations stay out of its peak memory.
        for _ in 1..opts.setup_reps {
            let t = Instant::now();
            drop(batch.setup(&untraced)?);
            setups.push(t.elapsed().as_secs_f64());
            clock.calibrate();
        }
        eprintln!(
            "{}: calibration kernel median {:.3} ms, reference {} ms",
            workload.name(),
            clock.median_ms(),
            calib::REFERENCE_MS
        );
        Ok(batch.end_to_end(&timed, &setups, peak_rss, clock.scale()))
    };
    if let Some(store) = batch.store_dir() {
        let _ = std::fs::remove_dir_all(store);
    }
    result
}

impl Batch<'_> {
    fn store_dir(&self) -> Option<PathBuf> {
        (self.workload == Workload::SuiteDisk).then(|| self.opts.work_dir.join("store"))
    }

    fn engine(tracer: &Arc<Tracer>, store: Option<&Path>) -> Engine {
        Engine::new(EngineOptions {
            jobs: LOAD_THREADS,
            cache_dir: store.map(Path::to_path_buf),
            tracer: Arc::clone(tracer),
            ..EngineOptions::default()
        })
    }

    /// Everything before the first timed sweep: fill the cache or store
    /// the workload starts from, then run one untimed iteration.
    fn setup(&self, tracer: &Arc<Tracer>) -> Result<State, String> {
        let span = tracer.span("perf.setup", "perf", tracer.new_trace());
        let fill = |engine: &Engine| -> Result<(), String> {
            let before = engine.cache().stats();
            let (report, failed) = sweep(engine, &self.suite, span.ctx());
            let counts = CacheCounts::between(&before, &engine.cache().stats());
            check_suite(&report, failed, counts, expect::SUITE_COLD)
                .map_err(|e| format!("{} set-up sweep: {e}", self.workload.name()))
        };
        let state = match self.workload {
            Workload::SuiteWarm => {
                let engine = Batch::engine(tracer, None);
                fill(&engine)?;
                State {
                    engine: Some(engine),
                    store: None,
                }
            }
            Workload::SuiteDisk => {
                let dir = self.store_dir().expect("suite-disk has a store");
                let _ = std::fs::remove_dir_all(&dir);
                fill(&Batch::engine(tracer, Some(&dir)))?;
                State {
                    engine: None,
                    store: Some(dir),
                }
            }
            _ => State::default(),
        };
        let warm_up = self.iterate(&state, 0, tracer, span.ctx());
        match warm_up.error {
            Some(e) => Err(format!("{} warm-up: {e}", self.workload.name())),
            None => Ok(state),
        }
    }

    /// The programs of iteration `index`. Generated programs whose
    /// reference run leaves a NaN in a checked global are redrawn: the
    /// bit pattern of a NaN is not defined by the source language, and
    /// the interpreter and the simulator produce different ones.
    fn inputs(&self, index: u64) -> Result<Vec<Benchmark>, String> {
        if self.workload != Workload::GenCold {
            return Ok(self.suite.clone());
        }
        let mut rng = crate::schedule::stream(self.opts.seed, index);
        let config = dsp_gen::GenConfig::default();
        let mut benches = Vec::new();
        while benches.len() < GEN_PROGRAMS {
            let name = format!("gen-{index}-{}", benches.len());
            let source = dsp_gen::generate_source(rng.next_u64(), &config);
            let bench =
                dsp_workloads::corpus::benchmark_from_source(&name, &source, Path::new(&name))
                    .map_err(|e| format!("generated program {name}: {e}"))?;
            if bench.check_globals.is_empty() {
                return Err(format!("generated program {name} has no global to verify"));
            }
            let ir = runner::frontend(&bench).map_err(|e| format!("{name}: {e}"))?;
            let globals = runner::reference_globals(&ir).map_err(|e| format!("{name}: {e}"))?;
            let nan = globals
                .iter()
                .filter(|(g, _)| bench.check_globals.contains(g))
                .flat_map(|(_, words)| words)
                .any(|w| w.as_f32().is_nan());
            if !nan {
                benches.push(bench);
            }
        }
        Ok(benches)
    }

    fn iterate(
        &self,
        state: &State,
        index: u64,
        tracer: &Arc<Tracer>,
        parent: SpanCtx,
    ) -> Iteration {
        let benches = match self.inputs(index) {
            Ok(b) => b,
            Err(e) => return Iteration::failed_before_start(e),
        };
        let t0 = Instant::now();
        let span = tracer.span("perf.iteration", "perf", parent);
        let mut engine_new = Duration::ZERO;
        let fresh = state.engine.is_none().then(|| {
            let _span = tracer.span("perf.engine_new", "perf", span.ctx());
            let t = Instant::now();
            let engine = Batch::engine(tracer, state.store.as_deref());
            engine_new = t.elapsed();
            engine
        });
        let engine = fresh
            .as_ref()
            .or(state.engine.as_ref())
            .expect("an engine exists");
        let before = engine.cache().stats();
        let (report, failed) = sweep(engine, &benches, span.ctx());
        let span_id = span.ctx().span;
        drop(span);
        let wall = t0.elapsed();
        let counts = CacheCounts::between(&before, &engine.cache().stats());
        drop(fresh);

        let cells = (benches.len() * Strategy::ALL.len()) as u64;
        let check = match self.workload {
            Workload::SuiteCold => check_suite(&report, failed, counts, expect::SUITE_COLD),
            Workload::SuiteWarm => check_suite(&report, failed, counts, expect::SUITE_WARM),
            Workload::SuiteDisk => check_suite(&report, failed, counts, expect::SUITE_DISK),
            _ => check_generated(&benches, failed, counts),
        };
        Iteration {
            wall,
            engine_new,
            cells,
            failed: if check.is_err() { cells } else { 0 },
            error: check.err(),
            cycles: report.jobs.iter().map(|j| j.measurement.cycles).sum(),
            moves: report.jobs.iter().map(|j| j.partition_moves).sum(),
            counts,
            span: span_id,
        }
    }

    /// End-to-end metrics, times multiplied by `scale` to the reference
    /// host speed.
    fn end_to_end(
        &self,
        timed: &[Iteration],
        setups: &[f64],
        peak_rss: f64,
        scale: f64,
    ) -> RunResult {
        let walls: Vec<f64> = timed.iter().map(|i| ms(i.wall)).collect();
        #[allow(clippy::cast_precision_loss)]
        let rates: Vec<f64> = timed
            .iter()
            .map(|i| i.cells as f64 / i.wall.as_secs_f64())
            .collect();
        let mut m = metrics::blank(false);
        put(&mut m, "latency_p50_ms", stats::median(&walls) * scale);
        put(&mut m, "throughput_per_s", stats::median(&rates) / scale);
        put(&mut m, "setup_s", stats::median(setups) * scale);
        put(&mut m, "peak_rss_mb", peak_rss);
        self.result(timed.iter(), m)
    }

    fn result<'i>(
        &self,
        iterations: impl Iterator<Item = &'i Iteration> + Clone,
        metrics: BTreeMap<String, f64>,
    ) -> RunResult {
        for e in iterations.clone().filter_map(|i| i.error.as_ref()) {
            eprintln!("{}: {e}", self.workload.name());
        }
        let failed = iterations.clone().map(|i| i.failed).sum();
        RunResult {
            correct: failed == 0,
            attempted: iterations.map(|i| i.cells).sum(),
            failed,
            metrics,
        }
    }

    /// Ten traced sweeps after the untraced baseline `timed`: stage
    /// times from the engine's `stage` histogram family, executor wait
    /// and idle time from its spans, exact counts from the reports.
    fn traced(&self, timed: &[Iteration]) -> Result<RunResult, String> {
        let tracer = Tracer::new(TRACE_CAPACITY);
        let state = self.setup(&tracer)?;
        let stages_before = tracer.family_snapshot(families::STAGE);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let count = (self.opts.seconds.as_secs_f64() as u64).clamp(1, TRACED_ITERATIONS);
        let traced: Vec<Iteration> = (0..count)
            .map(|k| self.iterate(&state, TRACED_INDEX_BASE + k, &tracer, tracer.new_trace()))
            .collect();
        let stages = stage_deltas(&stages_before, &tracer.family_snapshot(families::STAGE));
        let spans = settled_spans(&tracer, &traced)?;
        drop(state);

        #[allow(clippy::cast_precision_loss)]
        let n = traced.len() as f64;
        let mean = |f: &dyn Fn(&Iteration) -> u64| {
            #[allow(clippy::cast_precision_loss)]
            let total = traced.iter().map(f).sum::<u64>() as f64;
            total / n
        };
        let mut m = metrics::blank(true);
        let mut simulate_us = 0;
        for (label, sum_us) in &stages {
            if let Some(name) = stage_metric(label) {
                #[allow(clippy::cast_precision_loss)]
                let total = m[name] + *sum_us as f64 / 1e3 / n;
                put(&mut m, name, total);
            }
            if label == "simulate" {
                simulate_us = *sum_us;
            }
        }
        let cycles: u64 = traced.iter().map(|i| i.cycles).sum();
        #[allow(clippy::cast_precision_loss)]
        put(
            &mut m,
            "sim.ns_per_cycle",
            simulate_us as f64 * 1e3 / cycles.max(1) as f64,
        );
        put(&mut m, "sim.cycles", mean(&|i| i.cycles));
        put(&mut m, "bankalloc.partition_moves", mean(&|i| i.moves));
        put(
            &mut m,
            "driver.artifact_hits",
            mean(&|i| i.counts.artifact.0),
        );
        put(
            &mut m,
            "driver.artifact_misses",
            mean(&|i| i.counts.artifact.1),
        );
        put(
            &mut m,
            "driver.prepared_misses",
            mean(&|i| i.counts.prepared.1),
        );
        put(&mut m, "driver.disk_hits", mean(&|i| i.counts.disk_hits));
        if self.workload != Workload::SuiteWarm {
            let opens: Vec<f64> = traced.iter().map(|i| ms(i.engine_new)).collect();
            put(&mut m, "driver.store_open_ms", stats::median(&opens));
        }
        let idle: Vec<f64> = traced
            .iter()
            .map(|i| {
                let busy: u64 = spans.runs.get(&i.span).copied().unwrap_or(0);
                #[allow(clippy::cast_precision_loss)]
                let capacity = i.wall.as_secs_f64() * 1e6 * LOAD_THREADS as f64;
                #[allow(clippy::cast_precision_loss)]
                let busy = busy as f64;
                100.0 * (1.0 - busy / capacity)
            })
            .collect();
        put(&mut m, "exec.idle_pct", idle.iter().sum::<f64>() / n);
        put(
            &mut m,
            "exec.wait_batch_p50_ms",
            stats::median(&spans.waits_ms),
        );
        let base: Vec<f64> = timed.iter().map(|i| ms(i.wall)).collect();
        let walls: Vec<f64> = traced.iter().map(|i| ms(i.wall)).collect();
        put(&mut m, "client.op_tail_ms", stats::tail_value(&base));
        put(
            &mut m,
            "trace.overhead_pct",
            100.0 * (stats::median(&walls) / stats::median(&base) - 1.0),
        );
        if let Some(dir) = &self.opts.trace_out {
            crate::write_trace(dir, self.workload, &tracer.export_chrome())?;
        }
        Ok(self.result(timed.iter().chain(&traced), m))
    }
}

impl Iteration {
    fn failed_before_start(error: String) -> Iteration {
        Iteration {
            wall: Duration::ZERO,
            engine_new: Duration::ZERO,
            cells: 1,
            failed: 1,
            error: Some(error),
            cycles: 0,
            moves: 0,
            counts: CacheCounts::default(),
            span: 0,
        }
    }
}

/// Submit the full `benches` × strategies matrix under `parent` and
/// collect it in matrix order; the count is of cells that errored or
/// panicked.
fn sweep(engine: &Engine, benches: &[Benchmark], parent: SpanCtx) -> (RunReport, u64) {
    let run = engine.submit_matrix(
        benches,
        &Strategy::ALL,
        Priority::Batch,
        CancelToken::new(),
        parent,
    );
    let mut jobs = Vec::with_capacity(run.len());
    let mut failed = 0;
    for i in 0..run.len() {
        match run.wait_job(i) {
            Some(Ok(job)) => jobs.push(job),
            Some(Err(e)) => {
                let (bench, strategy) = run.pair(i);
                eprintln!("cell {bench} [{strategy}] failed: {e}");
                failed += 1;
            }
            None => {
                let (bench, strategy) = run.pair(i);
                eprintln!("cell {bench} [{strategy}] panicked");
                failed += 1;
            }
        }
    }
    let report = RunReport {
        strategies: Strategy::ALL.to_vec(),
        workers: run.workers(),
        wall_time: run.elapsed(),
        cache: engine.cache().stats(),
        jobs,
    };
    (report, failed)
}

fn check_suite(
    report: &RunReport,
    failed: u64,
    counts: CacheCounts,
    want: CacheCounts,
) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("{failed} cell(s) failed"));
    }
    expect::check_suite(report)?;
    if counts == want {
        Ok(())
    } else {
        Err(format!(
            "cache traffic {counts:?} differs from the pinned {want:?}"
        ))
    }
}

/// Every generated cell ran and was verified against the reference
/// interpreter (the engine fails a cell whose globals differ), and each
/// distinct program went through the front end and each strategy's
/// back end exactly once.
fn check_generated(benches: &[Benchmark], failed: u64, counts: CacheCounts) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("{failed} generated cell(s) failed"));
    }
    let distinct = benches
        .iter()
        .map(|b| b.source.as_str())
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let strategies = Strategy::ALL.len() as u64;
    if counts.prepared.1 != distinct || counts.artifact.1 != distinct * strategies {
        return Err(format!(
            "cache traffic {counts:?} does not match {distinct} distinct programs"
        ));
    }
    if counts.reference.0 + counts.reference.1 != benches.len() as u64 * strategies {
        return Err(format!("not every cell was verified: {counts:?}"));
    }
    Ok(())
}

/// Microseconds each stage label gained between two snapshots.
fn stage_deltas(
    before: &[(String, HistogramSnapshot)],
    after: &[(String, HistogramSnapshot)],
) -> Vec<(String, u64)> {
    after
        .iter()
        .map(|(label, snap)| {
            let prior = before
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |(_, s)| s.sum_micros);
            (label.clone(), snap.sum_micros - prior)
        })
        .collect()
}

/// The executor spans of the traced iterations.
struct ExecSpans {
    /// Iteration span → microseconds its cells ran.
    runs: BTreeMap<u64, u64>,
    /// Every cell's queue wait, ms.
    waits_ms: Vec<f64>,
}

/// Wait until every traced cell's `exec.run` span has landed (a worker
/// records it just after the cell's result is handed back), then read
/// them. Fails if the ring dropped any span.
fn settled_spans(tracer: &Tracer, traced: &[Iteration]) -> Result<ExecSpans, String> {
    let ids: BTreeSet<u64> = traced.iter().map(|i| i.span).collect();
    let expected: u64 = traced.iter().map(|i| i.cells).sum();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spans = tracer.snapshot(usize::MAX);
        let ids = &ids;
        let mine = |name: &'static str| {
            spans
                .iter()
                .filter(move |s| s.name == name && ids.contains(&s.parent))
        };
        if mine("exec.run").count() as u64 >= expected {
            if tracer.dropped() > 0 {
                return Err(format!(
                    "the trace ring dropped {} span(s); raise its capacity",
                    tracer.dropped()
                ));
            }
            let mut runs = BTreeMap::new();
            for s in mine("exec.run") {
                *runs.entry(s.parent).or_insert(0) += s.dur_us;
            }
            #[allow(clippy::cast_precision_loss)]
            let waits_ms = mine("exec.wait").map(|s| s.dur_us as f64 / 1e3).collect();
            return Ok(ExecSpans { runs, waits_ms });
        }
        if Instant::now() > deadline {
            return Err("traced cells' exec.run spans never all arrived".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
