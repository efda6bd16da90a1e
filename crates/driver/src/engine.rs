//! The batch engine as a thin pipeline over the shared
//! [`dsp_exec::Executor`].
//!
//! Since PR 3 the engine owns no threads of its own: a matrix run
//! submits one task per (benchmark, strategy) cell to a work-queue
//! executor — either a private one sized by [`EngineOptions::jobs`]
//! ([`Engine::new`]) or one shared with other engines and with
//! `dsp-serve`'s request handling ([`Engine::with_executor`]). Each
//! task is the pure pipeline parse → optimize → profile → partition →
//! compile → simulate, split at the [`ArtifactCache`] seams so
//! strategy-independent stages are computed once per source.
//!
//! Execution order is not report order. Cells are submitted so that
//! each source's first cell runs a worker-count of sources ahead of the
//! rest of its row (see [`Engine::submit_matrix`]): that cell parses,
//! optimizes and usually runs the reference, so its siblings find the
//! shared stages ready instead of blocking on them.
//!
//! Determinism: each cell's computation is a pure function of (source,
//! config, strategy), and [`MatrixRun`] reads results back through
//! per-job handles in matrix order. A parallel run is therefore
//! bit-identical to `jobs = 1` in every field except wall times and
//! the per-job `*_cached` flags (which job of a source reaches the
//! cache first is schedule-dependent; the per-layer totals are not).

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsp_backend::{CompileConfig, Strategy};
use dsp_exec::{CancelToken, Executor, JobHandle, Priority, WaitOutcome};
use dsp_sim::SimOptions;
use dsp_trace::{families, SpanCtx, Tracer};
use dsp_workloads::runner::{self, RunError};
use dsp_workloads::Benchmark;

use crate::cache::{ArtifactCache, CacheStats, Lookup, SimMemo};
use crate::report::{CacheFlags, JobReport, RunReport, StageTimes};
use crate::store::DiskStore;

/// Parse a user-supplied worker/`--jobs` count.
///
/// The one validation point for every thread-count knob in the
/// workspace (CLI `--jobs`, `dsp-serve --workers`, the load
/// generator's `--connections`): the count must be a positive
/// integer. `0` is rejected here — "use all cores" is spelled by
/// omitting the flag, not by passing zero.
///
/// # Errors
///
/// Returns a human-readable message naming `flag` on empty,
/// non-numeric, or zero input.
pub fn parse_worker_count(flag: &str, input: &str) -> Result<usize, String> {
    parse_positive(flag, input, "omit the flag to use all cores")
}

/// Parse a user-supplied queue capacity (`dsp-serve --queue`): a
/// positive integer, like [`parse_worker_count`], but a rejected `0`
/// points at the flag's `default` rather than at the core count.
///
/// # Errors
///
/// Returns a human-readable message naming `flag` on empty,
/// non-numeric, or zero input.
pub fn parse_queue_capacity(flag: &str, input: &str, default: usize) -> Result<usize, String> {
    parse_positive(
        flag,
        input,
        &format!("omit the flag for the default of {default}"),
    )
}

/// Check a command's arguments against the flags it knows: each must
/// be one of `valued`, followed by its value, or one of `switches`.
/// The one guard that keeps a mistyped flag (`--queu 0`) from running
/// silently with the default.
///
/// # Errors
///
/// Names the first argument that is not a known flag, or a valued flag
/// with no value after it.
pub fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} expects a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(())
}

fn parse_positive(flag: &str, input: &str, zero_hint: &str) -> Result<usize, String> {
    match input.parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1 ({zero_hint})")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} expects a positive integer, got `{input}`")),
    }
}

/// Parse a cache byte-budget flag given in KiB (`--cache-max-kb`,
/// `--cache-disk-max-kb`). `0` means **disabled** (unbounded) and
/// returns `None` — the documented spelling for "no byte budget",
/// consistent across the CLI and `dsp-serve`.
///
/// # Errors
///
/// Returns a human-readable message naming `flag` on empty or
/// non-numeric input.
pub fn parse_byte_budget(flag: &str, input: &str) -> Result<Option<u64>, String> {
    match input.parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(kb) => Ok(Some(kb.saturating_mul(1024))),
        Err(_) => Err(format!(
            "{flag} expects a size in KiB (0 disables the bound), got `{input}`"
        )),
    }
}

/// Parse a cache entry-capacity flag (`--cache-capacity`). `0` means
/// **disabled** (unbounded) and returns `None`, mirroring
/// [`parse_byte_budget`].
///
/// # Errors
///
/// Returns a human-readable message naming `flag` on empty or
/// non-numeric input.
pub fn parse_entry_budget(flag: &str, input: &str) -> Result<Option<NonZeroUsize>, String> {
    match input.parse::<usize>() {
        Ok(n) => Ok(NonZeroUsize::new(n)),
        Err(_) => Err(format!(
            "{flag} expects an entry count (0 disables the bound), got `{input}`"
        )),
    }
}

/// Validate a `--cache-dir` argument: non-empty, and not an existing
/// non-directory (a typo'd file path would silently degrade the store
/// to a no-op; catch it at the flag instead). The directory itself
/// need not exist — the store creates it.
///
/// # Errors
///
/// Returns a human-readable message naming `flag` for empty input or a
/// path that exists but is not a directory.
pub fn parse_cache_dir(flag: &str, input: &str) -> Result<PathBuf, String> {
    if input.is_empty() {
        return Err(format!("{flag} expects a directory path"));
    }
    let path = PathBuf::from(input);
    if path.exists() && !path.is_dir() {
        return Err(format!("{flag}: `{input}` exists and is not a directory"));
    }
    Ok(path)
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker-thread count of the engine's private executor; `0` means
    /// [`std::thread::available_parallelism`]. Ignored by
    /// [`Engine::with_executor`] — there the shared pool's size rules.
    pub jobs: usize,
    /// Driver-level compile configuration applied to every job.
    pub config: CompileConfig,
    /// Simulator fuel (cycle budget) per job.
    pub fuel: u64,
    /// Verify every simulated run against the reference interpreter
    /// (skipped automatically for benchmarks with no checked globals).
    pub verify: bool,
    /// Per-layer artifact-cache capacity; `None` = unbounded (batch
    /// sweeps), `Some(n)` = LRU-bounded to `n` entries per layer
    /// (long-running servers).
    pub cache_capacity: Option<NonZeroUsize>,
    /// Per-layer artifact-cache byte budget (estimated resident bytes);
    /// `None` = unbounded. Composes with `cache_capacity`: whichever
    /// bound is exceeded first evicts.
    pub cache_max_bytes: Option<u64>,
    /// Directory of the persistent artifact store ([`DiskStore`]);
    /// `None` = in-memory only. The engine opens the store at
    /// construction (startup sweep included) and consults it on every
    /// in-memory artifact miss.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget of the on-disk store (LRU-by-mtime eviction);
    /// `None` = unbounded. Only meaningful with `cache_dir`.
    pub cache_disk_max_bytes: Option<u64>,
    /// Span recorder shared with the executor and every job: each cell
    /// records a `cell` span with per-stage children and cache
    /// decisions, and feeds the stage-duration histograms. Defaults to
    /// [`Tracer::disabled`], which makes all of it a no-op; trace IDs
    /// and timestamps never reach deterministic report projections.
    pub tracer: Arc<Tracer>,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            jobs: 0,
            config: CompileConfig::default(),
            fuel: SimOptions::default().fuel,
            verify: true,
            cache_capacity: None,
            cache_max_bytes: None,
            cache_dir: None,
            cache_disk_max_bytes: None,
            tracer: Tracer::disabled(),
        }
    }
}

/// A job that failed, with enough context to report it.
#[derive(Debug)]
pub struct EngineError {
    /// Benchmark name.
    pub bench: String,
    /// Strategy under which the job failed.
    pub strategy: Strategy,
    /// The underlying failure.
    pub error: RunError,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.bench, self.strategy, self.error)
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The batch compile-and-simulate engine.
pub struct Engine {
    opts: EngineOptions,
    cache: Arc<ArtifactCache>,
    exec: Arc<Executor>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    /// An engine with the given options, an empty cache (bounded by
    /// [`EngineOptions::cache_capacity`] / `cache_max_bytes` when set),
    /// and a private executor of [`EngineOptions::jobs`] workers.
    #[must_use]
    pub fn new(opts: EngineOptions) -> Engine {
        let exec = Arc::new(Executor::with_tracer(opts.jobs, Arc::clone(&opts.tracer)));
        Engine::with_executor(opts, exec)
    }

    /// An engine submitting to an existing shared executor instead of
    /// spawning its own pool — how `dsp-serve` and the CLI give every
    /// engine in the process one machine-sized scheduler.
    #[must_use]
    pub fn with_executor(opts: EngineOptions, exec: Arc<Executor>) -> Engine {
        let store = opts
            .cache_dir
            .as_deref()
            .map(|dir| Arc::new(DiskStore::open_default(dir, opts.cache_disk_max_bytes)));
        Engine::with_cache_store(opts, exec, store)
    }

    /// [`Engine::with_executor`] over an explicit (possibly absent)
    /// disk store — the seam the fault-injection suite uses to hand
    /// the engine a store whose IO layer misbehaves on cue.
    #[must_use]
    pub fn with_cache_store(
        opts: EngineOptions,
        exec: Arc<Executor>,
        store: Option<Arc<DiskStore>>,
    ) -> Engine {
        let cache = Arc::new(ArtifactCache::with_store(
            opts.cache_capacity,
            opts.cache_max_bytes,
            store,
        ));
        Engine { opts, cache, exec }
    }

    /// The engine's options.
    #[must_use]
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The shared artifact cache (persists across `run_matrix` calls,
    /// so a repeated sweep is served from cache).
    #[must_use]
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The executor this engine submits to.
    #[must_use]
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// Worker threads that a matrix of `njobs` jobs could use.
    #[must_use]
    pub fn worker_count(&self, njobs: usize) -> usize {
        self.exec.workers().max(1).min(njobs.max(1))
    }

    /// Submit the full `benches` × `strategies` matrix to the executor
    /// without waiting: one task per cell, all under `priority` and
    /// `token`. The returned [`MatrixRun`] hands back per-job results
    /// in matrix order as they complete — the streaming building block
    /// for `dsp-serve`'s chunked `/sweep` responses.
    ///
    /// Cells run in a different order than they are reported. With
    /// `W` = [`MatrixRun::workers`], the first cells of the first `W`
    /// benches are submitted first; then, for each bench `b`, the first
    /// cell of bench `b + W` followed by the rest of bench `b`'s row.
    /// A first cell fills the source's `prepared` entry (and usually
    /// its reference run), so the siblings behind it seldom wait. With
    /// an entry capacity, `W` is at most `(capacity − 1) / 2`, so a
    /// source stays resident until its row has run; a byte budget alone
    /// does not cap it. One bench or one strategy keeps matrix order.
    ///
    /// Every cell's spans (queue wait, run, per-stage children) are
    /// parented under `ctx` — the request's trace for a served matrix,
    /// or [`SpanCtx::NONE`] / [`Tracer::new_trace`] for batch runs.
    #[must_use]
    pub fn submit_matrix(
        &self,
        benches: &[Benchmark],
        strategies: &[Strategy],
        priority: Priority,
        token: CancelToken,
        ctx: SpanCtx,
    ) -> MatrixRun {
        self.submit_matrix_with_config(benches, strategies, priority, token, ctx, self.opts.config)
    }

    /// [`Engine::submit_matrix`] with the [`CompileConfig`] overridden
    /// per matrix — how a served request selects its own partitioner
    /// while the engine (and its caches, keyed on the config) is
    /// shared.
    #[must_use]
    pub fn submit_matrix_with_config(
        &self,
        benches: &[Benchmark],
        strategies: &[Strategy],
        priority: Priority,
        token: CancelToken,
        ctx: SpanCtx,
        config: CompileConfig,
    ) -> MatrixRun {
        let pairs: Vec<(String, Strategy)> = benches
            .iter()
            .flat_map(|b| strategies.iter().map(move |&s| (b.name.clone(), s)))
            .collect();
        let workers = self.worker_count(pairs.len());
        // A source must stay resident until its siblings run. Between
        // its first cell and its row, the LRU also sees the first cells
        // of the next `window` sources and the rows of the `window`
        // before it: 2 × window + 1 sources in all.
        let window = match self.opts.cache_capacity {
            Some(cap) => workers.min((cap.get() - 1) / 2),
            None => workers,
        };
        let started = Instant::now();
        // The cells of this matrix that run one program share its run.
        let sims = Arc::new(SimMemo::default());
        let mut submitted: Vec<_> = submission_order(benches.len(), strategies.len(), window)
            .into_iter()
            .map(|cell| {
                let cache = Arc::clone(&self.cache);
                let sims = Arc::clone(&sims);
                let mut opts = self.opts.clone();
                opts.config = config;
                let bench = benches[cell / strategies.len()].clone();
                let strategy = strategies[cell % strategies.len()];
                let handle = self.exec.submit_ctx(priority, Some(&token), ctx, move || {
                    run_job(&cache, &sims, &opts, &bench, strategy, ctx)
                });
                (cell, handle)
            })
            .collect();
        submitted.sort_unstable_by_key(|&(cell, _)| cell);
        let handles = submitted.into_iter().map(|(_, handle)| handle).collect();
        MatrixRun {
            pairs,
            handles,
            strategies: strategies.to_vec(),
            workers,
            started,
            cache: Arc::clone(&self.cache),
            token,
        }
    }

    /// Run the full `benches` × `strategies` matrix and collect a
    /// [`RunReport`] with per-job measurements, stage times, and cache
    /// statistics. Jobs are reported bench-major, in argument order,
    /// regardless of execution interleaving.
    ///
    /// # Errors
    ///
    /// Returns the first failing job in matrix order (remaining jobs
    /// still run to completion).
    pub fn run_matrix(
        &self,
        benches: &[Benchmark],
        strategies: &[Strategy],
    ) -> Result<RunReport, EngineError> {
        let ctx = self.opts.tracer.new_trace();
        self.submit_matrix(
            benches,
            strategies,
            Priority::Batch,
            CancelToken::new(),
            ctx,
        )
        .into_report()
    }

    /// Run the whole 23-benchmark suite under `strategies`.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_matrix`].
    pub fn run_suite(&self, strategies: &[Strategy]) -> Result<RunReport, EngineError> {
        self.run_matrix(&dsp_workloads::all(), strategies)
    }
}

/// The order in which [`Engine::submit_matrix_with_config`] submits the
/// cells of a `benches` × `strategies` matrix, as bench-major cell
/// indices (`bench * strategies + strategy`).
///
/// A source's first cell computes its `prepared` entry and, usually,
/// its reference run; its siblings only look them up. So the first
/// cells of benches `0..window` go first, then, for each bench `b` in
/// order, the first cell of bench `b + window` (if any) followed by
/// cells `1..` of bench `b`. A `window` of 0, one bench or one strategy
/// gives matrix order.
fn submission_order(benches: usize, strategies: usize, window: usize) -> Vec<usize> {
    if window == 0 || strategies == 0 {
        return (0..benches * strategies).collect();
    }
    let first = |b: usize| b * strategies;
    let mut order: Vec<usize> = (0..benches.min(window)).map(first).collect();
    for b in 0..benches {
        if b + window < benches {
            order.push(first(b + window));
        }
        order.extend(first(b) + 1..first(b + 1));
    }
    order
}

/// An in-flight matrix: one submitted task per (benchmark, strategy)
/// cell, results retrievable per job in matrix order.
pub struct MatrixRun {
    pairs: Vec<(String, Strategy)>,
    handles: Vec<JobHandle<Result<JobReport, RunError>>>,
    strategies: Vec<Strategy>,
    workers: usize,
    started: Instant,
    cache: Arc<ArtifactCache>,
    token: CancelToken,
}

impl MatrixRun {
    /// Number of jobs in the matrix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True for an empty matrix.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The (benchmark name, strategy) of job `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn pair(&self, i: usize) -> (&str, Strategy) {
        let (name, strategy) = &self.pairs[i];
        (name, *strategy)
    }

    /// Executor workers this matrix could use (capped by job count).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Strategies swept, in column order.
    #[must_use]
    pub fn strategies(&self) -> &[Strategy] {
        &self.strategies
    }

    /// The cancel token shared by every job of this matrix.
    #[must_use]
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Cancel every job of this matrix still queued; running jobs
    /// finish. Their simulation is bounded by fuel; their profile and
    /// reference interpreter runs only by the interpreter's fixed
    /// 500 M-op budget.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Wall time since submission.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Cache counters of the engine that submitted this matrix.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Block until job `i` completes; `None` if it was cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn wait_job(&self, i: usize) -> Option<Result<JobReport, RunError>> {
        self.handles[i].wait()
    }

    /// Wait for job `i` until `deadline` at the latest.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn wait_job_until(
        &self,
        i: usize,
        deadline: Instant,
    ) -> WaitOutcome<Result<JobReport, RunError>> {
        self.handles[i].wait_until(deadline)
    }

    /// Wait for every job and assemble the [`RunReport`] (jobs in
    /// matrix order).
    ///
    /// # Errors
    ///
    /// Returns the first failing job in matrix order (remaining jobs
    /// still run to completion).
    ///
    /// # Panics
    ///
    /// Panics if a job was cancelled (cancel-aware callers stream via
    /// [`MatrixRun::wait_job_until`] instead) or if a job panicked.
    pub fn into_report(self) -> Result<RunReport, EngineError> {
        let outcomes: Vec<Option<Result<JobReport, RunError>>> =
            self.handles.iter().map(JobHandle::wait).collect();
        let wall_time = self.started.elapsed();
        let mut reports = Vec::with_capacity(outcomes.len());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (bench, strategy) = &self.pairs[i];
            match outcome {
                Some(Ok(report)) => reports.push(report),
                Some(Err(error)) => {
                    return Err(EngineError {
                        bench: bench.clone(),
                        strategy: *strategy,
                        error,
                    })
                }
                None => panic!("engine job {bench} [{strategy}] panicked or was cancelled"),
            }
        }
        Ok(RunReport {
            strategies: self.strategies,
            workers: self.workers,
            wall_time,
            cache: self.cache.stats(),
            jobs: reports,
        })
    }
}

/// Compile, simulate, and verify one (benchmark, strategy) pair, going
/// through `cache` for every strategy-independent stage and through
/// `sims` for a simulation another cell of the same matrix ran. This is
/// the executor task body: a pure function of its arguments (the tracer
/// in `opts` records timing as a side channel but never feeds back into
/// results).
///
/// With an enabled tracer the job records one `cell` span under
/// `parent` with per-stage children: live `prepared` / `profile` /
/// `artifact` / `simulate` / `verify` spans carrying their cache
/// decision as an attribute, and stages whose wall times the pipeline
/// already measures (`parse`, `opt`, compile sub-stages, `decode` and
/// `execute`, `reference`) backfilled from those durations. Stage
/// times feed the [`families::STAGE`] histogram only when this job
/// actually computed the stage — cache hits would double-count the
/// original compute.
///
/// # Errors
///
/// Propagates the first failing pipeline stage.
pub fn run_job(
    cache: &ArtifactCache,
    sims: &SimMemo,
    opts: &EngineOptions,
    bench: &Benchmark,
    strategy: Strategy,
    parent: SpanCtx,
) -> Result<JobReport, RunError> {
    let tracer = &opts.tracer;
    let mut cell = tracer.span("cell", "engine", parent);
    cell.attr("bench", &bench.name);
    if tracer.is_enabled() {
        cell.attr("strategy", &strategy.to_string());
    }
    let cell_ctx = cell.ctx();

    let (prep, prepared_cached) = {
        let mut span = tracer.span("prepared", "stage", cell_ctx);
        let (prep, lookup) = cache.prepared(&bench.source)?;
        span.attr("cache", lookup.label());
        if lookup == Lookup::Miss {
            if let Some(anchor) = span.start_instant() {
                let ctx = span.ctx();
                tracer.record_span("parse", "stage", ctx, anchor, prep.parse_time, Vec::new());
                let mut at = anchor + prep.parse_time;
                let opt = tracer.record_span("opt", "stage", ctx, at, prep.opt_time, Vec::new());
                // One child per pass, back to back in first-run order;
                // like `final_pack`'s parts, no histogram of their own.
                for pass in &prep.opt_passes {
                    tracer.record_span(pass.pass, "stage", opt, at, pass.time, Vec::new());
                    at += pass.time;
                }
            }
            tracer.observe(families::STAGE, "parse", prep.parse_time);
            tracer.observe(families::STAGE, "opt", prep.opt_time);
        }
        (prep, lookup != Lookup::Miss)
    };

    let needs_profile = matches!(strategy, Strategy::ProfileWeighted | Strategy::SelectiveDup);
    let (profile, profile_time, profile_cached) = if needs_profile {
        let mut span = tracer.span("profile", "stage", cell_ctx);
        let (stats, time, lookup) = cache.profile(&prep)?;
        span.attr("cache", lookup.label());
        if lookup == Lookup::Miss {
            tracer.observe(families::STAGE, "profile", time);
        }
        (Some(stats), time, lookup != Lookup::Miss)
    } else {
        (None, Duration::ZERO, false)
    };

    let (artifact, artifact_cached, artifact_disk) = {
        let mut span = tracer.span("artifact", "stage", cell_ctx);
        let (artifact, cached, disk) = cache.artifact(&prep, strategy, opts.config, profile)?;
        span.attr(
            "cache",
            if cached {
                "memory-hit"
            } else if disk == Some(true) {
                "disk-hit"
            } else {
                "compiled"
            },
        );
        if !cached && disk != Some(true) {
            let reuse = artifact.reuse;
            if let Some(backend) = reuse.backend {
                span.attr("backend", backend.label());
            }
            // A fresh compile: backfill the sub-stages it ran end to end
            // in pipeline order, anchored at this span's start. Products
            // it took from the source's memo ran in another cell.
            if let Some(anchor) = span.start_instant() {
                let t = &artifact.timings;
                let ctx = span.ctx();
                let mut at = anchor;
                // The partition stage's histogram label carries the
                // algorithm (rendered by dsp-serve as a separate
                // `partitioner` Prometheus label); the span keeps the
                // plain stage name.
                let partition_label = match opts.config.partitioner {
                    dsp_backend::PartitionerKind::Greedy => "partition|greedy",
                    dsp_backend::PartitionerKind::Fm => "partition|fm",
                    dsp_backend::PartitionerKind::Exhaustive => "partition|exhaustive",
                };
                let ran = |lookup: Option<Lookup>| lookup == Some(Lookup::Miss);
                let backend = ran(reuse.backend);
                for (name, label, dur, ran) in [
                    (
                        "trial_compaction",
                        "trial_compaction",
                        t.trial_compaction,
                        ran(reuse.trial),
                    ),
                    (
                        "partition",
                        partition_label,
                        t.partition,
                        reuse.trial.is_some(),
                    ),
                    ("regalloc", "regalloc", t.regalloc, ran(reuse.regalloc)),
                    ("lower", "lower", t.lower, backend),
                    ("final_pack", "final_pack", t.final_pack, backend),
                    ("link", "link", t.link, backend),
                ] {
                    if !ran {
                        continue;
                    }
                    let stage = tracer.record_span(name, "stage", ctx, at, dur, Vec::new());
                    tracer.observe(families::STAGE, label, dur);
                    if name == "final_pack" {
                        // Its parts, back to back; no histogram of their
                        // own, so the stage families stay as they are.
                        let p = &t.pack_parts;
                        let mut part_at = at;
                        for (part, part_dur) in [
                            ("deps", p.deps),
                            ("priorities", p.priorities),
                            ("compact", p.compact),
                        ] {
                            tracer.record_span(part, "stage", stage, part_at, part_dur, Vec::new());
                            part_at += part_dur;
                        }
                    }
                    at += dur;
                }
            }
        }
        (artifact, cached, disk)
    };

    let (run, sim_lookup) = {
        let mut span = tracer.span("simulate", "stage", cell_ctx);
        let (run, lookup) = cache.simulate(sims, &artifact, opts.fuel);
        span.attr("sim", lookup.label());
        if lookup == Lookup::Miss {
            // Its parts, back to back like `final_pack`'s; no histogram
            // of their own.
            if let Some(anchor) = span.start_instant() {
                let ctx = span.ctx();
                tracer.record_span("decode", "stage", ctx, anchor, run.decode, Vec::new());
                let at = anchor + run.decode;
                tracer.record_span("execute", "stage", ctx, at, run.execute, Vec::new());
            }
            tracer.observe(families::STAGE, "simulate", run.decode + run.execute);
        }
        (run, lookup)
    };
    let outcome = run.outcome.as_ref().map_err(|e| RunError::Sim(e.clone()))?;

    let mut verify = Duration::ZERO;
    let mut reference_time = Duration::ZERO;
    let mut reference_cached = None;
    if opts.verify && !bench.check_globals.is_empty() {
        let verify_start = Instant::now();
        let (reference, ref_time, lookup) = cache.reference(&prep)?;
        // The `verify` stage is the comparison alone: a reference run
        // this job computed is the `reference` stage, and time blocked
        // on another job's run is neither.
        let check_start = Instant::now();
        runner::verify_sim(bench, strategy, outcome, reference)?;
        verify = check_start.elapsed();
        reference_time = ref_time;
        reference_cached = Some(lookup != Lookup::Miss);
        if tracer.is_enabled() {
            let vctx = tracer.record_span(
                "verify",
                "stage",
                cell_ctx,
                verify_start,
                verify_start.elapsed(),
                vec![("reference_cache", lookup.label().to_string())],
            );
            if lookup == Lookup::Miss {
                tracer.record_span(
                    "reference",
                    "stage",
                    vctx,
                    verify_start,
                    ref_time,
                    Vec::new(),
                );
                tracer.observe(families::STAGE, "reference", ref_time);
            }
            tracer.observe(families::STAGE, "verify", verify);
        }
    }

    let measurement = runner::measure_program(
        &bench.name,
        &artifact.program,
        artifact.strategy,
        artifact.duplicated_vars,
        outcome.stats.clone(),
    );
    Ok(JobReport {
        bench: bench.name.clone(),
        kind: bench.kind,
        strategy,
        partition_cost: artifact.partition_cost,
        duplicated_words: artifact.duplicated_words,
        partitioner: opts.config.partitioner.label(),
        partition_passes: artifact.partition_passes,
        partition_moves: artifact.partition_moves,
        measurement,
        cached: CacheFlags {
            prepared: prepared_cached,
            profile: needs_profile.then_some(profile_cached),
            reference: reference_cached,
            artifact: artifact_cached,
            artifact_disk,
            sim: sim_lookup != Lookup::Miss,
        },
        stages: StageTimes {
            parse: prep.parse_time,
            opt: prep.opt_time,
            opt_passes: prep
                .opt_passes
                .iter()
                .map(|p| (p.pass.to_string(), p.time))
                .collect(),
            profile: profile_time,
            trial_compaction: artifact.timings.trial_compaction,
            partition: artifact.timings.partition,
            regalloc: artifact.timings.regalloc,
            lower: artifact.timings.lower,
            final_pack: artifact.timings.final_pack,
            link: artifact.timings.link,
            reference: reference_time,
            simulate: run.decode + run.execute,
            verify,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_accepts_positive_integers() {
        assert_eq!(parse_worker_count("--jobs", "1"), Ok(1));
        assert_eq!(parse_worker_count("--jobs", "64"), Ok(64));
    }

    #[test]
    fn worker_count_rejects_zero_with_a_clear_error() {
        let err = parse_worker_count("--jobs", "0").unwrap_err();
        assert!(err.contains("--jobs"), "error should name the flag: {err}");
        assert!(err.contains("at least 1"), "error should say why: {err}");
        let err = parse_worker_count("--workers", "0").unwrap_err();
        assert!(err.contains("--workers"));
    }

    #[test]
    fn queue_capacity_zero_points_at_the_queue_default_not_the_cores() {
        assert_eq!(parse_queue_capacity("--queue", "8", 64), Ok(8));
        let err = parse_queue_capacity("--queue", "0", 64).unwrap_err();
        assert_eq!(
            err,
            "--queue must be at least 1 (omit the flag for the default of 64)"
        );
        let err = parse_queue_capacity("--queue", "x", 64).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn worker_count_rejects_garbage() {
        for bad in ["", "x", "-1", "1.5", "1e3"] {
            let err = parse_worker_count("--jobs", bad).unwrap_err();
            assert!(err.contains("positive integer"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn byte_budget_zero_means_disabled() {
        // `0` is the documented "unbounded" spelling on every byte
        // knob, CLI and serve alike.
        assert_eq!(parse_byte_budget("--cache-max-kb", "0"), Ok(None));
        assert_eq!(
            parse_byte_budget("--cache-max-kb", "64"),
            Ok(Some(64 * 1024))
        );
        assert_eq!(
            parse_byte_budget("--cache-disk-max-kb", "1"),
            Ok(Some(1024))
        );
        for bad in ["", "x", "-1", "1.5"] {
            let err = parse_byte_budget("--cache-max-kb", bad).unwrap_err();
            assert!(err.contains("--cache-max-kb"), "{bad:?} -> {err}");
            assert!(err.contains("0 disables"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn entry_budget_zero_means_disabled() {
        assert_eq!(parse_entry_budget("--cache-capacity", "0"), Ok(None));
        assert_eq!(
            parse_entry_budget("--cache-capacity", "8"),
            Ok(NonZeroUsize::new(8))
        );
        let err = parse_entry_budget("--cache-capacity", "nope").unwrap_err();
        assert!(err.contains("--cache-capacity"));
    }

    #[test]
    fn cache_dir_rejects_empty_and_non_directories() {
        let err = parse_cache_dir("--cache-dir", "").unwrap_err();
        assert!(err.contains("--cache-dir"));
        // A nonexistent path is fine — the store creates it.
        assert!(parse_cache_dir("--cache-dir", "/tmp/definitely-new-dir").is_ok());
        // An existing file is a typo, not a cache.
        let file = std::env::temp_dir().join(format!("cache-dir-test-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let err = parse_cache_dir("--cache-dir", file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn submission_order_runs_each_first_cell_ahead_of_its_row() {
        for benches in 0..6 {
            for strategies in 0..5 {
                for window in 0..5 {
                    let order = submission_order(benches, strategies, window);
                    let case = format!("B={benches} S={strategies} W={window}: {order:?}");
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    let identity: Vec<usize> = (0..benches * strategies).collect();
                    assert_eq!(sorted, identity, "a permutation: {case}");
                    if benches == 1 || strategies == 1 || window == 0 {
                        assert_eq!(order, identity, "matrix order: {case}");
                    }
                    let at = |cell: usize| order.iter().position(|&c| c == cell).unwrap();
                    for b in 0..benches {
                        for s in 1..strategies {
                            let (first, sibling) = (b * strategies, b * strategies + s);
                            assert!(at(first) < at(sibling), "{first} before {sibling}: {case}");
                        }
                    }
                }
            }
        }
        // Three benches of three cells under a window of one.
        assert_eq!(submission_order(3, 3, 1), vec![0, 3, 1, 2, 6, 4, 5, 7, 8]);
    }

    #[test]
    fn engines_can_share_one_executor() {
        let exec = Arc::new(Executor::new(2));
        let a = Engine::with_executor(EngineOptions::default(), Arc::clone(&exec));
        let b = Engine::with_executor(EngineOptions::default(), Arc::clone(&exec));
        let bench = dsp_workloads::kernels::fir(8, 4);
        let ra = a
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::Baseline])
            .unwrap();
        let rb = b
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::Baseline])
            .unwrap();
        assert_eq!(ra.jobs[0].measurement.cycles, rb.jobs[0].measurement.cycles);
        // Both matrices ran on the shared pool.
        assert_eq!(exec.stats().executed_batch, 2);
    }

    #[test]
    fn cancelled_matrix_resolves_queued_jobs_as_cancelled() {
        // A 1-worker executor occupied by a gate keeps the matrix
        // queued; cancelling then must resolve every job without
        // running it.
        let exec = Arc::new(Executor::new(1));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let gate = exec.submit(Priority::Batch, None, move || {
            entered_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("gate must start");

        let engine = Engine::with_executor(EngineOptions::default(), Arc::clone(&exec));
        let bench = dsp_workloads::kernels::fir(8, 4);
        let run = engine.submit_matrix(
            std::slice::from_ref(&bench),
            &Strategy::ALL,
            Priority::Batch,
            CancelToken::new(),
            SpanCtx::NONE,
        );
        run.cancel();
        tx.send(()).unwrap();
        gate.wait().unwrap();
        for i in 0..run.len() {
            assert!(run.wait_job(i).is_none(), "job {i} must be cancelled");
        }
        assert_eq!(engine.cache().stats().misses(), 0, "no work may have run");
    }

    #[test]
    fn traced_matrix_records_stage_spans_and_histograms() {
        let tracer = Tracer::new(4096);
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            tracer: Arc::clone(&tracer),
            ..EngineOptions::default()
        });
        let bench = dsp_workloads::kernels::fir(8, 4);
        let report = engine
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::CbPartition])
            .unwrap();
        assert_eq!(report.jobs.len(), 1);

        // The worker's `exec.run` guard drops just *after* the job
        // handle resolves, so give it a moment to land in the ring.
        let deadline = Instant::now() + Duration::from_secs(5);
        let spans = loop {
            let spans = tracer.snapshot(usize::MAX);
            if spans.iter().any(|s| s.name == "exec.run") {
                break spans;
            }
            assert!(Instant::now() < deadline, "exec.run span never appeared");
            std::thread::sleep(Duration::from_millis(2));
        };
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span `{name}`"))
        };
        let cell = find("cell");
        assert!(cell
            .attrs
            .iter()
            .any(|(k, v)| *k == "bench" && v == &bench.name));
        assert_ne!(cell.trace, 0, "run_matrix mints a trace id");
        // Live stage spans hang off the cell; the executor's wait/run
        // spans join the same trace.
        for name in ["prepared", "artifact", "simulate", "exec.wait", "exec.run"] {
            assert_eq!(
                find(name).trace,
                cell.trace,
                "span `{name}` joins the trace"
            );
        }
        for name in ["prepared", "artifact", "simulate"] {
            assert_eq!(find(name).parent, cell.span, "span `{name}` nests in cell");
        }
        // A cold cache means fresh computes: compile sub-stages are
        // backfilled under the artifact span…
        let artifact = find("artifact");
        assert!(artifact
            .attrs
            .iter()
            .any(|(k, v)| *k == "cache" && v == "compiled"));
        for name in [
            "trial_compaction",
            "partition",
            "regalloc",
            "lower",
            "final_pack",
        ] {
            assert_eq!(find(name).parent, artifact.span);
        }
        for name in ["deps", "priorities", "compact"] {
            assert_eq!(find(name).parent, find("final_pack").span);
        }
        // `simulate` splits into set-up and run, laid end to end.
        let simulate = find("simulate");
        let (decode, execute) = (find("decode"), find("execute"));
        assert_eq!(decode.parent, simulate.span);
        assert_eq!(execute.parent, simulate.span);
        assert!(decode.dur_us + execute.dur_us <= simulate.dur_us);
        // The prepared miss splits `opt` into one span per pass, laid
        // end to end inside it.
        let opt = find("opt");
        assert_eq!(opt.parent, find("prepared").span);
        let passes: Vec<_> = spans.iter().filter(|s| s.parent == opt.span).collect();
        let names: Vec<&str> = passes.iter().map(|s| s.name).collect();
        for name in ["local", "dce", "preheaders", "licm", "ivopt", "faint-dce"] {
            assert!(names.contains(&name), "pass span `{name}`: {names:?}");
        }
        let passes_us: u64 = passes.iter().map(|s| s.dur_us).sum();
        assert!(
            passes_us <= opt.dur_us,
            "{passes_us} us > {} us",
            opt.dur_us
        );
        // …and the stage histogram family saw them.
        let fam = tracer.family_snapshot(families::STAGE);
        let labels: Vec<&str> = fam.iter().map(|(l, _)| l.as_str()).collect();
        for stage in ["parse", "opt", "partition|greedy", "regalloc", "simulate"] {
            assert!(
                labels.contains(&stage),
                "stage histogram for `{stage}`: {labels:?}"
            );
        }

        // A second identical run hits the cache: the artifact span now
        // says so, and stage histograms gain no compile observations.
        let partition_count = fam
            .iter()
            .find(|(l, _)| l == "partition|greedy")
            .map(|(_, s)| s.count)
            .unwrap();
        let _ = engine
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::CbPartition])
            .unwrap();
        let spans = tracer.snapshot(usize::MAX);
        assert!(
            spans.iter().filter(|s| s.name == "artifact").any(|s| s
                .attrs
                .iter()
                .any(|(k, v)| *k == "cache" && v == "memory-hit")),
            "second run must record a memory-hit artifact span"
        );
        let fam = tracer.family_snapshot(families::STAGE);
        assert_eq!(
            fam.iter()
                .find(|(l, _)| l == "partition|greedy")
                .map(|(_, s)| s.count)
                .unwrap(),
            partition_count,
            "cache hits must not double-count stage durations"
        );
    }

    #[test]
    fn fresh_artifacts_tag_the_back_end_and_span_only_the_stages_they_ran() {
        let tracer = Tracer::new(8192);
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            tracer: Arc::clone(&tracer),
            ..EngineOptions::default()
        });
        let bench = dsp_workloads::kernels::fir(8, 4);
        engine
            .run_matrix(std::slice::from_ref(&bench), &Strategy::ALL)
            .unwrap();
        let spans = tracer.snapshot(usize::MAX);
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let tag = |s: &dsp_trace::FinishedSpan, key: &str| {
            s.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let artifacts: Vec<_> = named("artifact").collect();
        assert_eq!(artifacts.len(), Strategy::ALL.len());
        let backends: Vec<String> = artifacts
            .iter()
            .map(|s| tag(s, "backend").expect("a fresh artifact tags its back end"))
            .collect();
        assert!(backends
            .iter()
            .all(|b| ["hit", "miss", "wait"].contains(&b.as_str())));
        let built = backends.iter().filter(|b| *b == "miss").count();
        assert!(built < Strategy::ALL.len(), "{backends:?}");
        // Once per source, in the cell that computed them.
        assert_eq!(named("trial_compaction").count(), 1);
        assert_eq!(named("regalloc").count(), 1);
        // Five partitioning strategies; one back end per distinct key.
        assert_eq!(named("partition").count(), 5);
        for stage in ["lower", "final_pack", "link"] {
            assert_eq!(named(stage).count(), built, "{stage}");
        }
        for stage in ["lower", "final_pack", "link"] {
            for s in named(stage) {
                let parent = artifacts.iter().find(|a| a.span == s.parent).unwrap();
                assert_eq!(tag(parent, "backend").as_deref(), Some("miss"));
            }
        }
    }

    #[test]
    fn simulate_spans_tag_the_outcome_and_split_only_fresh_runs() {
        let tracer = Tracer::new(8192);
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            tracer: Arc::clone(&tracer),
            ..EngineOptions::default()
        });
        let bench = dsp_workloads::kernels::fir(8, 4);
        let sweep = || {
            engine
                .run_matrix(std::slice::from_ref(&bench), &Strategy::ALL)
                .unwrap();
            tracer.snapshot(usize::MAX)
        };
        let tags = |spans: &[dsp_trace::FinishedSpan]| -> Vec<String> {
            spans
                .iter()
                .filter(|s| s.name == "simulate")
                .map(|s| {
                    let (_, v) = s.attrs.iter().find(|(k, _)| *k == "sim").unwrap();
                    v.clone()
                })
                .collect()
        };
        let simulate_count = || {
            tracer
                .family_snapshot(families::STAGE)
                .iter()
                .find(|(l, _)| l == "simulate")
                .map_or(0, |(_, s)| s.count)
        };
        let spans = sweep();
        let cold = tags(&spans);
        assert_eq!(cold.len(), Strategy::ALL.len());
        let ran = cold.iter().filter(|t| *t == "miss").count();
        assert!(0 < ran && ran < cold.len(), "{cold:?}");
        assert!(cold.iter().all(|t| t == "miss" || t == "hit"), "{cold:?}");
        for part in ["decode", "execute"] {
            let parents: Vec<_> = spans.iter().filter(|s| s.name == part).collect();
            assert_eq!(parents.len(), ran, "{part}");
            for s in parents {
                let parent = spans.iter().find(|p| p.span == s.parent).unwrap();
                assert!(parent.attrs.iter().any(|(k, v)| *k == "sim" && v == "miss"));
            }
        }
        assert_eq!(simulate_count(), ran as u64);

        // Outcomes live for one matrix: a second sweep runs each
        // program again, once.
        let spans = sweep();
        let all = tags(&spans);
        assert_eq!(all[cold.len()..], cold[..], "{all:?}");
        assert_eq!(spans.iter().filter(|s| s.name == "decode").count(), 2 * ran);
        assert_eq!(simulate_count(), 2 * ran as u64);
    }

    #[test]
    fn one_worker_runs_cells_in_submission_order_and_reports_in_matrix_order() {
        let tracer = Tracer::new(4096);
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            tracer: Arc::clone(&tracer),
            ..EngineOptions::default()
        });
        let benches = [
            dsp_workloads::kernels::fir(8, 4),
            dsp_workloads::kernels::fir(16, 4),
            dsp_workloads::kernels::iir(2, 8),
        ];
        let report = engine.run_matrix(&benches, &Strategy::ALL).unwrap();
        let cells: Vec<(String, String)> = benches
            .iter()
            .flat_map(|b| Strategy::ALL.map(|s| (b.name.clone(), s.to_string())))
            .collect();
        let reported: Vec<(String, String)> = report
            .jobs
            .iter()
            .map(|j| (j.bench.clone(), j.strategy.to_string()))
            .collect();
        assert_eq!(reported, cells, "the report stays in matrix order");

        let mut spans: Vec<_> = tracer
            .snapshot(usize::MAX)
            .into_iter()
            .filter(|s| s.name == "cell")
            .collect();
        spans.sort_by_key(|s| s.start_us);
        let attr = |s: &dsp_trace::FinishedSpan, key: &str| {
            s.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let ran: Vec<(String, String)> = spans
            .iter()
            .map(|s| (attr(s, "bench"), attr(s, "strategy")))
            .collect();
        let expected: Vec<(String, String)> = submission_order(3, Strategy::ALL.len(), 1)
            .into_iter()
            .map(|cell| cells[cell].clone())
            .collect();
        assert_eq!(ran, expected, "one worker runs cells as submitted");
    }

    #[test]
    fn untraced_engine_is_the_default_and_records_nothing() {
        let engine = Engine::default();
        assert!(!engine.options().tracer.is_enabled());
        let bench = dsp_workloads::kernels::fir(8, 4);
        engine
            .run_matrix(std::slice::from_ref(&bench), &[Strategy::Baseline])
            .unwrap();
        assert!(engine.options().tracer.snapshot(8).is_empty());
    }
}
