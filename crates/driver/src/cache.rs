//! Content-hashed artifact cache.
//!
//! A sweep evaluates the same source under several strategies, and the
//! front half of the pipeline — parsing, machine-independent
//! optimization, the profiling run, and the reference-interpreter run —
//! is strategy-independent. The cache splits the pipeline at exactly
//! those seams:
//!
//! * **prepared** — parse + optimize, keyed on the FNV-1a hash of the
//!   source text; shared by every strategy of a source.
//! * **profile** — the profiling interpreter run over the optimized IR
//!   (`Pr`/`SelDup` only); one per source.
//! * **reference** — the reference interpreter's final global values,
//!   used for verification; one per source.
//! * **memo** — the back end's strategy-independent products
//!   ([`SourceMemo`]): the trial compaction (computed when the first
//!   partitioning strategy asks, so a lone `Base` or `Ideal` compile
//!   never pays for it), each function's register assignment, and one
//!   linked program per distinct bank assignment, held weakly so the
//!   memo never keeps a program the artifact layer has let go.
//! * **artifact** — the fully compiled program (a distilled
//!   [`Compiled`]), keyed on (source hash, [`CompileConfig`],
//!   [`Strategy`]); a repeated sweep compiles each pair exactly once,
//!   and strategies whose bank assignments agree share one program.
//! * **sim** — the outcome of simulating a program ([`SimRun`]: the
//!   statistics and every data symbol's final words, or the error),
//!   keyed on (linked program, dual-ported, fuel) in a [`SimMemo`] that
//!   lives for one matrix: the cells of a sweep that run one program
//!   under one fuel share one simulation ([`ArtifactCache::simulate`]).
//!
//! The outcomes live for one matrix, not with the prepared source.
//! Kept with the source, they would also answer every later sweep and
//! every warm `/compile` hit; that was measured, and it roughly doubled
//! `dsp-serve`'s closed-loop request rate, and with it the memory of
//! the benchmark's per-request log, past the benchmark's `peak_rss_mb`
//! bound. So a repeated sweep simulates again, and a single-cell
//! request never shares. An artifact rehydrated from the disk tier is a
//! separate program, shared with no other cell, so its cell simulates
//! unmemoized, through the same [`dsp_sim::simulate`].
//!
//! Below the in-memory artifact layer sits an optional **disk tier**
//! ([`crate::store::DiskStore`]): an in-memory miss first tries to
//! rehydrate the artifact from a content-addressed on-disk entry, and
//! a fresh compile is published back (atomic temp-file + rename), so
//! a restarted process warms from previous work. Each cell is a pure
//! function of its key, which is what makes artifacts safely durable.
//!
//! Every layer stores its value in an [`OnceLock`] fetched from the map
//! under a short-lived mutex, so concurrent workers asking for the same
//! key block on one computation instead of duplicating it. For an
//! unbounded cache, the miss count of a layer therefore equals the
//! number of distinct keys ever requested — a deterministic quantity,
//! independent of thread scheduling. The engine submits each source's
//! first cell ahead of its siblings, so in a matrix sweep the siblings
//! seldom block: the once-per-source lookups (`prepared`, `profile`,
//! `reference`) return a [`Lookup`] that says whether one did.
//!
//! # Bounding
//!
//! A batch sweep can afford an unbounded cache (23 sources × 7
//! strategies), but a long-running server cannot: every novel request
//! body would pin a parsed program and a compiled artifact forever.
//! [`ArtifactCache::bounded`] caps the `prepared` and `artifact` maps
//! at a fixed entry count with least-recently-used eviction, and
//! [`ArtifactCache::with_limits`] adds a per-layer byte budget over
//! *estimated* resident sizes (the dominant vectors — IR ops, VLIW
//! instructions, data-image words — at fixed per-element costs; sizes
//! are recorded when a fresh computation lands, so an entry being
//! computed is briefly accounted at zero). Whichever bound is exceeded
//! first evicts; evictions and evicted bytes are counted per layer in
//! [`CacheStats`]. Eviction only drops the map's reference — in-flight
//! users of an evicted slot hold their own `Arc` and finish normally;
//! a later request recomputes. A single entry larger than the byte
//! budget stays resident (the cache never evicts below one entry).
//! (The profile/reference sub-results and the memo ride inside their
//! `PreparedSource` entry and are evicted with it; the memo's trial
//! pairs and register assignments are small next to the optimized IR
//! and ride in its estimate, and its programs are counted where they
//! are held, in the artifact layer.)

use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dsp_backend::opt::PassTime;
pub use dsp_backend::Lookup;
use dsp_backend::{
    compile_optimized, profile_ir, CompileConfig, CompileError, CompileTimings, Compiled, Reuse,
    SourceMemo, Strategy,
};
use dsp_bankalloc::Var;
use dsp_ir::{ExecStats, InterpError, Program};
use dsp_machine::{VliwInst, VliwProgram, Word};
use dsp_sim::{simulate, SimOptions, SimRun};
use dsp_trace::fnv1a;
use dsp_workloads::runner;

use crate::store::{DiskStats, DiskStore};

/// Stable index of a strategy (position in [`Strategy::ALL`]).
fn strategy_index(strategy: Strategy) -> u8 {
    Strategy::ALL
        .iter()
        .position(|&s| s == strategy)
        .map_or(u8::MAX, |i| i as u8)
}

/// Encode a [`CompileConfig`] into cache-key bits.
fn config_key(config: CompileConfig) -> u64 {
    u64::from(config.interrupt_safe_dup) | u64::from(config.partitioner.index()) << 1
}

/// Cache key of one compiled artifact: (source text, driver
/// configuration, strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// [`fnv1a`] of the source text.
    pub source: u64,
    /// Encoded [`CompileConfig`].
    pub config: u64,
    /// Index into [`Strategy::ALL`].
    pub strategy: u8,
}

impl ArtifactKey {
    /// Build the key for a (source, config, strategy) triple.
    #[must_use]
    pub fn new(source: &str, config: CompileConfig, strategy: Strategy) -> ArtifactKey {
        ArtifactKey {
            source: fnv1a(source.as_bytes()),
            config: config_key(config),
            strategy: strategy_index(strategy),
        }
    }
}

/// Snapshot of per-layer hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parse+optimize layer hits.
    pub prepared_hits: u64,
    /// Parse+optimize layer misses (distinct sources compiled).
    pub prepared_misses: u64,
    /// Profiling-run hits.
    pub profile_hits: u64,
    /// Profiling-run misses.
    pub profile_misses: u64,
    /// Reference-run hits.
    pub reference_hits: u64,
    /// Reference-run misses.
    pub reference_misses: u64,
    /// Compiled-artifact hits.
    pub artifact_hits: u64,
    /// Compiled-artifact misses (distinct (source, config, strategy)
    /// triples compiled).
    pub artifact_misses: u64,
    /// Simulations answered by an outcome another cell ran.
    pub sim_hits: u64,
    /// Simulations run: one per distinct (program, dual-ported, fuel)
    /// of each matrix, where every disk-loaded artifact is a program of
    /// its own.
    pub sim_misses: u64,
    /// Prepared-source entries dropped by LRU eviction (bounded caches
    /// only).
    pub prepared_evictions: u64,
    /// Compiled-artifact entries dropped by LRU eviction (bounded
    /// caches only).
    pub artifact_evictions: u64,
    /// Estimated bytes resident in the prepared layer.
    pub prepared_bytes: u64,
    /// Estimated bytes resident in the artifact layer.
    pub artifact_bytes: u64,
    /// Estimated bytes dropped from the prepared layer by eviction.
    pub prepared_evicted_bytes: u64,
    /// Estimated bytes dropped from the artifact layer by eviction.
    pub artifact_evicted_bytes: u64,
    /// Disk-tier counters; `None` when no disk store is configured.
    pub disk: Option<DiskStats>,
}

impl CacheStats {
    /// Total hits across all layers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.prepared_hits
            + self.profile_hits
            + self.reference_hits
            + self.artifact_hits
            + self.sim_hits
    }

    /// Total misses across all layers.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.prepared_misses
            + self.profile_misses
            + self.reference_misses
            + self.artifact_misses
            + self.sim_misses
    }

    /// Fraction of lookups served from cache, `0.0` when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Total LRU evictions across all layers.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.prepared_evictions + self.artifact_evictions
    }

    /// Estimated bytes resident across the bounded layers.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.prepared_bytes + self.artifact_bytes
    }

    /// Estimated bytes dropped by eviction across the bounded layers.
    #[must_use]
    pub fn evicted_bytes(&self) -> u64 {
        self.prepared_evicted_bytes + self.artifact_evicted_bytes
    }
}

/// Reference snapshot: final words of every global, by name.
pub type ReferenceGlobals = Vec<(String, Vec<Word>)>;

/// The simulation outcomes of one matrix, keyed on (linked program,
/// dual-ported, fuel). A program is known by its shared `Arc`, which
/// every cell whose compile reached the same bank assignment holds; the
/// memo keeps each program alive, so its address names it for as long
/// as the memo lives. An outcome is a pure function of its key, and a
/// fuel-exhausted one never answers a run with more fuel.
#[derive(Default)]
pub struct SimMemo {
    runs: Mutex<HashMap<(usize, bool, u64), RunEntry>>,
}

type RunEntry = (Arc<VliwProgram>, Arc<OnceLock<Arc<SimRun>>>);

impl SimMemo {
    /// The run of `program` under `options`: the one an earlier call
    /// ran, else this call's. Concurrent callers with one key block on
    /// a single run.
    fn run(&self, program: &Arc<VliwProgram>, options: SimOptions) -> (Arc<SimRun>, Lookup) {
        let key = (
            Arc::as_ptr(program) as usize,
            options.dual_ported,
            options.fuel,
        );
        let cell = Arc::clone(
            &self
                .runs
                .lock()
                .expect("sim memo mutex poisoned")
                .entry(key)
                .or_insert_with(|| (Arc::clone(program), Arc::default()))
                .1,
        );
        let filled = cell.get().is_some();
        let mut fresh = false;
        let run = cell.get_or_init(|| {
            fresh = true;
            Arc::new(simulate(program, options))
        });
        (Arc::clone(run), Lookup::of(fresh, filled))
    }
}

/// Strategy-independent work for one source: parsed IR, optimized IR,
/// lazily computed profile/reference runs, and the back end's
/// once-per-source products ([`SourceMemo`]).
pub struct PreparedSource {
    /// [`fnv1a`] of the source text.
    pub source_hash: u64,
    /// Front-end output (pre-optimization) — the reference
    /// interpreter's subject.
    pub ir: Program,
    /// Optimized IR — the subject of every per-strategy compilation.
    pub opt_ir: Program,
    /// Wall time of the front end.
    pub parse_time: Duration,
    /// Wall time of the optimization pipeline.
    pub opt_time: Duration,
    /// Per-pass breakdown of `opt_time`.
    pub opt_passes: Vec<PassTime>,
    /// The trial compaction, register assignments and compiled programs
    /// shared by every strategy of this source.
    pub memo: SourceMemo,
    profile: OnceLock<(Result<ExecStats, CompileError>, Duration)>,
    reference: OnceLock<(Result<ReferenceGlobals, InterpError>, Duration)>,
}

/// A fully compiled (source, config, strategy) artifact with its
/// per-stage wall times.
///
/// This is the cache's *durable* shape: exactly the fields a job needs
/// after compilation (the linked program, the report scalars, and the
/// back-half stage times), with the interference graph and allocation
/// trace of the in-flight [`Compiled`] distilled away. That keeps
/// resident entries small and makes the artifact serializable for the
/// disk tier (see [`crate::store`]).
pub struct CompiledArtifact {
    /// The linked, executable program, shared with the artifacts of the
    /// source's other strategies that reached the same bank assignment.
    pub program: Arc<VliwProgram>,
    /// Strategy this artifact was compiled under.
    pub strategy: Strategy,
    /// The partitioner's objective value (estimated serialized
    /// accesses).
    pub partition_cost: u64,
    /// Number of variables the allocator duplicated.
    pub duplicated_vars: usize,
    /// Data words occupied by duplicated variables (the second copy
    /// only), i.e. the memory the duplication strategies trade for
    /// cycles.
    pub duplicated_words: u64,
    /// Partitioner passes run while building this artifact.
    pub partition_passes: u64,
    /// Partitioner moves retained in the final bank assignment.
    pub partition_moves: u64,
    /// Back-half stage times recorded when this artifact was built:
    /// only the stages its compile ran (`opt`/`profile` are zero —
    /// those stages live in [`PreparedSource`]).
    pub timings: CompileTimings,
    /// Which shared products its compile computed, found or waited for.
    /// Not persisted; all `None` when loaded from a disk store.
    pub reuse: Reuse,
}

impl CompiledArtifact {
    /// Distill a fresh compile of `ir` into the durable artifact shape,
    /// computing the duplication footprint while the allocation is
    /// still at hand.
    #[must_use]
    pub fn new(output: Compiled, ir: &Program, timings: CompileTimings) -> CompiledArtifact {
        let duplicated_words = output
            .alloc
            .duplicated()
            .iter()
            .map(|v| match *v {
                Var::Global(g) => u64::from(ir.globals[g.0 as usize].size),
                Var::Local(f, l) => u64::from(ir.funcs[f.0 as usize].locals[l.0 as usize].size),
                // Array params alias caller storage; no copy of their own.
                Var::ParamSlot(..) => 0,
            })
            .sum();
        CompiledArtifact {
            program: output.program,
            strategy: output.strategy,
            partition_cost: output.alloc.partition_cost,
            duplicated_vars: output.alloc.duplicated().len(),
            duplicated_words,
            partition_passes: u64::from(output.alloc.partition_passes),
            partition_moves: output.alloc.partition_moves,
            timings,
            reuse: output.reuse,
        }
    }
}

type Slot<T> = Arc<OnceLock<T>>;

/// One map entry: the computation slot, its recency stamp, and its
/// estimated size (zero until the computation lands and records it).
struct Entry<T> {
    slot: Slot<T>,
    last_used: u64,
    bytes: u64,
}

impl<T> Default for Entry<T> {
    fn default() -> Entry<T> {
        Entry {
            slot: Arc::default(),
            last_used: 0,
            bytes: 0,
        }
    }
}

struct LayerInner<K, T> {
    map: HashMap<K, Entry<T>>,
    /// Monotonic access counter; the entry with the smallest stamp is
    /// the LRU victim.
    tick: u64,
    /// Sum of every entry's recorded `bytes`.
    bytes: u64,
}

/// One cache layer: a keyed map of [`OnceLock`] slots with optional
/// LRU bounding by entry count and/or estimated bytes.
struct Layer<K, T> {
    inner: Mutex<LayerInner<K, T>>,
    capacity: Option<NonZeroUsize>,
    max_bytes: Option<u64>,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl<K: Eq + Hash + Clone, T> Layer<K, T> {
    fn new(capacity: Option<NonZeroUsize>, max_bytes: Option<u64>) -> Layer<K, T> {
        Layer {
            inner: Mutex::new(LayerInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity,
            max_bytes,
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// Fetch-or-insert the [`OnceLock`] slot for `key`; the map lock is
    /// held only for the lookup (and a possible O(n²) eviction scan),
    /// never during computation.
    fn slot(&self, key: K) -> Slot<T> {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.entry(key).or_default();
        entry.last_used = tick;
        let slot = entry.slot.clone();
        self.enforce(&mut inner);
        slot
    }

    /// Record the estimated size of `key`'s computed value and re-apply
    /// the bounds. Recording counts as a touch, so the entry that just
    /// finished computing is not the immediate LRU victim.
    fn record_bytes(&self, key: &K, bytes: u64) {
        let mut inner = self.inner.lock().expect("cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.map.get_mut(key) else {
            // Evicted while computing; nothing resident to account.
            return;
        };
        let old = entry.bytes;
        entry.bytes = bytes;
        entry.last_used = tick;
        inner.bytes = inner.bytes - old + bytes;
        self.enforce(&mut inner);
    }

    /// Evict LRU entries until both bounds hold, but never below one
    /// entry — the just-touched key must survive its own insertion, and
    /// a single over-budget entry is better resident than thrashing.
    fn enforce(&self, inner: &mut LayerInner<K, T>) {
        loop {
            let over_count = self.capacity.is_some_and(|cap| inner.map.len() > cap.get());
            let over_bytes = self.max_bytes.is_some_and(|max| inner.bytes > max);
            if (!over_count && !over_bytes) || inner.map.len() <= 1 {
                return;
            }
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.bytes -= entry.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(entry.bytes, Ordering::Relaxed);
            }
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("cache mutex poisoned").map.len()
    }

    fn bytes(&self) -> u64 {
        self.inner.lock().expect("cache mutex poisoned").bytes
    }
}

fn count(fresh: bool, hits: &AtomicU64, misses: &AtomicU64) {
    if fresh {
        misses.fetch_add(1, Ordering::Relaxed);
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide artifact cache shared by all workers of an engine.
pub struct ArtifactCache {
    prepared: Layer<u64, Result<Arc<PreparedSource>, CompileError>>,
    artifacts: Layer<ArtifactKey, Result<Arc<CompiledArtifact>, CompileError>>,
    /// Optional disk tier under the artifact layer: consulted on an
    /// in-memory miss, written behind on a fresh compile. Every disk
    /// failure is absorbed by the store (counted, never propagated),
    /// so a broken disk degrades the cache to in-memory operation.
    store: Option<Arc<DiskStore>>,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    reference_hits: AtomicU64,
    reference_misses: AtomicU64,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::with_limits(None, None)
    }
}

impl ArtifactCache {
    /// An empty, unbounded cache (batch sweeps: every layer retained).
    #[must_use]
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// An empty cache holding at most `capacity` entries in each of the
    /// `prepared` and `artifact` layers, evicting least-recently-used
    /// entries beyond that (long-running servers: bounded memory).
    #[must_use]
    pub fn bounded(capacity: NonZeroUsize) -> ArtifactCache {
        ArtifactCache::with_limits(Some(capacity), None)
    }

    /// An empty cache bounded by entry count and/or estimated bytes,
    /// each applied per layer; `None` leaves that bound off.
    #[must_use]
    pub fn with_limits(capacity: Option<NonZeroUsize>, max_bytes: Option<u64>) -> ArtifactCache {
        ArtifactCache::with_store(capacity, max_bytes, None)
    }

    /// [`ArtifactCache::with_limits`] plus a disk tier under the
    /// artifact layer. An in-memory artifact miss first consults the
    /// store; a fresh compile is published to it. The store's failure
    /// handling is entirely internal: every IO error is counted in
    /// [`DiskStats`] and the cache continues in-memory.
    #[must_use]
    pub fn with_store(
        capacity: Option<NonZeroUsize>,
        max_bytes: Option<u64>,
        store: Option<Arc<DiskStore>>,
    ) -> ArtifactCache {
        ArtifactCache {
            prepared: Layer::new(capacity, max_bytes),
            artifacts: Layer::new(capacity, max_bytes),
            store,
            prepared_hits: AtomicU64::new(0),
            prepared_misses: AtomicU64::new(0),
            profile_hits: AtomicU64::new(0),
            profile_misses: AtomicU64::new(0),
            reference_hits: AtomicU64::new(0),
            reference_misses: AtomicU64::new(0),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            sim_hits: AtomicU64::new(0),
            sim_misses: AtomicU64::new(0),
        }
    }

    /// The disk tier, when one is configured.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Entries currently resident in the (prepared, artifact) layers.
    #[must_use]
    pub fn resident(&self) -> (usize, usize) {
        (self.prepared.len(), self.artifacts.len())
    }

    /// Estimated bytes resident in the (prepared, artifact) layers.
    #[must_use]
    pub fn resident_bytes(&self) -> (u64, u64) {
        (self.prepared.bytes(), self.artifacts.bytes())
    }

    /// Parse and optimize `source`, or return the cached result, with
    /// how this call got it.
    ///
    /// # Errors
    ///
    /// Returns the (cached) front-end error for unparsable sources.
    pub fn prepared(&self, source: &str) -> Result<(Arc<PreparedSource>, Lookup), CompileError> {
        let hash = fnv1a(source.as_bytes());
        let cell = self.prepared.slot(hash);
        let filled = cell.get().is_some();
        let mut fresh = false;
        let result = cell.get_or_init(|| {
            fresh = true;
            prepare(source, hash)
        });
        count(fresh, &self.prepared_hits, &self.prepared_misses);
        if fresh {
            self.prepared.record_bytes(&hash, prepared_bytes(result));
        }
        result.clone().map(|p| (p, Lookup::of(fresh, filled)))
    }

    /// The profiling run over `prep.opt_ir`, computed at most once per
    /// source, with how this call got it.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Profile`] if the profiling run traps.
    pub fn profile<'a>(
        &self,
        prep: &'a PreparedSource,
    ) -> Result<(&'a ExecStats, Duration, Lookup), CompileError> {
        let filled = prep.profile.get().is_some();
        let mut fresh = false;
        let (result, time) = prep.profile.get_or_init(|| {
            fresh = true;
            let start = Instant::now();
            (profile_ir(&prep.opt_ir), start.elapsed())
        });
        count(fresh, &self.profile_hits, &self.profile_misses);
        match result {
            Ok(stats) => Ok((stats, *time, Lookup::of(fresh, filled))),
            Err(e) => Err(e.clone()),
        }
    }

    /// The reference interpreter's final global values for `prep.ir`,
    /// computed at most once per source, with how this call got them.
    ///
    /// # Errors
    ///
    /// Returns the (cached) [`InterpError`] if the reference run traps.
    pub fn reference<'a>(
        &self,
        prep: &'a PreparedSource,
    ) -> Result<(&'a ReferenceGlobals, Duration, Lookup), InterpError> {
        let filled = prep.reference.get().is_some();
        let mut fresh = false;
        let (result, time) = prep.reference.get_or_init(|| {
            fresh = true;
            let start = Instant::now();
            (runner::reference_globals(&prep.ir), start.elapsed())
        });
        count(fresh, &self.reference_hits, &self.reference_misses);
        match result {
            Ok(globals) => Ok((globals, *time, Lookup::of(fresh, filled))),
            Err(e) => Err(e.clone()),
        }
    }

    /// Compile `prep.opt_ir` under `strategy`, or return the cached
    /// artifact. `profile` must be supplied for the profile-driven
    /// strategies (fetch it via [`ArtifactCache::profile`]).
    ///
    /// The first boolean is `true` when this call was served from the
    /// in-memory layer. The second reports the disk tier: `None` when
    /// no store is configured or the in-memory layer hit (disk not
    /// consulted), `Some(true)` when the artifact was rehydrated from
    /// disk, `Some(false)` when the disk was consulted, missed, and
    /// the artifact was compiled (then published back).
    ///
    /// # Errors
    ///
    /// Returns the (cached) back-end error.
    pub fn artifact(
        &self,
        prep: &PreparedSource,
        strategy: Strategy,
        config: CompileConfig,
        profile: Option<&ExecStats>,
    ) -> Result<(Arc<CompiledArtifact>, bool, Option<bool>), CompileError> {
        let key = ArtifactKey {
            source: prep.source_hash,
            config: config_key(config),
            strategy: strategy_index(strategy),
        };
        let cell = self.artifacts.slot(key);
        let mut fresh = false;
        let mut disk = None;
        let result = cell.get_or_init(|| {
            fresh = true;
            if let Some(store) = &self.store {
                if let Some(artifact) = store.load(&key) {
                    disk = Some(true);
                    return Ok(artifact);
                }
                disk = Some(false);
            }
            let compiled = compile_optimized(&prep.opt_ir, &prep.memo, strategy, config, profile)
                .map(|(output, timings)| {
                    Arc::new(CompiledArtifact::new(output, &prep.opt_ir, timings))
                });
            if let (Some(store), Ok(artifact)) = (&self.store, &compiled) {
                // Write-behind: failures are counted in the store and
                // never surface — errors (disk full, torn writes) only
                // cost future warm starts, not this job.
                store.publish(&key, artifact);
            }
            compiled
        });
        count(fresh, &self.artifact_hits, &self.artifact_misses);
        if fresh {
            self.artifacts.record_bytes(&key, artifact_bytes(result));
        }
        result.clone().map(|a| (a, !fresh, disk))
    }

    /// The simulation of `artifact`'s program with `fuel` cycles, on
    /// the memory its strategy runs on, with how this call got it: the
    /// outcome another cell of `sims`'s matrix ran, or this call's run.
    /// An artifact loaded from the disk store shares its program with
    /// no other cell, so its run is not kept.
    pub fn simulate(
        &self,
        sims: &SimMemo,
        artifact: &CompiledArtifact,
        fuel: u64,
    ) -> (Arc<SimRun>, Lookup) {
        let options = SimOptions {
            dual_ported: artifact.strategy.dual_ported(),
            fuel,
        };
        // Only a compile through the source's memo records a back end.
        let (run, lookup) = if artifact.reuse.backend.is_some() {
            sims.run(&artifact.program, options)
        } else {
            (Arc::new(simulate(&artifact.program, options)), Lookup::Miss)
        };
        count(lookup == Lookup::Miss, &self.sim_hits, &self.sim_misses);
        (run, lookup)
    }

    /// Snapshot the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            prepared_hits: self.prepared_hits.load(Ordering::Relaxed),
            prepared_misses: self.prepared_misses.load(Ordering::Relaxed),
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
            reference_hits: self.reference_hits.load(Ordering::Relaxed),
            reference_misses: self.reference_misses.load(Ordering::Relaxed),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            sim_hits: self.sim_hits.load(Ordering::Relaxed),
            sim_misses: self.sim_misses.load(Ordering::Relaxed),
            prepared_evictions: self.prepared.evictions.load(Ordering::Relaxed),
            artifact_evictions: self.artifacts.evictions.load(Ordering::Relaxed),
            prepared_bytes: self.prepared.bytes(),
            artifact_bytes: self.artifacts.bytes(),
            prepared_evicted_bytes: self.prepared.evicted_bytes.load(Ordering::Relaxed),
            artifact_evicted_bytes: self.artifacts.evicted_bytes.load(Ordering::Relaxed),
            disk: self.store.as_ref().map(|s| s.stats()),
        }
    }
}

/// Estimated heap footprint of an IR program: the dominant vectors
/// (ops, globals' init words) at fixed per-element costs; names and
/// small per-item vecs ride in the constants.
fn program_bytes(p: &Program) -> u64 {
    const OP_BYTES: u64 = 48;
    const GLOBAL_BYTES: u64 = 64;
    const FUNC_BYTES: u64 = 192;
    let ops: u64 = p.funcs.iter().map(|f| f.op_count() as u64).sum();
    let init: u64 = p.globals.iter().map(|g| g.init.len() as u64).sum();
    ops * OP_BYTES
        + init * std::mem::size_of::<Word>() as u64
        + p.globals.len() as u64 * GLOBAL_BYTES
        + p.funcs.len() as u64 * FUNC_BYTES
}

/// Cached errors occupy a nominal footprint: the message, not a program.
const ERROR_BYTES: u64 = 64;

fn prepared_bytes(entry: &Result<Arc<PreparedSource>, CompileError>) -> u64 {
    match entry {
        // Both IR copies; the lazily filled profile/reference slots are
        // small next to them and ride in the constant.
        Ok(p) => program_bytes(&p.ir) + program_bytes(&p.opt_ir) + 256,
        Err(_) => ERROR_BYTES,
    }
}

fn artifact_bytes(entry: &Result<Arc<CompiledArtifact>, CompileError>) -> u64 {
    match entry {
        Ok(a) => {
            // Per-symbol/function/label metadata at a fixed cost; the
            // instruction and data vectors dominate.
            const SYMBOL_BYTES: u64 = 96;
            let prog = &a.program;
            let insts = prog.insts.len() as u64 * std::mem::size_of::<VliwInst>() as u64;
            let data = (prog.x_image.init.len() + prog.y_image.init.len()) as u64
                * std::mem::size_of::<Word>() as u64;
            let meta = (prog.symbols.len() + prog.functions.len() + prog.labels.len()) as u64
                * SYMBOL_BYTES;
            insts + data + meta + 512
        }
        Err(_) => ERROR_BYTES,
    }
}

fn prepare(source: &str, hash: u64) -> Result<Arc<PreparedSource>, CompileError> {
    let parse_start = Instant::now();
    let ir = dsp_frontend::compile_str(source)?;
    let parse_time = parse_start.elapsed();
    let mut opt_ir = ir.clone();
    let opt_start = Instant::now();
    let opt_passes = dsp_backend::opt::optimize_timed(&mut opt_ir);
    let opt_time = opt_start.elapsed();
    Ok(Arc::new(PreparedSource {
        source_hash: hash,
        memo: SourceMemo::new(&opt_ir),
        ir,
        opt_ir,
        parse_time,
        opt_time,
        opt_passes,
        profile: OnceLock::new(),
        reference: OnceLock::new(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int out; void main() { out = 7; }";

    #[test]
    fn prepared_is_cached_by_content() {
        let cache = ArtifactCache::new();
        let (a, first) = cache.prepared(SRC).unwrap();
        let (b, second) = cache.prepared(SRC).unwrap();
        assert_eq!((first, second), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.prepared_misses, stats.prepared_hits), (1, 1));
    }

    #[test]
    fn reference_and_profile_lookups_report_miss_then_hit() {
        let cache = ArtifactCache::new();
        let (prep, _) = cache.prepared(SRC).unwrap();
        let (first, _, miss) = cache.reference(&prep).unwrap();
        let (second, _, hit) = cache.reference(&prep).unwrap();
        assert_eq!((miss, hit), (Lookup::Miss, Lookup::Hit));
        assert!(std::ptr::eq(first, second));
        assert_eq!((miss.label(), hit.label()), ("miss", "hit"));
        let (first, _, miss) = cache.profile(&prep).unwrap();
        let (second, _, hit) = cache.profile(&prep).unwrap();
        assert_eq!((miss, hit), (Lookup::Miss, Lookup::Hit));
        assert!(std::ptr::eq(first, second));
        let stats = cache.stats();
        assert_eq!((stats.profile_misses, stats.profile_hits), (1, 1));
    }

    #[test]
    fn artifact_key_separates_config_and_strategy() {
        let dup = CompileConfig {
            interrupt_safe_dup: true,
            ..CompileConfig::default()
        };
        let fm = CompileConfig {
            partitioner: dsp_backend::PartitionerKind::Fm,
            ..CompileConfig::default()
        };
        let k1 = ArtifactKey::new(SRC, CompileConfig::default(), Strategy::CbPartition);
        let k2 = ArtifactKey::new(SRC, dup, Strategy::CbPartition);
        let k3 = ArtifactKey::new(SRC, CompileConfig::default(), Strategy::Baseline);
        let k5 = ArtifactKey::new(SRC, fm, Strategy::CbPartition);
        assert_ne!(k1, k5, "partitioner is part of the cache key");
        assert_ne!(k2, k5, "partitioner and dup-safety bits do not collide");
        let k4 = ArtifactKey::new(
            "int out; void main() { out = 8; }",
            CompileConfig::default(),
            Strategy::CbPartition,
        );
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        assert_eq!(
            k1,
            ArtifactKey::new(SRC, CompileConfig::default(), Strategy::CbPartition)
        );
    }

    #[test]
    fn bounded_cache_evicts_lru_entries() {
        let cache = ArtifactCache::bounded(NonZeroUsize::new(2).unwrap());
        let src_b = "int out; void main() { out = 8; }";
        let src_c = "int out; void main() { out = 9; }";
        cache.prepared(SRC).unwrap(); // {A}
        cache.prepared(src_b).unwrap(); // {A, B}
        cache.prepared(SRC).unwrap(); // touch A: B is now LRU
        cache.prepared(src_c).unwrap(); // {A, C} — evicts B
        assert_eq!(cache.resident().0, 2);
        let (_, lookup) = cache.prepared(SRC).unwrap();
        assert_eq!(
            lookup,
            Lookup::Hit,
            "recently-used entry must survive eviction"
        );
        let (_, lookup) = cache.prepared(src_b).unwrap(); // recompute; evicts C
        assert_eq!(lookup, Lookup::Miss, "LRU entry must have been evicted");
        let stats = cache.stats();
        assert_eq!(stats.prepared_evictions, 2);
        assert_eq!(stats.evictions(), 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ArtifactCache::new();
        for i in 0..16 {
            cache
                .prepared(&format!("int out; void main() {{ out = {i}; }}"))
                .unwrap();
        }
        assert_eq!(cache.resident().0, 16);
        assert_eq!(cache.stats().evictions(), 0);
    }

    #[test]
    fn bounded_cache_evicts_artifacts_independently() {
        let cache = ArtifactCache::bounded(NonZeroUsize::new(1).unwrap());
        let (prep, _) = cache.prepared(SRC).unwrap();
        let cfg = CompileConfig::default();
        cache
            .artifact(&prep, Strategy::Baseline, cfg, None)
            .unwrap();
        cache
            .artifact(&prep, Strategy::CbPartition, cfg, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(cache.resident().1, 1);
        assert_eq!(stats.artifact_evictions, 1);
        // The prepared layer only ever held one entry — no evictions.
        assert_eq!(stats.prepared_evictions, 0);
    }

    #[test]
    fn byte_budget_evicts_down_to_one_entry() {
        // A 1-byte budget can never hold two entries; each new source
        // must push out the previous one, but the newest always stays.
        let cache = ArtifactCache::with_limits(None, Some(1));
        cache.prepared(SRC).unwrap();
        let (first_bytes, _) = cache.resident_bytes();
        assert!(first_bytes > 1, "estimate must exceed the tiny budget");
        assert_eq!(cache.stats().prepared_evictions, 0, "sole entry stays");

        cache.prepared("int out; void main() { out = 8; }").unwrap();
        let stats = cache.stats();
        assert_eq!(cache.resident().0, 1, "budget holds one entry at most");
        assert_eq!(stats.prepared_evictions, 1);
        assert_eq!(stats.prepared_evicted_bytes, first_bytes);
        let (_, lookup) = cache.prepared(SRC).unwrap();
        assert_eq!(lookup, Lookup::Miss, "evicted source must recompute");
    }

    #[test]
    fn byte_budget_bounds_artifacts_independently() {
        let cache = ArtifactCache::with_limits(None, Some(1));
        let (prep, _) = cache.prepared(SRC).unwrap();
        let cfg = CompileConfig::default();
        cache
            .artifact(&prep, Strategy::Baseline, cfg, None)
            .unwrap();
        cache
            .artifact(&prep, Strategy::CbPartition, cfg, None)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(cache.resident().1, 1);
        assert_eq!(stats.artifact_evictions, 1);
        assert!(stats.artifact_evicted_bytes > 0);
        assert!(stats.artifact_bytes > 0);
    }

    #[test]
    fn unbounded_cache_accounts_bytes_without_evicting() {
        let cache = ArtifactCache::new();
        cache.prepared(SRC).unwrap();
        let stats = cache.stats();
        assert!(stats.prepared_bytes > 0);
        assert_eq!(stats.evicted_bytes(), 0);
        assert_eq!(stats.resident_bytes(), stats.prepared_bytes);
    }

    #[test]
    fn front_end_errors_are_cached_too() {
        let cache = ArtifactCache::new();
        assert!(cache.prepared("not a program").is_err());
        assert!(cache.prepared("not a program").is_err());
        let stats = cache.stats();
        assert_eq!((stats.prepared_misses, stats.prepared_hits), (1, 1));
    }
}
