#![warn(missing_docs)]
//! `dsp-driver` — parallel batch compile-and-simulate engine.
//!
//! The paper's evaluation is a matrix: 23 benchmarks × 7 strategies,
//! each cell a compile + simulate + verify job. This crate submits
//! that matrix, one task per cell, to the shared [`dsp_exec`] work
//! queue (a private pool per engine by default, or a process-wide one
//! via [`Engine::with_executor`]), with three guarantees:
//!
//! 1. **Bit-identical results.** A parallel run produces exactly the
//!    measurements of a serial one, and both match the pinned fixture
//!    `tests/golden/sim_stats.txt` on every cell of the suite: jobs
//!    only share work at strategy-independent seams (parse, optimize,
//!    profile, reference run), and each of those stages is a
//!    deterministic function of the source.
//! 2. **Exactly-once work.** The [`cache::ArtifactCache`] keys every
//!    stage on the content hash of its inputs; concurrent workers
//!    asking for the same key block on one computation.
//! 3. **Telemetry.** Every job reports per-stage wall times (parse →
//!    … → simulate → verify) and counters (cycles, dual-memory cycles,
//!    bank conflicts, duplication footprint) in a [`RunReport`] that
//!    renders as JSON or as human tables.
//!
//! ```text
//!  benches × strategies          workers (std::thread)
//!  ┌───────────────────┐   ┌──────────────────────────────┐
//!  │ job queue (atomic │──▶│ prepare ─ profile ─ compile  │
//!  │  claim counter)   │   │    │         │        │      │
//!  └───────────────────┘   │    ▼         ▼        ▼      │
//!                          │  ArtifactCache (content-hash │
//!                          │   keyed, OnceLock slots)     │
//!                          │          │                   │
//!                          │          ▼                   │
//!                          │  simulate ─ verify           │
//!                          └──────────────┬───────────────┘
//!                                         ▼
//!                          RunReport (per-job slots, read
//!                          back in matrix order → JSON/table)
//! ```
//!
//! # Example
//!
//! ```
//! use dsp_backend::Strategy;
//! use dsp_driver::{Engine, EngineOptions};
//!
//! let engine = Engine::new(EngineOptions { jobs: 2, ..EngineOptions::default() });
//! let bench = dsp_workloads::kernels::fir(8, 4);
//! let report = engine.run_matrix(&[bench], &Strategy::ALL)?;
//! assert_eq!(report.jobs.len(), 7);
//! assert!(report.to_json().contains("dualbank-run-report/v1"));
//! # Ok::<(), dsp_driver::EngineError>(())
//! ```

pub mod cache;
pub mod engine;
pub mod json;
pub mod report;
pub mod store;

pub use cache::{ArtifactCache, ArtifactKey, CacheStats, CompiledArtifact, Lookup, SimMemo};
pub use engine::{
    parse_byte_budget, parse_cache_dir, parse_entry_budget, parse_queue_capacity,
    parse_worker_count, Engine, EngineError, EngineOptions, MatrixRun,
};
pub use report::{
    project_deterministic_json, sweep_json_prefix, sweep_json_tail, verify_job_digest,
    verify_report_digests, with_job_digest, CacheFlags, JobReport, RunReport, StageTimes,
};
pub use store::{
    DiskStats, DiskStore, DiskSweep, FaultIo, FaultKind, FaultOp, FaultPlan, StdIo, StoreIo,
};
// The shared scheduler's vocabulary, re-exported so engine callers
// need not depend on `dsp-exec` directly.
pub use dsp_exec::{CancelToken, Executor, ExecutorStats, JobHandle, Priority, WaitOutcome};
// Likewise the tracing vocabulary: engine callers parent their spans
// and read back histograms through these.
pub use dsp_trace::{fnv1a, SpanCtx, Tracer};
