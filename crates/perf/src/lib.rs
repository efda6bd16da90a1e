#![warn(missing_docs)]
//! `dsp-perf` — the repository benchmark.
//!
//! Six seeded workloads measure what users of this reproduction wait
//! for: researchers for the 23-benchmark × 7-strategy sweep (cold,
//! memory-warm, disk-warm, and on unseen generated programs), clients
//! for `/compile` and `/sweep`, direct or through `dsp-router`. Each
//! run checks every output against an expectation computed or pinned
//! independently of the timed path, prints every metric by name with
//! its unit, and ends with one JSON line (see [`metrics::RunResult`]).
//!
//! The benchmark reaches each layer only through its public entry
//! points — `Engine`, `ArtifactCache::stats`, `dsp_gen`, in-process
//! `Server::bind` / `Router::bind`, `ClientConn`, and the nodes'
//! `/metrics` and `/debug/trace` read back with `dsp_obs` — and adds no
//! instrumentation inside the program. An untraced run gives the
//! end-to-end metrics, its times scaled to a reference host speed (see
//! [`calib`]); a traced run gives the per-layer ones.
//!
//! All load comes from one process: at most [`LOAD_THREADS`] threads,
//! [`LOAD_THREADS`] connections, and executors of as many workers.

pub mod batch;
pub mod calib;
pub mod compare;
pub mod expect;
pub mod metrics;
pub mod schedule;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::{Path, PathBuf};
use std::time::Duration;

use metrics::RunResult;

/// Load threads, client connections, and executor workers per engine:
/// the host's 2 CPUs, fixed so results compare across hosts.
pub const LOAD_THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh engine per iteration, full 23×7 suite, verified.
    SuiteCold,
    /// One engine, every sweep served from the in-memory cache.
    SuiteWarm,
    /// Fresh engine per iteration over a filled on-disk store.
    SuiteDisk,
    /// Fresh engine per iteration over 40 unseen generated programs.
    GenCold,
    /// Open-loop `/compile` + `/sweep` stream against one `dsp-serve`.
    ServeDirect,
    /// The same stream through `dsp-router` over two replicas.
    ServeRouted,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 6] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::SuiteDisk,
        Workload::GenCold,
        Workload::ServeDirect,
        Workload::ServeRouted,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteWarm => "suite-warm",
            Workload::SuiteDisk => "suite-disk",
            Workload::GenCold => "gen-cold",
            Workload::ServeDirect => "serve-direct",
            Workload::ServeRouted => "serve-routed",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run this workload once in the current process.
    ///
    /// # Errors
    ///
    /// Fails when set-up fails (a server cannot bind, a warm-up output
    /// is wrong, a trace file cannot be written); wrong outputs during
    /// timed phases are counted in the result instead.
    pub fn run(self, opts: &Options) -> Result<RunResult, String> {
        match self {
            Workload::ServeDirect => serve::run(false, opts),
            Workload::ServeRouted => serve::run(true, opts),
            batch => batch::run(batch, opts),
        }
    }
}

/// How one workload run is shaped.
#[derive(Debug, Clone)]
pub struct Options {
    /// Drives generated programs, arrival schedules and request choice.
    pub seed: u64,
    /// Length of the measured phases.
    pub seconds: Duration,
    /// Run traced and report per-layer metrics.
    pub traced: bool,
    /// Directory for Perfetto files (traced runs only).
    pub trace_out: Option<PathBuf>,
    /// Scratch space (the disk-warm store); removed after the run.
    pub work_dir: PathBuf,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write `DIR/<workload>.trace.json` after checking that the Chrome
/// trace-event document `doc` passes the nesting check.
///
/// # Errors
///
/// Fails when the document does not nest or cannot be written.
pub fn write_trace(dir: &Path, workload: Workload, doc: &str) -> Result<(), String> {
    spans::check_nesting(doc).map_err(|e| format!("{} trace: {e}", workload.name()))?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

/// Milliseconds in a duration, as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer metric fed by one pipeline stage label (the engine's
/// `stage` histogram family and `dsp_serve_stage_seconds` share them;
/// `partition` carries its algorithm after a `|`).
#[must_use]
pub fn stage_metric(label: &str) -> Option<&'static str> {
    let stage = label.split('|').next().unwrap_or(label);
    Some(match stage {
        "parse" => "frontend.parse_ms",
        "opt" => "opt.ms",
        "trial_compaction" => "sched.trial_compaction_ms",
        "final_pack" => "sched.final_pack_ms",
        "partition" => "bankalloc.partition_ms",
        "regalloc" => "backend.regalloc_ms",
        "lower" => "backend.lower_ms",
        "link" => "backend.link_ms",
        "profile" => "ir.profile_ms",
        "reference" => "ir.reference_ms",
        "verify" => "ir.verify_ms",
        "simulate" => "sim.simulate_ms",
        _ => return None,
    })
}
