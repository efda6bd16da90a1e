//! Pinned expectations: what every correct sweep of the paper suite
//! must reproduce, exactly, on every run of every commit.

use dsp_driver::{CacheStats, RunReport};

/// FNV-1a of the suite's `RunReport::deterministic_json` (23
/// benchmarks × 7 strategies, default configuration).
pub const SUITE_DIGEST: u64 = 0x1151_19b9_8a0f_36ca;

/// Simulated cycles summed over the 161 cells of one suite sweep.
pub const SUITE_CYCLES: u64 = 4_105_010;

/// One sweep's artifact-cache traffic, layer by layer, as
/// `(hits, misses)`; `disk_hits` counts artifacts rehydrated from the
/// on-disk store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    /// Parse + optimize layer.
    pub prepared: (u64, u64),
    /// Profiling-run layer (two profile-driven strategies per source).
    pub profile: (u64, u64),
    /// Reference-interpreter layer (one lookup per verified cell).
    pub reference: (u64, u64),
    /// Compiled-artifact layer (in memory).
    pub artifact: (u64, u64),
    /// Artifacts loaded from disk.
    pub disk_hits: u64,
}

impl CacheCounts {
    /// The traffic between two snapshots of one cache.
    #[must_use]
    pub fn between(before: &CacheStats, after: &CacheStats) -> CacheCounts {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        CacheCounts {
            prepared: (
                d(before.prepared_hits, after.prepared_hits),
                d(before.prepared_misses, after.prepared_misses),
            ),
            profile: (
                d(before.profile_hits, after.profile_hits),
                d(before.profile_misses, after.profile_misses),
            ),
            reference: (
                d(before.reference_hits, after.reference_hits),
                d(before.reference_misses, after.reference_misses),
            ),
            artifact: (
                d(before.artifact_hits, after.artifact_hits),
                d(before.artifact_misses, after.artifact_misses),
            ),
            disk_hits: d(
                before.disk.map_or(0, |s| s.hits),
                after.disk.map_or(0, |s| s.hits),
            ),
        }
    }
}

/// A suite sweep on a fresh engine with an empty cache: every source
/// is prepared, profiled and run on the reference interpreter once,
/// every cell compiles.
pub const SUITE_COLD: CacheCounts = CacheCounts {
    prepared: (138, 23),
    profile: (23, 23),
    reference: (138, 23),
    artifact: (0, 161),
    disk_hits: 0,
};

/// A suite sweep on an engine that has swept the suite before: every
/// lookup hits memory.
pub const SUITE_WARM: CacheCounts = CacheCounts {
    prepared: (161, 0),
    profile: (46, 0),
    reference: (161, 0),
    artifact: (161, 0),
    disk_hits: 0,
};

/// A suite sweep on a fresh engine over a filled store: the front half
/// reruns, every artifact comes from disk instead of the back end.
pub const SUITE_DISK: CacheCounts = CacheCounts {
    disk_hits: 161,
    ..SUITE_COLD
};

/// Check one suite sweep against the pinned digest and cycle total.
///
/// # Errors
///
/// Names the first expectation the report misses.
pub fn check_suite(report: &RunReport) -> Result<(), String> {
    let cycles: u64 = report.jobs.iter().map(|j| j.measurement.cycles).sum();
    if cycles != SUITE_CYCLES {
        return Err(format!(
            "suite simulated {cycles} cycles, expected {SUITE_CYCLES}"
        ));
    }
    let digest = dsp_driver::fnv1a(report.deterministic_json().as_bytes());
    if digest != SUITE_DIGEST {
        return Err(format!(
            "suite projection digest {digest:016x}, expected {SUITE_DIGEST:016x}"
        ));
    }
    Ok(())
}
