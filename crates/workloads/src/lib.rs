#![warn(missing_docs)]
//! The benchmark suite of the paper: 12 DSP kernels (Table 1) and 11
//! DSP applications (Table 2), written in DSP-C with deterministic,
//! baked-in input data.
//!
//! Each [`Benchmark`] carries its source text and the list of globals
//! whose final contents define correctness. The [`runner`] module holds
//! what a measurement needs besides the compiler and the simulator: the
//! reference interpreter's snapshot of those globals, the word-for-word
//! verification of a simulated run against it, and the assembly of a
//! [`runner::Measurement`]. `dsp-driver`'s engine runs the pipeline.
//!
//! # Example
//!
//! ```
//! use dsp_workloads::{by_name, Kind};
//!
//! let lpc = by_name("lpc").expect("a paper benchmark");
//! assert_eq!(lpc.kind, Kind::Application);
//! assert!(!lpc.check_globals.is_empty());
//! ```

pub mod apps;
pub mod corpus;
pub mod data;
pub mod kernels;
pub mod runner;

use std::sync::OnceLock;

/// Kernel or full application (paper Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A signal-processing loop kernel.
    Kernel,
    /// A complete embedded application.
    Application,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::Kernel => write!(f, "kernel"),
            Kind::Application => write!(f, "application"),
        }
    }
}

/// One benchmark program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Benchmark {
    /// Name, matching the paper's tables (e.g. `fir_256_64`, `lpc`).
    pub name: String,
    /// Kernel or application.
    pub kind: Kind,
    /// One-line description (paper Table 1/2 wording).
    pub description: String,
    /// The DSP-C source text.
    pub source: String,
    /// Globals whose final values define the benchmark's correctness.
    pub check_globals: Vec<String>,
}

/// The suite, generated once per process on first use.
fn suite() -> &'static [Benchmark] {
    static SUITE: OnceLock<Vec<Benchmark>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let mut out = kernels::all();
        out.extend(apps::all());
        out
    })
}

/// All 23 benchmarks: the 12 kernels followed by the 11 applications,
/// in the order of Figures 7 and 8.
///
/// The suite's sources are generated once per process; each call
/// returns a clone of that table.
#[must_use]
pub fn all() -> Vec<Benchmark> {
    suite().to_vec()
}

/// Look up a benchmark by its paper name: a clone of that one entry of
/// the table [`all`] clones, so a lookup never regenerates the suite.
#[must_use]
pub fn by_name(name: &str) -> Option<Benchmark> {
    suite().iter().find(|b| b.name == name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete() {
        let suite = all();
        assert_eq!(suite.len(), 23);
        assert_eq!(suite.iter().filter(|b| b.kind == Kind::Kernel).count(), 12);
        assert_eq!(
            suite.iter().filter(|b| b.kind == Kind::Application).count(),
            11
        );
    }

    #[test]
    fn names_are_unique() {
        let suite = all();
        let mut names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("lpc").is_some());
        assert!(by_name("fft_1024").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn the_table_is_the_kernels_then_the_applications() {
        let mut generated = kernels::all();
        generated.extend(apps::all());
        assert_eq!(all(), generated);
    }

    #[test]
    fn every_name_looks_up_its_own_entry() {
        for bench in all() {
            assert_eq!(by_name(&bench.name).as_ref(), Some(&bench));
        }
        assert_eq!(by_name(""), None);
        assert_eq!(by_name("LPC"), None);
        assert_eq!(by_name("all"), None);
    }

    #[test]
    fn lookups_read_one_table() {
        assert!(std::ptr::eq(suite(), suite()));
        let first = suite().iter().find(|b| b.name == "lpc").expect("lpc");
        let second = suite().iter().find(|b| b.name == "lpc").expect("lpc");
        assert!(std::ptr::eq(first.source.as_ptr(), second.source.as_ptr()));
        // A caller's copy is its own: the table stays as generated.
        let mut copy = by_name("lpc").expect("lpc");
        copy.source.clear();
        assert_eq!(by_name("lpc").expect("lpc").source, first.source);
        assert!(!first.source.is_empty());
    }
}
