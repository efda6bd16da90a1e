#![warn(missing_docs)]
//! **dualbank** — a reproduction of *Exploiting Dual Data-Memory Banks
//! in Digital Signal Processors* (Saghir, Chow & Lee, ASPLOS 1996).
//!
//! The paper's DSPs double memory bandwidth with two high-order
//! interleaved data banks (X and Y); this workspace rebuilds the whole
//! system the paper evaluates:
//!
//! * [`frontend`] — a C-subset (**DSP-C**) front-end;
//! * [`ir`] — the compiler IR, analyses, and reference interpreter;
//! * [`sched`] — the list-scheduling operation-compaction engine;
//! * [`bankalloc`] — **the paper's contribution**: compaction-based
//!   data partitioning and partial data duplication;
//! * [`backend`] — optimizations, register allocation, bank-aware code
//!   generation, and linking for the 9-unit VLIW model DSP;
//! * [`sim`] — the cycle-counting instruction-set simulator;
//! * [`workloads`] — the paper's 12 kernel and 11 application
//!   benchmarks, rewritten in DSP-C;
//! * [`driver`] — the parallel batch engine that fans the
//!   strategy×workload matrix over worker threads with a content-hashed
//!   artifact cache and per-stage telemetry.
//!
//! # Quickstart
//!
//! ```
//! use dualbank::{run_source, Strategy};
//!
//! let src = "
//!     float A[64]; float B[64]; float out;
//!     void main() {
//!         int i; float acc; acc = 0.0;
//!         for (i = 0; i < 64; i++) acc += A[i] * B[i];
//!         out = acc;
//!     }";
//! let base = run_source(src, Strategy::Baseline)?;
//! let cb = run_source(src, Strategy::CbPartition)?;
//! assert!(cb.cycles < base.cycles, "partitioning pairs the A/B loads");
//! # Ok::<(), dualbank::RunSourceError>(())
//! ```

pub use dsp_backend as backend;
pub use dsp_bankalloc as bankalloc;
pub use dsp_driver as driver;
pub use dsp_frontend as frontend;
pub use dsp_gen as gen;
pub use dsp_ir as ir;
pub use dsp_machine as machine;
pub use dsp_sched as sched;
pub use dsp_sim as sim;
pub use dsp_workloads as workloads;

pub use dsp_backend::{compile_source, CompileError, CompileOutput, Strategy};
pub use dsp_machine::{Bank, VliwProgram, Word};
pub use dsp_sim::{SimOptions, SimStats, Simulator};

/// The result of compiling and executing a DSP-C program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cycles executed (one VLIW instruction per cycle).
    pub cycles: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// The linked program (symbols, disassembly, memory cost terms).
    pub program: VliwProgram,
    /// Final contents of every global, by name.
    pub globals: Vec<(String, Vec<Word>)>,
}

impl RunResult {
    /// Final contents of a global, by name.
    #[must_use]
    pub fn global(&self, name: &str) -> Option<&[Word]> {
        self.globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
    }

    /// The paper's first-order memory cost `X + Y + 2·S + I`, with `S`
    /// measured from the run's stack high-water mark.
    #[must_use]
    pub fn memory_cost(&self) -> u64 {
        u64::from(self.program.x_static_words)
            + u64::from(self.program.y_static_words)
            + 2 * u64::from(self.stats.max_stack_words())
            + u64::from(self.program.inst_count())
    }
}

/// Errors from [`run_source`].
#[derive(Debug)]
pub enum RunSourceError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(dsp_sim::SimError),
}

impl std::fmt::Display for RunSourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSourceError::Compile(e) => write!(f, "{e}"),
            RunSourceError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunSourceError {}

impl From<CompileError> for RunSourceError {
    fn from(e: CompileError) -> RunSourceError {
        RunSourceError::Compile(e)
    }
}

impl From<dsp_sim::SimError> for RunSourceError {
    fn from(e: dsp_sim::SimError) -> RunSourceError {
        RunSourceError::Sim(e)
    }
}

/// Compile DSP-C under a strategy and execute it on the simulator.
///
/// # Errors
///
/// Returns [`RunSourceError`] on compilation or simulation failure.
pub fn run_source(src: &str, strategy: Strategy) -> Result<RunResult, RunSourceError> {
    let out = compile_source(src, strategy)?;
    let options = SimOptions {
        dual_ported: strategy.dual_ported(),
        ..SimOptions::default()
    };
    let outcome = dsp_sim::simulate(&out.program, options).outcome?;
    Ok(RunResult {
        cycles: outcome.stats.cycles,
        stats: outcome.stats,
        program: out.program,
        globals: outcome
            .symbols
            .into_iter()
            .map(|s| (s.name, s.words))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_source_round_trip() {
        let r = run_source(
            "int out; void main() { int i; out = 0; for (i = 1; i <= 10; i++) out += i; }",
            Strategy::CbPartition,
        )
        .expect("runs");
        assert_eq!(r.global("out").unwrap()[0].as_i32(), 55);
        assert!(r.cycles > 0);
        assert!(r.memory_cost() > 0);
    }
}
