//! What the compile-and-measure pipeline needs from a benchmark: the
//! reference snapshot, verification against it, and the metrics of one
//! run.
//!
//! [`reference_globals`] runs the reference interpreter once per
//! program; [`verify_sim`] compares every checked global of a simulated
//! run against that snapshot word for word; [`measure_program`]
//! assembles a [`Measurement`] with the paper's metrics: cycles and the
//! first-order memory cost `X + Y + 2·S + I` (§4.2), with `S` measured
//! as the stack high-water mark of the run. `dsp-driver`'s engine
//! strings these together for every (benchmark, strategy) cell.

use dsp_backend::{CompileError, Strategy};
use dsp_ir::{InterpError, Interpreter, Program};
use dsp_machine::{VliwProgram, Word};
use dsp_sim::{Outcome, SimError, SimStats};

use crate::Benchmark;

/// The result of measuring one (benchmark, strategy) pair.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Strategy used.
    pub strategy: Strategy,
    /// Cycles executed.
    pub cycles: u64,
    /// Memory cost in words: `X + Y + 2·S + I` with measured `S`.
    pub memory_cost: u64,
    /// Static data words in bank X / bank Y.
    pub static_words: (u32, u32),
    /// Measured stack high-water mark (the `S` term).
    pub stack_words: u32,
    /// Instruction-memory words (`I` term).
    pub inst_words: u32,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Number of variables the allocator duplicated.
    pub duplicated_vars: usize,
}

/// Errors from the harness.
#[derive(Debug)]
pub enum RunError {
    /// The benchmark source failed to compile.
    Compile(CompileError),
    /// The reference interpreter failed.
    Interp(InterpError),
    /// The simulator failed.
    Sim(SimError),
    /// A checked global differed from the interpreter.
    Mismatch {
        /// The offending global.
        global: String,
        /// Description of the first difference.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Interp(e) => write!(f, "interpreter error: {e}"),
            RunError::Sim(e) => write!(f, "simulator error: {e}"),
            RunError::Mismatch { global, detail } => {
                write!(f, "global `{global}` mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> RunError {
        RunError::Compile(e)
    }
}

impl From<InterpError> for RunError {
    fn from(e: InterpError) -> RunError {
        RunError::Interp(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

/// Parse and lower the benchmark source into IR.
///
/// # Errors
///
/// Returns [`RunError::Compile`] on front-end failure.
pub fn frontend(bench: &Benchmark) -> Result<Program, RunError> {
    dsp_frontend::compile_str(&bench.source)
        .map_err(|e| RunError::Compile(CompileError::Frontend(e)))
}

/// Run the reference interpreter over the benchmark's IR and return the
/// final words of every global, by name.
///
/// The result is strategy-independent, so callers that sweep several
/// strategies (notably `dsp-driver`) run this once per benchmark and
/// verify each compiled configuration against the same snapshot.
///
/// # Errors
///
/// Returns [`InterpError`] if the reference run traps (the only way
/// this can fail — kept narrow and `Clone` so `dsp-driver` can cache
/// the outcome).
pub fn reference_globals(ir: &Program) -> Result<Vec<(String, Vec<Word>)>, InterpError> {
    let mut interp = Interpreter::new(ir);
    interp.run()?;
    Ok(ir
        .globals
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            (
                g.name.clone(),
                interp.global_mem(dsp_ir::GlobalId(gi as u32)).to_vec(),
            )
        })
        .collect())
}

/// Verify the outcome of a simulated run against a reference snapshot
/// from [`reference_globals`]: every checked global must match word for
/// word, and duplicated copies must agree with their primaries.
///
/// # Errors
///
/// Returns [`RunError::Mismatch`] on the first difference.
pub fn verify_sim(
    bench: &Benchmark,
    strategy: Strategy,
    outcome: &Outcome,
    reference: &[(String, Vec<Word>)],
) -> Result<(), RunError> {
    for name in &bench.check_globals {
        let want = reference
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
            .ok_or_else(|| RunError::Mismatch {
                global: name.clone(),
                detail: "missing in interpreter".into(),
            })?;
        let symbol = outcome.symbol(name).ok_or_else(|| RunError::Mismatch {
            global: name.clone(),
            detail: "missing in simulator".into(),
        })?;
        let got = &symbol.words;
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            if w != g {
                return Err(RunError::Mismatch {
                    global: name.clone(),
                    detail: format!("[{strategy}] index {i}: interpreter {w:?}, simulator {g:?}"),
                });
            }
        }
        if let Some(copy) = &symbol.copy {
            if copy != got {
                return Err(RunError::Mismatch {
                    global: name.clone(),
                    detail: format!("[{strategy}] duplicated copies diverged"),
                });
            }
        }
    }
    Ok(())
}

/// Assemble a [`Measurement`] from a linked program, its strategy, its
/// duplicated-variable count and the statistics of its simulated run —
/// everything a measurement needs, so the driver measures compiled and
/// disk-rehydrated artifacts alike.
#[must_use]
pub fn measure_program(
    name: &str,
    program: &VliwProgram,
    strategy: Strategy,
    duplicated_vars: usize,
    stats: SimStats,
) -> Measurement {
    let stack = stats.max_stack_words();
    let memory_cost = u64::from(program.x_static_words)
        + u64::from(program.y_static_words)
        + 2 * u64::from(stack)
        + u64::from(program.inst_count());
    Measurement {
        name: name.to_string(),
        strategy,
        cycles: stats.cycles,
        memory_cost,
        static_words: (program.x_static_words, program.y_static_words),
        stack_words: stack,
        inst_words: program.inst_count(),
        stats,
        duplicated_vars,
    }
}
