#![warn(missing_docs)]
//! Back-end of the dual-bank VLIW DSP compiler: optimizations, register
//! allocation, bank-aware code generation, final operation compaction,
//! and linking.
//!
//! The [`compile_ir`] / [`compile_source`] drivers reproduce the
//! compiler of the paper (Saghir, Chow & Lee, ASPLOS 1996): a front-end
//! produces unpacked machine operations, a **data allocation pass**
//! assigns every variable to one of the two data-memory banks (and
//! optionally duplicates some), and an **operation compaction pass**
//! packs operations into VLIW instructions using those assignments.
//! The [`Strategy`] enum selects the paper's configurations:
//!
//! | Strategy | Paper label | Meaning |
//! |---|---|---|
//! | [`Strategy::Baseline`] | "unoptimized" | all data in bank X, no partitioning |
//! | [`Strategy::CbPartition`] | `CB` | compaction-based partitioning, loop-depth weights |
//! | [`Strategy::ProfileWeighted`] | `Pr` | CB with profile-driven edge weights |
//! | [`Strategy::PartialDup`] | `Dup` | CB plus partial data duplication |
//! | [`Strategy::SelectiveDup`] | (§5 refinement) | duplicate only when profiled savings exceed cost |
//! | [`Strategy::FullDup`] | full duplication | every (global) variable duplicated |
//! | [`Strategy::Ideal`] | `Ideal` | dual-ported memory: either unit reaches either bank |
//!
//! # Example
//!
//! ```
//! use dsp_backend::{compile_source, Strategy};
//!
//! let out = compile_source(
//!     "float A[16]; float B[16]; float out;
//!      void main() {
//!          int i; float acc; acc = 0.0;
//!          for (i = 0; i < 16; i++) acc += A[i] * B[i];
//!          out = acc;
//!      }",
//!     Strategy::CbPartition,
//! )?;
//! assert!(out.program.validate(false).is_ok());
//! # Ok::<(), dsp_backend::CompileError>(())
//! ```

pub mod conv;
pub mod layout;
pub mod link;
pub mod lir;
pub mod lirgen;
pub mod memo;
pub mod opt;
pub mod regalloc;
pub mod schedule;

use std::sync::Arc;

pub use dsp_bankalloc::PartitionerKind;
use dsp_bankalloc::{AllocOptions, BankAllocation, DuplicationMode, WeightKind};
use dsp_ir::{ExecStats, FuncId, InterpError, Interpreter, Program};
use dsp_machine::VliwProgram;
pub use memo::{BackendKey, Lookup, Reuse, SourceMemo};

/// The compilation configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// All data in one bank; no memory parallelism (the paper's
    /// normalization base).
    Baseline,
    /// Compaction-based data partitioning (paper `CB`).
    CbPartition,
    /// CB partitioning with profile-driven edge weights (paper `Pr`).
    ProfileWeighted,
    /// CB partitioning plus partial data duplication (paper `Dup`).
    PartialDup,
    /// CB partitioning plus *selective* duplication: the paper's §5
    /// refinement, duplicating only candidates whose profiled cycle
    /// savings exceed their bookkeeping cost.
    SelectiveDup,
    /// Duplicate every (global) variable — the costly straw man of
    /// Table 3.
    FullDup,
    /// Dual-ported memory (paper `Ideal`): run the simulator with
    /// [`Strategy::dual_ported`] set.
    Ideal,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 7] = [
        Strategy::Baseline,
        Strategy::CbPartition,
        Strategy::ProfileWeighted,
        Strategy::PartialDup,
        Strategy::SelectiveDup,
        Strategy::FullDup,
        Strategy::Ideal,
    ];

    /// True if the produced program must run on a dual-ported memory
    /// (pass this to the simulator options).
    #[must_use]
    pub fn dual_ported(self) -> bool {
        matches!(self, Strategy::Ideal)
    }

    /// Short label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Baseline => "Base",
            Strategy::CbPartition => "CB",
            Strategy::ProfileWeighted => "Pr",
            Strategy::PartialDup => "Dup",
            Strategy::SelectiveDup => "SelDup",
            Strategy::FullDup => "FullDup",
            Strategy::Ideal => "Ideal",
        }
    }

    /// Parse a strategy name as accepted by every user-facing surface
    /// (CLI flags, serve request bodies): the paper label
    /// (case-insensitive) or its common aliases.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(name: &str) -> Result<Strategy, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "base" | "baseline" => Strategy::Baseline,
            "cb" => Strategy::CbPartition,
            "pr" | "profile" => Strategy::ProfileWeighted,
            "dup" | "partial" => Strategy::PartialDup,
            "seldup" | "selective" => Strategy::SelectiveDup,
            "fulldup" | "full" => Strategy::FullDup,
            "ideal" => Strategy::Ideal,
            other => {
                return Err(format!(
                "unknown strategy `{other}` (expected one of: base cb pr dup seldup fulldup ideal)"
            ))
            }
        })
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Everything the driver produces for one (program, strategy) pair.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The linked executable.
    pub program: VliwProgram,
    /// The data allocation that was applied.
    pub alloc: BankAllocation,
    /// The optimized IR the executable was generated from (useful for
    /// inspection and as the profiling subject).
    pub ir: Program,
    /// The strategy used.
    pub strategy: Strategy,
}

/// One strategy's compile through a [`SourceMemo`]
/// ([`compile_optimized`]).
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The linked executable, shared with every compile of the source
    /// that reached the same [`BackendKey`] while this one was held.
    pub program: Arc<VliwProgram>,
    /// The data allocation that was applied.
    pub alloc: BankAllocation,
    /// The strategy used.
    pub strategy: Strategy,
    /// Which strategy-independent products this compile computed.
    pub reuse: Reuse,
}

/// Compilation errors.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The program has no `main`.
    NoMain,
    /// Front-end failure (only from [`compile_source`]).
    Frontend(dsp_frontend::FrontendError),
    /// Code generation failure.
    LirGen(lirgen::LirGenError),
    /// The profiling run for [`Strategy::ProfileWeighted`] failed.
    Profile(InterpError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NoMain => write!(f, "program has no main function"),
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::LirGen(e) => write!(f, "{e}"),
            CompileError::Profile(e) => write!(f, "profiling run failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<dsp_frontend::FrontendError> for CompileError {
    fn from(e: dsp_frontend::FrontendError) -> CompileError {
        CompileError::Frontend(e)
    }
}

impl From<lirgen::LirGenError> for CompileError {
    fn from(e: lirgen::LirGenError) -> CompileError {
        CompileError::LirGen(e)
    }
}

/// Compile DSP-C source text.
///
/// # Errors
///
/// Returns a [`CompileError`] for front-end, allocation or code
/// generation failures.
pub fn compile_source(src: &str, strategy: Strategy) -> Result<CompileOutput, CompileError> {
    let program = dsp_frontend::compile_str(src)?;
    compile_ir(&program, strategy)
}

/// Driver-level configuration beyond the [`Strategy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileConfig {
    /// Emit duplicated-data stores atomically (both copies in one
    /// cycle) so interrupt handlers can never observe the copies out of
    /// sync — the hardware-free answer to the paper's
    /// store-lock/store-unlock discussion (§3.2).
    pub interrupt_safe_dup: bool,
    /// Bank-partitioning algorithm, orthogonal to the [`Strategy`] axis
    /// (every partitioning strategy runs it; `Baseline`/`Ideal` skip
    /// partitioning entirely).
    pub partitioner: PartitionerKind,
}

/// Compile an IR program.
///
/// # Errors
///
/// Returns a [`CompileError`] for allocation or code generation
/// failures, or if the program lacks `main`.
pub fn compile_ir(program: &Program, strategy: Strategy) -> Result<CompileOutput, CompileError> {
    compile_ir_with(program, strategy, CompileConfig::default())
}

/// [`compile_ir`] with an explicit [`CompileConfig`].
///
/// # Errors
///
/// Returns a [`CompileError`] for allocation or code generation
/// failures, or if the program lacks `main`.
pub fn compile_ir_with(
    program: &Program,
    strategy: Strategy,
    config: CompileConfig,
) -> Result<CompileOutput, CompileError> {
    compile_ir_timed(program, strategy, config).map(|(out, _)| out)
}

/// Per-stage wall times for one compilation, in pipeline order. The
/// shared-stage fields (`opt`, `profile`) are zero when the caller
/// supplied a pre-optimized IR or cached profile — `dsp-driver` reports
/// those stages once per source instead of once per strategy.
#[derive(Debug, Clone, Default)]
pub struct CompileTimings {
    /// Machine-independent optimization (whole pipeline).
    pub opt: std::time::Duration,
    /// Per-pass breakdown of `opt`, in first-run order.
    pub opt_passes: Vec<opt::PassTime>,
    /// Profiling interpreter run (Pr/SelDup only).
    pub profile: std::time::Duration,
    /// Trial compaction: the conflicts interference-graph construction
    /// starts from (zero when a [`SourceMemo`] already held them).
    pub trial_compaction: std::time::Duration,
    /// Weighting the trial's conflicts into the interference graph, and
    /// X/Y graph partitioning.
    pub partition: std::time::Duration,
    /// Register allocation, summed over the functions this compile
    /// allocated (a [`SourceMemo`] allocates each function once).
    pub regalloc: std::time::Duration,
    /// LIR lowering (instruction selection, frames), summed over
    /// functions.
    pub lower: std::time::Duration,
    /// Final operation compaction into VLIW instructions.
    pub final_pack: std::time::Duration,
    /// The parts of `final_pack`: dependences, priorities, compaction.
    /// Not persisted with an artifact; zero when it was loaded from a
    /// disk store.
    pub pack_parts: schedule::PackTimes,
    /// Linking and layout.
    pub link: std::time::Duration,
}

impl CompileTimings {
    /// Total wall time across all recorded stages.
    #[must_use]
    pub fn total(&self) -> std::time::Duration {
        self.opt
            + self.profile
            + self.trial_compaction
            + self.partition
            + self.regalloc
            + self.lower
            + self.final_pack
            + self.link
    }
}

/// Run the profiling interpreter over an (optimized) IR program,
/// producing the execution statistics that drive the `Pr` and `SelDup`
/// allocation strategies.
///
/// # Errors
///
/// Returns [`CompileError::Profile`] if the program traps.
pub fn profile_ir(ir: &Program) -> Result<ExecStats, CompileError> {
    let mut interp = Interpreter::new(ir);
    let (_, stats) = interp.run().map_err(CompileError::Profile)?;
    Ok(stats)
}

/// [`compile_ir_with`] reporting per-stage wall times.
///
/// # Errors
///
/// Returns a [`CompileError`] for allocation or code generation
/// failures, or if the program lacks `main`.
pub fn compile_ir_timed(
    program: &Program,
    strategy: Strategy,
    config: CompileConfig,
) -> Result<(CompileOutput, CompileTimings), CompileError> {
    if program.main.is_none() {
        return Err(CompileError::NoMain);
    }
    let mut ir = program.clone();
    let opt_start = std::time::Instant::now();
    let opt_passes = opt::optimize_timed(&mut ir);
    let mut timings = CompileTimings {
        opt: opt_start.elapsed(),
        opt_passes,
        ..CompileTimings::default()
    };
    let profile = match strategy {
        Strategy::ProfileWeighted | Strategy::SelectiveDup => {
            let profile_start = std::time::Instant::now();
            let stats = profile_ir(&ir)?;
            timings.profile = profile_start.elapsed();
            Some(stats)
        }
        _ => None,
    };
    let (out, back) = compile_optimized(
        &ir,
        &SourceMemo::new(&ir),
        strategy,
        config,
        profile.as_ref(),
    )?;
    timings.trial_compaction = back.trial_compaction;
    timings.partition = back.partition;
    timings.regalloc = back.regalloc;
    timings.lower = back.lower;
    timings.final_pack = back.final_pack;
    timings.pack_parts = back.pack_parts;
    timings.link = back.link;
    // The memo held the program only weakly: this is its one owner.
    let program = Arc::try_unwrap(out.program).unwrap_or_else(|p| (*p).clone());
    Ok((
        CompileOutput {
            program,
            alloc: out.alloc,
            ir,
            strategy,
        },
        timings,
    ))
}

/// Compile an **already optimized** IR program under one strategy.
///
/// This is the back half of [`compile_ir_timed`]: callers that sweep
/// several strategies over one program (notably `dsp-driver`) optimize
/// and profile once, then call this per strategy with one
/// [`SourceMemo`] for the program. The memo runs the trial compaction
/// and register allocation at most once and shares one back end among
/// strategies with equal [`BackendKey`]s; the results are
/// bit-identical to running [`compile_ir`] per strategy, because every
/// shared stage is deterministic and reads nothing that differs between
/// the strategies sharing it.
///
/// `memo` must have been made for `ir`. `profile` is required by
/// [`Strategy::ProfileWeighted`] and [`Strategy::SelectiveDup`] and is
/// computed on the fly (and timed) when absent; other strategies ignore
/// it. The returned timings hold only the stages this call ran.
///
/// # Errors
///
/// Returns a [`CompileError`] for allocation or code generation
/// failures, or if the program lacks `main`.
pub fn compile_optimized(
    ir: &Program,
    memo: &SourceMemo,
    strategy: Strategy,
    config: CompileConfig,
    profile: Option<&ExecStats>,
) -> Result<(Compiled, CompileTimings), CompileError> {
    if ir.main.is_none() {
        return Err(CompileError::NoMain);
    }
    let mut timings = CompileTimings::default();
    let mut reuse = Reuse::default();
    let local_profile;
    let profile = match strategy {
        Strategy::ProfileWeighted | Strategy::SelectiveDup => match profile {
            Some(stats) => Some(stats),
            None => {
                let profile_start = std::time::Instant::now();
                local_profile = profile_ir(ir)?;
                timings.profile = profile_start.elapsed();
                Some(&local_profile)
            }
        },
        _ => None,
    };

    let partitioning = match strategy {
        Strategy::Baseline | Strategy::Ideal => None,
        Strategy::CbPartition => Some((WeightKind::LoopDepth, DuplicationMode::None)),
        Strategy::ProfileWeighted => Some((WeightKind::Profile, DuplicationMode::None)),
        Strategy::PartialDup => Some((WeightKind::LoopDepth, DuplicationMode::Partial)),
        Strategy::SelectiveDup => Some((WeightKind::Profile, DuplicationMode::Selective)),
        Strategy::FullDup => Some((WeightKind::LoopDepth, DuplicationMode::Full)),
    };
    let alloc = match partitioning {
        None => BankAllocation::all_in_x(ir),
        Some((weights, duplication)) => {
            let (trial, time, lookup) = memo.trial(ir);
            if lookup == Lookup::Miss {
                timings.trial_compaction = time;
            }
            reuse.trial = Some(lookup);
            let options = AllocOptions {
                weights,
                duplication,
                partitioner: config.partitioner,
            };
            let alloc = BankAllocation::compute(ir, trial, &options, profile);
            timings.partition = alloc.timings.weighting + alloc.timings.partition;
            alloc
        }
    };

    let ideal = strategy.dual_ported();
    let key = BackendKey {
        assignment: alloc.assignment_key(),
        dual_ported: ideal,
        interrupt_safe_dup: config.interrupt_safe_dup,
    };
    let lir_opts = lirgen::LirGenOptions {
        interrupt_safe_dup: config.interrupt_safe_dup,
    };
    let (program, backend) = memo.program(key, || {
        back_end(ir, memo, &alloc, ideal, lir_opts, &mut timings, &mut reuse)
    })?;
    reuse.backend = Some(backend);
    Ok((
        Compiled {
            program,
            alloc,
            strategy,
            reuse,
        },
        timings,
    ))
}

/// Lower, compact and link every function of `ir` under `alloc`, taking
/// register assignments from `memo`.
fn back_end(
    ir: &Program,
    memo: &SourceMemo,
    alloc: &BankAllocation,
    ideal: bool,
    lir_opts: lirgen::LirGenOptions,
    timings: &mut CompileTimings,
    reuse: &mut Reuse,
) -> Result<VliwProgram, CompileError> {
    let data_layout = layout::DataLayout::compute(ir, alloc);
    let mut scratch = dsp_sched::Scratch::new();
    let mut linked_funcs = Vec::with_capacity(ir.funcs.len());
    for fi in 0..ir.funcs.len() {
        let func = FuncId(fi as u32);
        let (asn, regalloc, lookup) = memo.assignment(ir, func);
        reuse.regalloc = Some(reuse.regalloc.map_or(lookup, |r| r.merge(lookup)));
        if lookup == Lookup::Miss {
            timings.regalloc += regalloc;
        }
        let lower_start = std::time::Instant::now();
        let lir = lirgen::lower_function_with(ir, func, alloc, &data_layout, asn?, lir_opts)?;
        timings.lower += lower_start.elapsed();
        let pack_start = std::time::Instant::now();
        let blocks = lir
            .blocks
            .iter()
            .map(|ops| schedule::schedule_block(ops, ideal, &mut scratch, &mut timings.pack_parts))
            .collect();
        timings.final_pack += pack_start.elapsed();
        linked_funcs.push(link::LinkFunction {
            name: lir.name.clone(),
            blocks,
            entry: lir.entry,
        });
    }
    let link_start = std::time::Instant::now();
    let program = link::link(ir, linked_funcs, &data_layout);
    timings.link = link_start.elapsed();
    debug_assert_eq!(program.validate(ideal), Ok(()), "linker emitted bad code");
    Ok(program)
}
