#![warn(missing_docs)]
//! Compaction-based data partitioning and partial data duplication —
//! the primary contribution of Saghir, Chow & Lee, *Exploiting Dual
//! Data-Memory Banks in Digital Signal Processors* (ASPLOS 1996).
//!
//! The crate implements the paper's data-allocation pass:
//!
//! 1. [`vars::AliasClasses`] groups variables that an array parameter
//!    may alias, so each class is allocated as a unit;
//! 2. [`builder::trial_conflicts`] runs a *trial compaction* of every
//!    basic block (all data pinned to one bank) and records every pair
//!    of memory operations that were data-compatible but fought over the
//!    single memory unit; it does not depend on the configuration, so a
//!    caller compiling several configurations runs it once.
//!    [`builder::weigh_conflicts`] turns those pairs into weighted edges
//!    of an [`graph::InterferenceGraph`] between the variables accessed
//!    — and marks variables accessed twice in one candidate instruction
//!    for duplication;
//! 3. [`partition::greedy_partition`] splits the nodes across the X and
//!    Y banks, minimizing the weight of unsatisfied edges;
//! 4. [`BankAllocation`] packages the result for the back-end, including
//!    the duplication set of the *partial data duplication* technique
//!    and the [`cost`] metrics of the paper's Table 3.
//!
//! # Example
//!
//! ```
//! use dsp_bankalloc::{trial_conflicts, AllocOptions, BankAllocation};
//!
//! let program = dsp_frontend::compile_str(
//!     "float A[64]; float B[64]; float out;
//!      void main() {
//!          int i; float acc; acc = 0.0;
//!          for (i = 0; i < 64; i++) acc += A[i] * B[i];
//!          out = acc;
//!      }",
//! )?;
//! let trial = trial_conflicts(&program);
//! let alloc = BankAllocation::compute(&program, &trial, &AllocOptions::default(), None);
//! // The FIR pattern forces A and B into different banks.
//! let a = program.global_by_name("A").unwrap();
//! let b = program.global_by_name("B").unwrap();
//! assert_ne!(alloc.bank_of_global(a), alloc.bank_of_global(b));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod builder;
pub mod cost;
pub mod gain;
pub mod graph;
pub mod partition;
pub mod vars;

use std::collections::{BTreeMap, BTreeSet};

pub use builder::{
    build_interference, trial_conflicts, weigh_conflicts, BuildResult, DupStats, TrialConflicts,
    WeightMode,
};
pub use cost::TradeOff;
pub use gain::GainBuckets;
pub use graph::InterferenceGraph;
pub use partition::{
    exhaustive_partition, fm_partition, greedy_partition, naive_greedy_partition, partition_cost,
    Partition, Partitioner,
};
pub use vars::{AliasClasses, Var};

use dsp_ir::ops::MemBase;
use dsp_ir::{ExecStats, FuncId, GlobalId, Program};
use dsp_machine::Bank;

/// How interference-edge weights are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightKind {
    /// Loop nesting depth (the paper's default heuristic).
    #[default]
    LoopDepth,
    /// Profile-driven block execution counts (`Pr` in the paper). The
    /// caller must pass [`ExecStats`] to [`BankAllocation::compute`].
    Profile,
    /// Unit weights (ablation).
    Uniform,
}

/// Which duplication policy to apply (paper §3.2, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicationMode {
    /// No duplication: partitioning only.
    #[default]
    None,
    /// Duplicate exactly the variables the trial compaction marked
    /// (simultaneous accesses to the same array).
    Partial,
    /// Duplicate every variable (the straw-man policy of Table 3).
    Full,
    /// The paper's §5 refinement: duplicate a marked variable only when
    /// its estimated cycle savings exceed the estimated bookkeeping
    /// cost ([`builder::DupStats::worthwhile`]). Most selective with
    /// profile data; falls back to loop-depth statics otherwise.
    Selective,
}

/// Which partitioning algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionerKind {
    /// The paper's one-directional greedy (Figure 5).
    #[default]
    Greedy,
    /// Fiduccia–Mattheyses passes (lock-and-pass, best-prefix rollback).
    Fm,
    /// Exhaustive minimum (graphs of ≤ 24 nodes only; test oracle).
    Exhaustive,
}

impl PartitionerKind {
    /// Short machine-readable name, matching
    /// [`Partitioner::name`] — used in CLI flags, request bodies,
    /// reports, and metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        self.as_partitioner().name()
    }

    /// Parse a [`PartitionerKind::label`]. Only the production
    /// algorithms parse; the exhaustive oracle is deliberately not
    /// reachable from user input.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<PartitionerKind, String> {
        match s {
            "greedy" => Ok(PartitionerKind::Greedy),
            "fm" => Ok(PartitionerKind::Fm),
            other => Err(format!(
                "unknown partitioner '{other}' (expected greedy or fm)"
            )),
        }
    }

    /// Stable small integer for cache keys (covers the oracle too). The
    /// values never move, so stored keys stay valid; `1` belonged to a
    /// retired algorithm and is not reused.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            PartitionerKind::Greedy => 0,
            PartitionerKind::Fm => 2,
            PartitionerKind::Exhaustive => 3,
        }
    }

    /// The algorithm behind the [`Partitioner`] trait.
    #[must_use]
    pub fn as_partitioner(self) -> &'static dyn Partitioner {
        match self {
            PartitionerKind::Greedy => &partition::Greedy,
            PartitionerKind::Fm => &partition::Fm,
            PartitionerKind::Exhaustive => &partition::Oracle,
        }
    }
}

/// Options for the data-allocation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocOptions {
    /// Edge-weight heuristic.
    pub weights: WeightKind,
    /// Duplication policy.
    pub duplication: DuplicationMode,
    /// Partitioning algorithm.
    pub partitioner: PartitionerKind,
}

/// Wall times of the per-configuration phases of the data-allocation
/// pass, for the pipeline telemetry of `dsp-driver` (the trial
/// compaction is timed by whoever runs [`trial_conflicts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocTimings {
    /// Weighting: the trial's conflicts turned into the interference
    /// graph ([`weigh_conflicts`]).
    pub weighting: std::time::Duration,
    /// Graph partitioning across the X/Y banks (phase 3).
    pub partition: std::time::Duration,
}

/// The result of the data-allocation pass: a bank for every variable
/// (alias class) plus the set of duplicated variables.
#[derive(Debug, Clone)]
pub struct BankAllocation {
    alias: AliasClasses,
    class_bank: BTreeMap<Var, Bank>,
    duplicated: BTreeSet<Var>,
    /// The interference graph the partition was computed from.
    pub graph: InterferenceGraph,
    /// Total weight of edges the partition could not satisfy.
    pub partition_cost: u64,
    /// The greedy trace (empty for non-greedy partitioners).
    pub trace: Vec<partition::Move>,
    /// Partitioner passes run (see [`Partition::passes`]).
    pub partition_passes: u32,
    /// Partitioner moves retained (see [`Partition::moves`]).
    pub partition_moves: u64,
    /// Wall times of the pass's phases.
    pub timings: AllocTimings,
}

impl BankAllocation {
    /// Run the data-allocation pass over the conflicts of one trial
    /// compaction of `program` (from [`trial_conflicts`]).
    ///
    /// `profile` must be `Some` when `options.weights` is
    /// [`WeightKind::Profile`]; it is ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if profile weights are requested without profile data.
    #[must_use]
    pub fn compute(
        program: &Program,
        trial: &TrialConflicts,
        options: &AllocOptions,
        profile: Option<&ExecStats>,
    ) -> BankAllocation {
        let alias = AliasClasses::build(program);
        let mode = match options.weights {
            WeightKind::LoopDepth => WeightMode::LoopDepth,
            WeightKind::Uniform => WeightMode::Uniform,
            WeightKind::Profile => {
                WeightMode::Profile(profile.expect("profile weights need ExecStats"))
            }
        };
        let weigh_start = std::time::Instant::now();
        let BuildResult {
            mut graph,
            dup_candidates,
            dup_stats,
        } = weigh_conflicts(program, &alias, trial, mode);
        let weighting = weigh_start.elapsed();

        // Only classes made entirely of globals (and parameter slots)
        // can be duplicated: both copies of a global live at the same
        // address in their respective banks, so one base address serves
        // either copy. A stack-resident array has bank-specific
        // addresses, which a single passed-by-reference base cannot
        // describe — such classes stay partitioned.
        let duplicable = |v: &Var| {
            alias
                .members(*v)
                .iter()
                .all(|m| matches!(m, Var::Global(_) | Var::ParamSlot(..)))
        };
        let duplicated: BTreeSet<Var> = match options.duplication {
            DuplicationMode::None => BTreeSet::new(),
            DuplicationMode::Partial => dup_candidates.into_iter().filter(duplicable).collect(),
            DuplicationMode::Selective => dup_candidates
                .into_iter()
                .filter(duplicable)
                .filter(|v| dup_stats.get(v).is_some_and(builder::DupStats::worthwhile))
                .collect(),
            DuplicationMode::Full => graph
                .active_nodes()
                .into_iter()
                .filter(duplicable)
                .collect(),
        };
        // A duplicated variable has a copy in each bank: every edge it
        // touches is satisfied, so it leaves the partitioning problem.
        for v in &duplicated {
            graph.remove_node(*v);
        }
        let partition_start = std::time::Instant::now();
        let part = options.partitioner.as_partitioner().partition(&graph);
        let partition = partition_start.elapsed();
        let mut class_bank = part.bank.clone();
        // Duplicated variables live in both banks; their home is X.
        for v in &duplicated {
            class_bank.insert(*v, Bank::X);
        }
        BankAllocation {
            alias,
            class_bank,
            duplicated,
            graph,
            partition_cost: part.cost,
            trace: part.trace,
            partition_passes: part.passes,
            partition_moves: part.moves,
            timings: AllocTimings {
                weighting,
                partition,
            },
        }
    }

    /// The baseline allocation: every variable in bank X, nothing
    /// duplicated (the paper's unoptimized configuration).
    #[must_use]
    pub fn all_in_x(program: &Program) -> BankAllocation {
        let alias = AliasClasses::build(program);
        let class_bank = alias.classes().into_iter().map(|c| (c, Bank::X)).collect();
        BankAllocation {
            alias,
            class_bank,
            duplicated: BTreeSet::new(),
            graph: InterferenceGraph::new(),
            partition_cost: 0,
            trace: Vec::new(),
            partition_passes: 0,
            partition_moves: 0,
            timings: AllocTimings::default(),
        }
    }

    /// The alias classes underlying this allocation.
    #[must_use]
    pub fn alias(&self) -> &AliasClasses {
        &self.alias
    }

    /// Bank of the object `base` refers to inside `func` (the home bank
    /// for duplicated variables).
    #[must_use]
    pub fn bank_of_base(&self, func: FuncId, base: MemBase) -> Bank {
        let class = self.alias.class_of_base(func, base);
        self.class_bank.get(&class).copied().unwrap_or(Bank::X)
    }

    /// Bank of a global (home bank if duplicated).
    #[must_use]
    pub fn bank_of_global(&self, g: GlobalId) -> Bank {
        let class = self.alias.class_of(Var::Global(g));
        self.class_bank.get(&class).copied().unwrap_or(Bank::X)
    }

    /// True if the object `base` refers to inside `func` is duplicated
    /// in both banks.
    #[must_use]
    pub fn is_duplicated_base(&self, func: FuncId, base: MemBase) -> bool {
        let class = self.alias.class_of_base(func, base);
        self.duplicated.contains(&class)
    }

    /// True if the global is duplicated.
    #[must_use]
    pub fn is_duplicated_global(&self, g: GlobalId) -> bool {
        let class = self.alias.class_of(Var::Global(g));
        self.duplicated.contains(&class)
    }

    /// The duplicated alias classes.
    #[must_use]
    pub fn duplicated(&self) -> &BTreeSet<Var> {
        &self.duplicated
    }

    /// Everything code generation reads of this allocation beyond the
    /// alias classes: per class, in [`AliasClasses::classes`] order, `0`
    /// for bank X, `1` for bank Y, `2` for duplicated. Two allocations of
    /// one program with equal keys produce the same code.
    #[must_use]
    pub fn assignment_key(&self) -> Vec<u8> {
        self.alias
            .classes()
            .into_iter()
            .map(|c| {
                if self.duplicated.contains(&c) {
                    2
                } else {
                    match self.class_bank.get(&c).copied().unwrap_or(Bank::X) {
                        Bank::X => 0,
                        Bank::Y => 1,
                    }
                }
            })
            .collect()
    }

    /// Number of variables assigned to each bank `(x, y)`, counting
    /// duplicated variables in both.
    #[must_use]
    pub fn bank_counts(&self) -> (usize, usize) {
        let mut x = 0;
        let mut y = 0;
        for (v, b) in &self.class_bank {
            if self.duplicated.contains(v) {
                x += 1;
                y += 1;
            } else {
                match b {
                    Bank::X => x += 1,
                    Bank::Y => y += 1,
                }
            }
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_frontend::compile_str;

    fn fir_src() -> &'static str {
        "float A[64]; float B[64]; float out;
         void main() {
             int i; float acc; acc = 0.0;
             for (i = 0; i < 64; i++) acc += A[i] * B[i];
             out = acc;
         }"
    }

    #[test]
    fn fir_arrays_split_across_banks() {
        let p = compile_str(fir_src()).unwrap();
        let alloc =
            BankAllocation::compute(&p, &trial_conflicts(&p), &AllocOptions::default(), None);
        let a = p.global_by_name("A").unwrap();
        let b = p.global_by_name("B").unwrap();
        assert_ne!(alloc.bank_of_global(a), alloc.bank_of_global(b));
        assert_eq!(alloc.partition_cost, 0);
    }

    #[test]
    fn baseline_puts_everything_in_x() {
        let p = compile_str(fir_src()).unwrap();
        let alloc = BankAllocation::all_in_x(&p);
        for (i, _) in p.globals.iter().enumerate() {
            assert_eq!(alloc.bank_of_global(GlobalId(i as u32)), Bank::X);
        }
        assert!(alloc.duplicated().is_empty());
    }

    #[test]
    fn partial_duplication_marks_same_array_pairs() {
        let src = "float s[16]; float R[8];
                   void main() {
                     int n;
                     for (n = 0; n < 8; n++) R[n] += s[n] * s[n + 3];
                   }";
        let p = compile_str(src).unwrap();
        let opts = AllocOptions {
            duplication: DuplicationMode::Partial,
            ..AllocOptions::default()
        };
        let alloc = BankAllocation::compute(&p, &trial_conflicts(&p), &opts, None);
        let s = p.global_by_name("s").unwrap();
        assert!(alloc.is_duplicated_global(s));
        // R is not duplicated; it is partitioned normally.
        let r = p.global_by_name("R").unwrap();
        assert!(!alloc.is_duplicated_global(r));
        // With s in both banks, its edges vanish from the graph.
        assert_eq!(alloc.partition_cost, 0);
    }

    #[test]
    fn no_duplication_without_request() {
        let src = "float s[16]; float R[8];
                   void main() {
                     int n;
                     for (n = 0; n < 8; n++) R[n] += s[n] * s[n + 3];
                   }";
        let p = compile_str(src).unwrap();
        let alloc =
            BankAllocation::compute(&p, &trial_conflicts(&p), &AllocOptions::default(), None);
        assert!(alloc.duplicated().is_empty());
    }

    #[test]
    fn full_duplication_duplicates_everything() {
        let p = compile_str(fir_src()).unwrap();
        let opts = AllocOptions {
            duplication: DuplicationMode::Full,
            ..AllocOptions::default()
        };
        let alloc = BankAllocation::compute(&p, &trial_conflicts(&p), &opts, None);
        for name in ["A", "B", "out"] {
            let g = p.global_by_name(name).unwrap();
            assert!(alloc.is_duplicated_global(g), "{name} should be duplicated");
        }
        let (x, y) = alloc.bank_counts();
        assert_eq!(x, y);
    }

    #[test]
    fn profile_weights_require_stats() {
        let p = compile_str(fir_src()).unwrap();
        let mut interp = dsp_ir::Interpreter::new(&p);
        let (_, stats) = interp.run().unwrap();
        let opts = AllocOptions {
            weights: WeightKind::Profile,
            ..AllocOptions::default()
        };
        let alloc = BankAllocation::compute(&p, &trial_conflicts(&p), &opts, Some(&stats));
        let a = p.global_by_name("A").unwrap();
        let b = p.global_by_name("B").unwrap();
        assert_ne!(alloc.bank_of_global(a), alloc.bank_of_global(b));
    }

    #[test]
    fn aliased_params_share_bank() {
        let src = "float A[8]; float B[8]; float C[8]; float out;
                   float dot(float u[], float v[], int n) {
                     int i; float s; s = 0.0;
                     for (i = 0; i < n; i++) s += u[i] * v[i];
                     return s;
                   }
                   void main() {
                     out = dot(A, B, 8) + dot(A, C, 8);
                   }";
        let p = compile_str(src).unwrap();
        let alloc =
            BankAllocation::compute(&p, &trial_conflicts(&p), &AllocOptions::default(), None);
        let a = p.global_by_name("A").unwrap();
        let b = p.global_by_name("B").unwrap();
        let c = p.global_by_name("C").unwrap();
        // B and C both bind to parameter v: same class, same bank.
        assert_eq!(alloc.bank_of_global(b), alloc.bank_of_global(c));
        // u (=A) interferes with v (=B=C): different banks.
        assert_ne!(alloc.bank_of_global(a), alloc.bank_of_global(b));
    }
}
