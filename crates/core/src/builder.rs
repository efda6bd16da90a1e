//! Interference-graph construction by trial compaction (paper §3.1,
//! Figure 3).
//!
//! The data-allocation pass runs the operation-compaction algorithm over
//! every basic block *before* banks are assigned, with every memory
//! operation pinned to a single memory unit. Each time a memory
//! operation is data-compatible with the instruction being formed but
//! the memory unit is already taken, the two operations could have
//! executed in parallel had their data been in different banks: an
//! interference edge is added between the variables they access — or,
//! when both access the *same* variable, that variable is marked as a
//! candidate for data duplication (§3.2).

use std::collections::BTreeSet;

use dsp_ir::{ExecStats, FuncId, LoopInfo, Program};
use dsp_machine::Bank;
use dsp_sched::{ir_claims, MemClaim, Scratch};

use crate::graph::InterferenceGraph;
use crate::vars::{AliasClasses, Var};

/// How interference-edge weights are derived.
#[derive(Debug, Clone, Copy)]
pub enum WeightMode<'a> {
    /// The paper's default heuristic: the loop nesting depth of the
    /// accesses (weight = depth + 1, so code outside any loop still
    /// counts 1, matching Figure 4).
    LoopDepth,
    /// Profile-driven weights: the execution count of the basic block
    /// containing the accesses (paper §4.1, configuration `Pr`).
    Profile(&'a ExecStats),
    /// Every discovered pair weighs 1 (ablation).
    Uniform,
}

/// Estimated dynamic behaviour of one duplication candidate, for the
/// paper's §5 refinement (duplicate only when the performance gain
/// justifies the cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DupStats {
    /// Weighted count of same-class load pairs that could issue
    /// together if the class were duplicated — each is roughly one
    /// cycle saved per execution.
    pub conflicts: u64,
    /// Weighted count of stores to the class — each would gain a
    /// bookkeeping store that may cost a cycle when it cannot pack.
    pub stores: u64,
    /// Words of storage the duplicated copy would occupy.
    pub copy_words: u64,
}

impl DupStats {
    /// The §5 criterion: duplication is worthwhile when the cycles it
    /// can save exceed the cycles its bookkeeping stores can cost.
    #[must_use]
    pub fn worthwhile(&self) -> bool {
        self.conflicts > self.stores
    }
}

/// The products of the trial compaction.
#[derive(Debug, Clone)]
pub struct BuildResult {
    /// The weighted interference graph over alias classes.
    pub graph: InterferenceGraph,
    /// Alias classes that were accessed twice in one candidate
    /// instruction — partitioning cannot help them; duplication can.
    pub dup_candidates: BTreeSet<Var>,
    /// Benefit/cost estimates for each duplication candidate, weighted
    /// by the same mode as the interference edges (dynamic counts under
    /// [`WeightMode::Profile`], loop-depth statics otherwise).
    pub dup_stats: std::collections::HashMap<Var, DupStats>,
}

/// One block's loop depth and the memory conflicts its trial
/// compaction reported.
#[derive(Debug, Clone)]
struct BlockTrial {
    depth: u32,
    /// This block's slice of [`TrialConflicts::pairs`].
    pairs: std::ops::Range<usize>,
}

/// The strategy-independent half of interference-graph construction:
/// the Fixed(X) trial schedule of every basic block, run once. For each
/// block it keeps the loop depth and the `(resident, candidate)`
/// op-index pairs the scheduler reported, in report order;
/// [`weigh_conflicts`] replays them under any [`WeightMode`].
#[derive(Debug, Clone)]
pub struct TrialConflicts {
    /// Per function, per block (in [`dsp_ir::Function::iter_blocks`]
    /// order).
    blocks: Vec<Vec<BlockTrial>>,
    pairs: Vec<(u32, u32)>,
}

/// Run the trial compaction of every block of `program` with all data
/// pinned to bank X, recording each block's conflicts. One scheduler
/// scratch serves every block.
#[must_use]
pub fn trial_conflicts(program: &Program) -> TrialConflicts {
    let mut blocks = Vec::with_capacity(program.funcs.len());
    let mut pairs = Vec::new();
    let mut scratch = Scratch::new();
    for f in &program.funcs {
        let loops = LoopInfo::compute(f);
        let mut func_blocks = Vec::with_capacity(f.blocks.len());
        for (bi, block) in f.iter_blocks() {
            let start = pairs.len();
            // With fewer than two memory ops there is no pair to find.
            if block.ops.iter().filter(|o| o.is_mem()).nth(1).is_some() {
                let mut observer = |i: usize, j: usize| pairs.push((i as u32, j as u32));
                scratch.schedule(&block.ops, all_in_x(&block.ops), Some(&mut observer));
            }
            func_blocks.push(BlockTrial {
                depth: loops.depth_of(bi),
                pairs: start..pairs.len(),
            });
        }
        blocks.push(func_blocks);
    }
    TrialConflicts { blocks, pairs }
}

/// The trial claims of a block's operations: every memory operation on
/// bank X's unit.
fn all_in_x(ops: &[dsp_ir::ops::Op]) -> impl Iterator<Item = dsp_sched::OpClaim> + '_ {
    ir_claims(ops, std::iter::repeat(MemClaim::Fixed(Bank::X)))
}

/// Build the interference graph of `program`: [`trial_conflicts`]
/// followed by [`weigh_conflicts`].
#[must_use]
pub fn build_interference(
    program: &Program,
    alias: &AliasClasses,
    mode: WeightMode<'_>,
) -> BuildResult {
    weigh_conflicts(program, alias, &trial_conflicts(program), mode)
}

/// Turn the conflicts of one trial compaction into the interference
/// graph and duplication candidates under one weighting.
///
/// `trial` must come from [`trial_conflicts`] of the same `program`.
/// Blocks of weight 0 (never executed under a profile) contribute
/// nothing; the others contribute their pairs in report order, so the
/// graph's edges are inserted in the same order whichever mode asks.
#[must_use]
pub fn weigh_conflicts(
    program: &Program,
    alias: &AliasClasses,
    trial: &TrialConflicts,
    mode: WeightMode<'_>,
) -> BuildResult {
    let mut graph = InterferenceGraph::new();
    let mut dup_candidates = BTreeSet::new();
    let mut dup_stats: std::collections::HashMap<Var, DupStats> = std::collections::HashMap::new();
    // Every alias class is a node even if never co-accessed.
    for class in alias.classes() {
        if !matches!(class, Var::ParamSlot(..)) {
            graph.add_node(class);
        }
    }
    // Weighted store traffic of every class, consistent with the
    // conflicts; only the duplication candidates' totals are kept.
    let mut store_weight: std::collections::HashMap<Var, u64> = std::collections::HashMap::new();
    for ((fi, f), blocks) in program.funcs.iter().enumerate().zip(&trial.blocks) {
        let func = FuncId(fi as u32);
        for ((bi, block), trial_block) in f.iter_blocks().zip(blocks) {
            let weight = match mode {
                WeightMode::LoopDepth => u64::from(trial_block.depth) + 1,
                WeightMode::Profile(stats) => stats.block_count(func, bi),
                WeightMode::Uniform => 1,
            };
            if weight == 0 {
                continue; // never-executed block contributes nothing
            }
            let ops = &block.ops;
            for op in ops {
                if let dsp_ir::ops::Op::Store { addr, .. } = op {
                    *store_weight
                        .entry(alias.class_of_base(func, addr.base))
                        .or_default() += weight;
                }
            }
            for &(i, j) in &trial.pairs[trial_block.pairs.clone()] {
                let (i, j) = (i as usize, j as usize);
                let a = class_of_op(alias, func, &ops[i]);
                let b = class_of_op(alias, func, &ops[j]);
                if a == b {
                    // Duplication only pays for a pair of *loads*: a
                    // store must update both copies anyway, so pairing a
                    // load with one of its own array's stores saves
                    // nothing and still costs the bookkeeping store.
                    // (The paper's §5 closing remark invites exactly
                    // this kind of refinement of the duplication set.)
                    let both_loads = matches!(ops[i], dsp_ir::ops::Op::Load { .. })
                        && matches!(ops[j], dsp_ir::ops::Op::Load { .. });
                    if both_loads {
                        dup_candidates.insert(a);
                        dup_stats.entry(a).or_default().conflicts += weight;
                    }
                } else {
                    match mode {
                        WeightMode::LoopDepth => graph.raise_edge_weight(a, b, weight),
                        WeightMode::Profile(_) | WeightMode::Uniform => {
                            graph.add_edge_weight(a, b, weight);
                        }
                    }
                }
            }
        }
    }
    for (class, stats) in &mut dup_stats {
        stats.stores = store_weight.get(class).copied().unwrap_or(0);
        stats.copy_words = alias
            .members(*class)
            .iter()
            .map(|m| match m {
                Var::Global(g) => u64::from(program.globals[g.index()].size),
                Var::Local(func, l) => u64::from(program.func(*func).locals[l.index()].size),
                Var::ParamSlot(..) => 0,
            })
            .sum();
    }
    BuildResult {
        graph,
        dup_candidates,
        dup_stats,
    }
}

fn class_of_op(alias: &AliasClasses, func: FuncId, op: &dsp_ir::ops::Op) -> Var {
    let mem = op.mem_ref().expect("observer only reports memory ops");
    alias.class_of_base(func, mem.base)
}

#[cfg(test)]
/// The interference build as it was before the trial compaction was
/// shared: one trial schedule per call, skipping weight-0 blocks. Kept as
/// the executable specification of [`trial_conflicts`] +
/// [`weigh_conflicts`].
fn build_interference_per_mode(
    program: &Program,
    alias: &AliasClasses,
    mode: WeightMode<'_>,
) -> BuildResult {
    let mut graph = InterferenceGraph::new();
    let mut dup_candidates = BTreeSet::new();
    let mut dup_stats: std::collections::HashMap<Var, DupStats> = std::collections::HashMap::new();
    // Every alias class is a node even if never co-accessed.
    for class in alias.classes() {
        if !matches!(class, Var::ParamSlot(..)) {
            graph.add_node(class);
        }
    }
    // Weighted store traffic of every class, consistent with the
    // conflicts; only the duplication candidates' totals are kept.
    let mut store_weight: std::collections::HashMap<Var, u64> = std::collections::HashMap::new();
    for (fi, f) in program.funcs.iter().enumerate() {
        let func = FuncId(fi as u32);
        let loops = LoopInfo::compute(f);
        for (bi, block) in f.iter_blocks() {
            let weight = match mode {
                WeightMode::LoopDepth => u64::from(loops.depth_of(bi)) + 1,
                WeightMode::Profile(stats) => stats.block_count(func, bi),
                WeightMode::Uniform => 1,
            };
            if weight == 0 {
                continue; // never-executed block contributes nothing
            }
            let ops = &block.ops;
            for op in ops {
                if let dsp_ir::ops::Op::Store { addr, .. } = op {
                    *store_weight
                        .entry(alias.class_of_base(func, addr.base))
                        .or_default() += weight;
                }
            }
            let mem_count = ops.iter().filter(|o| o.is_mem()).count();
            if mem_count < 2 {
                continue; // no chance of a memory pair
            }
            let mut observer = |i: usize, j: usize| {
                let a = class_of_op(alias, func, &ops[i]);
                let b = class_of_op(alias, func, &ops[j]);
                if a == b {
                    // Duplication only pays for a pair of *loads*: a
                    // store must update both copies anyway, so pairing a
                    // load with one of its own array's stores saves
                    // nothing and still costs the bookkeeping store.
                    // (The paper's §5 closing remark invites exactly
                    // this kind of refinement of the duplication set.)
                    let both_loads = matches!(ops[i], dsp_ir::ops::Op::Load { .. })
                        && matches!(ops[j], dsp_ir::ops::Op::Load { .. });
                    if both_loads {
                        dup_candidates.insert(a);
                        dup_stats.entry(a).or_default().conflicts += weight;
                    }
                } else {
                    match mode {
                        WeightMode::LoopDepth => graph.raise_edge_weight(a, b, weight),
                        WeightMode::Profile(_) | WeightMode::Uniform => {
                            graph.add_edge_weight(a, b, weight);
                        }
                    }
                }
            };
            Scratch::new().schedule(ops, all_in_x(ops), Some(&mut observer));
        }
    }
    for (class, stats) in &mut dup_stats {
        stats.stores = store_weight.get(class).copied().unwrap_or(0);
        stats.copy_words = alias
            .members(*class)
            .iter()
            .map(|m| match m {
                Var::Global(g) => u64::from(program.globals[g.index()].size),
                Var::Local(func, l) => u64::from(program.func(*func).locals[l.index()].size),
                Var::ParamSlot(..) => 0,
            })
            .sum();
    }
    BuildResult {
        graph,
        dup_candidates,
        dup_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_frontend::compile_str;
    use dsp_ir::GlobalId;

    fn gvar(p: &Program, name: &str) -> Var {
        Var::Global(p.global_by_name(name).expect("global exists"))
    }

    #[test]
    fn fir_loop_interferes_coefficients_with_samples() {
        // The motivating FIR example (paper Figure 1): A[i] and B[i] are
        // loaded in the same iteration and should interfere with the
        // loop weight 2 (depth 1 + 1).
        let src = "float A[8]; float B[8]; float out;
                   void main() {
                     int i; float sum; sum = 0.0;
                     for (i = 0; i < 8; i++) sum += A[i] * B[i];
                     out = sum;
                   }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::LoopDepth);
        let w = r.graph.weight(gvar(&p, "A"), gvar(&p, "B"));
        assert_eq!(w, 2, "loop-depth weight should be depth+1 = 2");
        assert!(r.dup_candidates.is_empty());
    }

    #[test]
    fn straightline_pairs_weigh_one() {
        let src = "int A[4]; int B[4]; int out;
                   void main() { out = A[0] + B[0]; }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::LoopDepth);
        assert_eq!(r.graph.weight(gvar(&p, "A"), gvar(&p, "B")), 1);
    }

    #[test]
    fn autocorrelation_marks_array_for_duplication() {
        // Paper Figure 6: R[n] += signal[n] * signal[n+m] — the two
        // signal loads could pair but share the array. A constant lag
        // folds into the addressing offset, so both loads are ready in
        // the same candidate instruction even without the back-end's
        // induction-variable rewriting (which handles dynamic lags).
        let src = "float signal[16]; float R[8];
                   void main() {
                     int n;
                     for (n = 0; n < 8; n++)
                       R[n] += signal[n] * signal[n + 4];
                   }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::LoopDepth);
        assert!(
            r.dup_candidates.contains(&gvar(&p, "signal")),
            "signal accessed twice in one instruction candidate: {:?}",
            r.dup_candidates
        );
    }

    #[test]
    fn profile_weights_use_block_counts() {
        let src = "int A[64]; int B[64]; int out;
                   void main() {
                     int i; out = 0;
                     for (i = 0; i < 64; i++) out += A[i] + B[i];
                   }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let mut interp = dsp_ir::Interpreter::new(&p);
        let (_, stats) = interp.run().unwrap();
        let r = build_interference(&p, &alias, WeightMode::Profile(&stats));
        let w = r.graph.weight(gvar(&p, "A"), gvar(&p, "B"));
        assert_eq!(w, 64, "profile weight equals loop trip count, got {w}");
    }

    #[test]
    fn uniform_weights_are_one() {
        let src = "int A[8]; int B[8]; int out;
                   void main() {
                     int i;
                     for (i = 0; i < 8; i++) out += A[i] + B[i];
                   }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::Uniform);
        assert_eq!(r.graph.weight(gvar(&p, "A"), gvar(&p, "B")), 1);
    }

    #[test]
    fn dependent_accesses_do_not_interfere() {
        // hist[img[i]] += 1: the inner load feeds the outer access, so
        // they can never issue together; no edge should appear.
        let src = "int img[8] = {0, 1, 2, 3, 0, 1, 2, 3}; int hist[4];
                   void main() {
                     int i;
                     for (i = 0; i < 8; i++) hist[img[i]] += 1;
                   }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::LoopDepth);
        assert_eq!(
            r.graph.weight(gvar(&p, "img"), gvar(&p, "hist")),
            0,
            "serial dependence must not create interference"
        );
        let _ = GlobalId(0);
    }

    /// The graph's nodes in insertion order and its edges, sorted.
    fn graph_shape(g: &InterferenceGraph) -> (Vec<Var>, Vec<(Var, Var, u64)>) {
        let mut edges: Vec<_> = g.iter_edges().collect();
        edges.sort_unstable();
        (g.nodes().to_vec(), edges)
    }

    fn sorted_stats(r: &BuildResult) -> Vec<(Var, DupStats)> {
        let mut stats: Vec<_> = r.dup_stats.iter().map(|(v, s)| (*v, *s)).collect();
        stats.sort_unstable_by_key(|(v, _)| *v);
        stats
    }

    #[test]
    fn shared_trial_equals_the_per_mode_build_on_generated_programs() {
        let mut rng = dsp_gen::rng::Rng::new(22);
        let config = dsp_gen::GenConfig::default();
        let mut pairs = 0;
        for _ in 0..600 {
            let source = dsp_gen::generate_source(rng.next_u64(), &config);
            let mut p = compile_str(&source).expect("generated programs compile");
            dsp_backend::opt::optimize(&mut p);
            let alias = AliasClasses::build(&p);
            let (_, stats) = dsp_ir::Interpreter::new(&p)
                .run()
                .expect("generated programs run");
            let trial = trial_conflicts(&p);
            pairs += trial.pairs.len();
            for mode in [
                WeightMode::LoopDepth,
                WeightMode::Profile(&stats),
                WeightMode::Uniform,
            ] {
                let shared = weigh_conflicts(&p, &alias, &trial, mode);
                let per_mode = super::build_interference_per_mode(&p, &alias, mode);
                assert_eq!(graph_shape(&shared.graph), graph_shape(&per_mode.graph));
                assert_eq!(shared.dup_candidates, per_mode.dup_candidates);
                assert_eq!(sorted_stats(&shared), sorted_stats(&per_mode));
            }
        }
        assert!(pairs > 600, "the programs must exercise the trial: {pairs}");
    }

    #[test]
    fn every_class_is_a_node() {
        let src = "int A[4]; int lonely; void main() { A[0] = 1; }";
        let p = compile_str(src).unwrap();
        let alias = AliasClasses::build(&p);
        let r = build_interference(&p, &alias, WeightMode::LoopDepth);
        assert!(r.graph.contains(gvar(&p, "lonely")));
        assert!(r.graph.contains(gvar(&p, "A")));
    }
}
