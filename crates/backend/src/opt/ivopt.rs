//! Induction-variable strength reduction.
//!
//! Rewrites in-loop linear arithmetic on induction variables —
//! `u = iv + inv`, `u = iv - c`, `u = iv * c` — into *derived induction
//! variables* that are initialized in the preheader and stepped right
//! after the basic IV's own update. The replaced operation becomes a
//! plain register copy, so after copy propagation the array subscript
//! is available at the top of the loop body, the way a DSP's
//! auto-incremented address registers make it available. This is what
//! lets the trial compaction (and the final schedule) pair loads like
//! `signal[n]` and `signal[n+m]` in one instruction (paper Figure 6).

use std::collections::HashMap;

use dsp_ir::ops::{IOperand, Op};
use dsp_ir::{Cfg, Function, LoopInfo, NaturalLoop, Type, VReg};
use dsp_machine::IntBinKind;

use super::licm::find_preheader;

/// A basic or derived induction variable: `v` advances by `step` once
/// per iteration at a fixed update point.
#[derive(Debug, Clone, Copy)]
struct Iv {
    step: i32,
}

/// Run induction-variable rewriting on every natural loop of `f`.
/// Requires preheaders.
pub fn run(f: &mut Function) {
    let info = LoopInfo::compute(f);
    for looop in info.loops.clone() {
        rewrite_loop(f, &looop);
    }
}

fn rewrite_loop(f: &mut Function, looop: &NaturalLoop) {
    let cfg = Cfg::build(f);
    let Some(pre) = find_preheader(f, &cfg, looop) else {
        return;
    };
    let idom = cfg.immediate_dominators();

    // Fixpoint: derived IVs enable further rewrites (e.g. k*10 then +j).
    for _round in 0..4 {
        // Def counts.
        let mut def_count_fn: HashMap<VReg, usize> = HashMap::new();
        let mut defs_in_loop: HashMap<VReg, usize> = HashMap::new();
        for (bi, block) in f.iter_blocks() {
            for op in &block.ops {
                if let Some(d) = op.def() {
                    *def_count_fn.entry(d).or_insert(0) += 1;
                    if looop.contains(bi) {
                        *defs_in_loop.entry(d).or_insert(0) += 1;
                    }
                }
            }
        }
        let invariant = |v: VReg| defs_in_loop.get(&v).copied().unwrap_or(0) == 0;

        // Basic IVs: single in-loop def `v = v ± c` in a block that
        // dominates every latch (executes exactly once per iteration).
        let mut ivs: HashMap<VReg, Iv> = HashMap::new();
        for (bi, block) in f.iter_blocks() {
            if !looop.contains(bi) {
                continue;
            }
            let every_iter = looop.latches.iter().all(|&l| cfg.dominates(&idom, bi, l));
            if !every_iter {
                continue;
            }
            for op in &block.ops {
                if let Op::IBin {
                    kind: kind @ (IntBinKind::Add | IntBinKind::Sub),
                    dst,
                    lhs,
                    rhs: IOperand::Imm(c),
                } = op
                {
                    if dst == lhs
                        && defs_in_loop.get(dst) == Some(&1)
                        && f.vreg_ty(*dst) == Type::Int
                    {
                        let step = if *kind == IntBinKind::Add { *c } else { -*c };
                        ivs.insert(*dst, Iv { step });
                    }
                }
            }
        }
        if ivs.is_empty() {
            return;
        }

        // Find one rewrite candidate: `u = v <op> x` with v a basic IV,
        // u single-def, and the result linear in v. The tuple carries
        // (block, op index, defined vreg, the op, the IV vreg, step).
        let mut candidate: Option<(dsp_ir::BlockId, usize, VReg, Op, VReg, i32)> = None;
        'outer: for (bi, block) in f.iter_blocks() {
            if !looop.contains(bi) {
                continue;
            }
            for (oi, op) in block.ops.iter().enumerate() {
                let Op::IBin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                } = op
                else {
                    continue;
                };
                if def_count_fn.get(dst) != Some(&1) || ivs.contains_key(dst) {
                    continue;
                }
                // The IV may appear on either side: `iv + w`, `iv - c`,
                // `iv * c`, or `w + iv` / `w - iv` with `w` invariant.
                let found = if let Some(iv) = ivs.get(lhs) {
                    match (kind, rhs) {
                        (IntBinKind::Add | IntBinKind::Sub, IOperand::Imm(_)) => {
                            Some((*lhs, iv.step))
                        }
                        (IntBinKind::Add | IntBinKind::Sub, IOperand::Reg(w)) => {
                            invariant(*w).then_some((*lhs, iv.step))
                        }
                        (IntBinKind::Mul, IOperand::Imm(c)) => {
                            Some((*lhs, iv.step.wrapping_mul(*c)))
                        }
                        _ => None,
                    }
                } else if let IOperand::Reg(r) = rhs {
                    match (ivs.get(r), invariant(*lhs), kind) {
                        (Some(iv), true, IntBinKind::Add) => Some((*r, iv.step)),
                        (Some(iv), true, IntBinKind::Sub) => Some((*r, -iv.step)),
                        _ => None,
                    }
                } else {
                    None
                };
                let Some((ivreg, dstep)) = found else {
                    continue;
                };
                candidate = Some((bi, oi, *dst, op.clone(), ivreg, dstep));
                break 'outer;
            }
        }
        let Some((bi, oi, u, op, ivreg, dstep)) = candidate else {
            return;
        };

        // Materialize the derived IV.
        let d = f.new_vreg(Type::Int);
        // Preheader: d = v <op> x  (computes f(v) at loop entry).
        let mut init = op.clone();
        if let Op::IBin { dst, .. } = &mut init {
            *dst = d;
        }
        let pre_ops = &mut f.block_mut(pre).ops;
        let at = pre_ops.len() - 1;
        pre_ops.insert(at, init);
        // Replace the original computation with a copy from d.
        f.block_mut(bi).ops[oi] = Op::MovI {
            dst: u,
            src: IOperand::Reg(d),
        };
        // Step d right after the basic IV's update.
        let v = ivreg;
        let _ = op;
        'insert: for (bj, block) in f.blocks.iter_mut().enumerate() {
            if !looop.contains(dsp_ir::BlockId(bj as u32)) {
                continue;
            }
            for oj in 0..block.ops.len() {
                if block.ops[oj].def() == Some(v) {
                    block.ops.insert(
                        oj + 1,
                        Op::IBin {
                            kind: IntBinKind::Add,
                            dst: d,
                            lhs: d,
                            rhs: IOperand::Imm(dstep),
                        },
                    );
                    break 'insert;
                }
            }
        }
        // `d` is itself an IV now; the next round may chain on it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_frontend::compile_str;

    fn optimize(p: &mut dsp_ir::Program) {
        for f in &mut p.funcs {
            super::super::local::run(f);
            super::super::dce::run(f);
            for _ in 0..2 {
                super::super::loops::insert_preheaders(f);
                super::super::licm::run(f);
                run(f);
                super::super::local::run(f);
                super::super::dce::run(f);
            }
        }
        p.validate().expect("ivopt output validates");
    }

    /// After ivopt, the two `s[...]` loads in the autocorrelation body
    /// must both be ready at the top of the block: no in-block def may
    /// feed their index registers, directly or through other ops.
    #[test]
    fn autocorrelation_loads_become_coready() {
        let src = "float s[32]; float R[8]; float out;
                   void main() {
                     int n; int m;
                     m = 5;
                     for (n = 0; n < 8; n++)
                       R[n] += s[n] * s[n + m];
                     out = R[0];
                   }";
        let mut p = compile_str(src).unwrap();
        optimize(&mut p);
        let f = p.func(p.main.unwrap());
        let info = LoopInfo::compute(f);
        // Find the loop body block holding the loads.
        let mut checked = false;
        for (bi, block) in f.iter_blocks() {
            if info.depth_of(bi) == 0 {
                continue;
            }
            let loads: Vec<usize> = block
                .ops
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, Op::Load { .. }))
                .map(|(i, _)| i)
                .collect();
            if loads.len() < 3 {
                continue; // header or latch block
            }
            // The longest chain of strict (flow/output) edges into each
            // op: the earliest cycle the block's dependences allow it.
            // Paths, not single edges, because the scheduler's graph
            // drops an edge that a longer path implies.
            let mut scratch = dsp_sched::Scratch::new();
            scratch.build(&block.ops);
            let mut earliest = vec![0; block.ops.len()];
            for e in scratch.edges() {
                let strict = usize::from(!e.kind.allows_same_cycle());
                earliest[e.to] = earliest[e.to].max(earliest[e.from] + strict);
            }
            for &l in &loads {
                assert!(
                    earliest[l] == 0,
                    "load at op {l} still waits on an in-block computation:\n{}",
                    f.dump()
                );
            }
            checked = true;
        }
        assert!(checked, "did not find the loop body:\n{}", f.dump());
        // Semantics preserved (all-zero arrays → out = 0).
        let mut i = dsp_ir::Interpreter::new(&p);
        i.run().unwrap();
        assert_eq!(i.global_mem_by_name("out").unwrap()[0].as_f32(), 0.0);
    }

    #[test]
    fn matrix_column_walk_strength_reduced() {
        // B[k*4 + j]: k*4 then +j should become derived IVs.
        let src = "float A[16]; float B[16]; float out;
                   void main() {
                     int j; int k; float acc;
                     j = 2; acc = 0.0;
                     for (k = 0; k < 4; k++)
                       acc += A[k] * B[k * 4 + j];
                     out = acc;
                   }";
        let mut p = compile_str(src).unwrap();
        optimize(&mut p);
        let f = p.func(p.main.unwrap());
        let info = LoopInfo::compute(f);
        // No multiplies should remain in the loop.
        let muls_in_loop = f
            .iter_blocks()
            .filter(|(bi, _)| info.depth_of(*bi) > 0)
            .flat_map(|(_, b)| &b.ops)
            .filter(|o| {
                matches!(
                    o,
                    Op::IBin {
                        kind: IntBinKind::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(muls_in_loop, 0, "{}", f.dump());
    }

    #[test]
    fn semantics_preserved_with_values() {
        let src = "int A[8] = {1,2,3,4,5,6,7,8}; int out;
                   void main() {
                     int i; int acc; acc = 0;
                     for (i = 0; i < 6; i++) acc += A[i] * A[i + 2];
                     out = acc;
                   }";
        let mut p = compile_str(src).unwrap();
        let mut i0 = dsp_ir::Interpreter::new(&p);
        i0.run().unwrap();
        let want = i0.global_mem_by_name("out").unwrap()[0];
        optimize(&mut p);
        let mut i1 = dsp_ir::Interpreter::new(&p);
        i1.run().unwrap();
        assert_eq!(i1.global_mem_by_name("out").unwrap()[0], want);
    }

    #[test]
    fn downward_counting_loop() {
        let src = "int A[8] = {1,2,3,4,5,6,7,8}; int out;
                   void main() {
                     int i; int acc; acc = 0;
                     for (i = 7; i >= 1; i--) acc += A[i] + A[i - 1];
                     out = acc;
                   }";
        let mut p = compile_str(src).unwrap();
        let mut i0 = dsp_ir::Interpreter::new(&p);
        i0.run().unwrap();
        let want = i0.global_mem_by_name("out").unwrap()[0];
        optimize(&mut p);
        let mut i1 = dsp_ir::Interpreter::new(&p);
        i1.run().unwrap();
        assert_eq!(i1.global_mem_by_name("out").unwrap()[0], want);
    }
}
