//! Loop-invariant code motion.
//!
//! Hoists pure computations and provably loop-invariant loads into the
//! loop preheader. Hoisting a load is legal when nothing in the loop
//! may store to the same object (no aliasing store, no call) — easy to
//! establish here because every memory reference names its object.
//!
//! Each loop is handled in one pass. An op can be hoisted when its def
//! is the function's only def of that vreg, its kind is safe to move,
//! its block dominates every latch and every use of the def, and none
//! of its operands is defined in the loop. Only the last condition
//! changes as ops leave the loop: hoisting an op takes its def out of
//! the loop, its operands are already defined outside, and it moves
//! no store or call. So the hoistable set only grows, and only through
//! readers of the def just hoisted. A worklist ordered by scan position
//! (index in `NaturalLoop::blocks`, then op index) therefore hoists the
//! same ops in the same order as rescanning the loop after every hoist
//! would, at O(ops + candidates · log candidates) per loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsp_ir::depgraph::refs_may_overlap;
use dsp_ir::ops::Op;
use dsp_ir::{BlockId, Cfg, Function, LoopInfo, NaturalLoop, VReg};

/// Find the preheader of `looop`: its unique out-of-loop predecessor
/// ending in an unconditional jump to the header.
pub fn find_preheader(f: &Function, cfg: &Cfg, looop: &NaturalLoop) -> Option<BlockId> {
    let entry_preds: Vec<BlockId> = cfg.preds[looop.header.index()]
        .iter()
        .copied()
        .filter(|p| !looop.contains(*p))
        .collect();
    match entry_preds.as_slice() {
        [p] if matches!(f.block(*p).terminator(), Some(Op::Jmp(t)) if *t == looop.header) => {
            Some(*p)
        }
        _ => None,
    }
}

/// Run LICM on every natural loop of `f`. Requires preheaders
/// ([`super::loops::insert_preheaders`]).
pub fn run(f: &mut Function) {
    let info = LoopInfo::compute(f);
    if info.loops.is_empty() {
        return;
    }
    // Innermost-first: deeper headers first so invariants bubble outward
    // across repeated pipeline rounds.
    let mut order: Vec<usize> = (0..info.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(info.depth[info.loops[i].header.index()]));
    // Hoisting moves ops but never a terminator, so the CFG, the
    // dominators and every preheader hold for the whole pass.
    let cfg = Cfg::build(f);
    let idom = cfg.immediate_dominators();
    let mut facts = Facts::build(f);
    for (stamp, li) in (1..).zip(order) {
        let looop = &info.loops[li];
        if let Some(pre) = find_preheader(f, &cfg, looop) {
            hoist_loop(f, &cfg, &idom, &mut facts, looop, pre, stamp);
        }
    }
}

/// Candidate id meaning "none".
const NONE: u32 = u32::MAX;

/// Function-wide facts, dense over `VReg::index()`.
struct Facts {
    /// Number of defs of each vreg in the whole function.
    def_count: Vec<u32>,
    /// The block of every use, grouped by vreg: the uses of `v` are
    /// `use_blocks[use_start[v]..use_start[v + 1]]`, one entry per read.
    use_start: Vec<u32>,
    use_blocks: Vec<BlockId>,
    /// `(stamp, candidate)` of each vreg defined in the loop being
    /// processed (whose stamp it carries); stale stamps mean "not in
    /// the loop", so nothing is cleared between loops.
    in_loop: Vec<(u32, u32)>,
}

impl Facts {
    fn build(f: &Function) -> Facts {
        let n = f.vregs.len();
        let mut def_count = vec![0u32; n];
        let mut use_start = vec![0u32; n + 1];
        for op in f.blocks.iter().flat_map(|b| &b.ops) {
            if let Some(d) = op.def() {
                def_count[d.index()] += 1;
            }
            op.for_each_use(|u| use_start[u.index() + 1] += 1);
        }
        for v in 0..n {
            use_start[v + 1] += use_start[v];
        }
        let mut fill = use_start.clone();
        let mut use_blocks = vec![BlockId(0); use_start[n] as usize];
        for (bi, block) in f.iter_blocks() {
            for op in &block.ops {
                op.for_each_use(|u| {
                    use_blocks[fill[u.index()] as usize] = bi;
                    fill[u.index()] += 1;
                });
            }
        }
        Facts {
            def_count,
            use_start,
            use_blocks,
            in_loop: vec![(0, NONE); n],
        }
    }

    /// The blocks of `v`'s uses.
    fn uses(&self, v: VReg) -> std::ops::Range<usize> {
        self.use_start[v.index()] as usize..self.use_start[v.index() + 1] as usize
    }
}

/// A hoistable op whose operands may still be defined in the loop.
struct Candidate {
    block: BlockId,
    op: usize,
    /// Position in the hoist order, or [`NONE`] if it stays.
    rank: u32,
}

fn hoist_loop(
    f: &mut Function,
    cfg: &Cfg,
    idom: &[Option<BlockId>],
    facts: &mut Facts,
    looop: &NaturalLoop,
    pre: BlockId,
    stamp: u32,
) {
    // Facts about the loop: its defs, stores and calls.
    let mut has_call = false;
    let mut stores: Vec<dsp_ir::MemRef> = Vec::new();
    for &bi in &looop.blocks {
        for op in &f.block(bi).ops {
            if let Some(d) = op.def() {
                facts.in_loop[d.index()] = (stamp, NONE);
            }
            match op {
                Op::Call { .. } => has_call = true,
                Op::Store { addr, .. } => stores.push(*addr),
                _ => {}
            }
        }
    }

    // Every op that passes the conditions no hoist can change, in scan
    // order. A candidate must execute on every iteration and its def
    // must dominate all its uses: require its block to dominate every
    // latch and every use block. (Same-block uses before the def would
    // read an uninitialized register, which validated lowering never
    // produces, so the def block itself needs no textual check.)
    let mut cands: Vec<Candidate> = Vec::new();
    for &bi in &looop.blocks {
        if !looop.latches.iter().all(|&l| cfg.dominates(idom, bi, l)) {
            continue;
        }
        for (oi, op) in f.block(bi).ops.iter().enumerate() {
            let Some(d) = op.def() else { continue };
            if facts.def_count[d.index()] != 1
                || !hoistable_kind(op, has_call, &stores)
                || !facts.use_blocks[facts.uses(d)]
                    .iter()
                    .all(|&ub| ub == bi || cfg.dominates(idom, bi, ub))
            {
                continue;
            }
            facts.in_loop[d.index()].1 = cands.len() as u32;
            cands.push(Candidate {
                block: bi,
                op: oi,
                rank: NONE,
            });
        }
    }

    // A candidate waits for each operand defined in the loop to be
    // hoisted. An operand defined by a non-candidate (or by the op
    // itself) never leaves the loop, so neither does the op.
    let mut pending = vec![0u32; cands.len()];
    let mut waiters: Vec<Vec<u32>> = (0..cands.len()).map(|_| Vec::new()).collect();
    let mut ready = BinaryHeap::new();
    for (c, cand) in cands.iter().enumerate() {
        let op = &f.block(cand.block).ops[cand.op];
        let mut stuck = false;
        op.for_each_use(|u| {
            let (s, k) = facts.in_loop[u.index()];
            stuck |= s == stamp && (k == NONE || k as usize == c);
        });
        if stuck {
            continue;
        }
        op.for_each_use(|u| {
            let (s, k) = facts.in_loop[u.index()];
            if s == stamp {
                waiters[k as usize].push(c as u32);
                pending[c] += 1;
            }
        });
        if pending[c] == 0 {
            ready.push(Reverse(c as u32));
        }
    }

    // Hoist the first ready op in scan order; its readers may follow.
    let mut popped: Vec<u32> = Vec::new();
    while let Some(Reverse(c)) = ready.pop() {
        popped.push(c);
        for &w in &waiters[c as usize] {
            pending[w as usize] -= 1;
            if pending[w as usize] == 0 {
                ready.push(Reverse(w));
            }
        }
    }
    if popped.is_empty() {
        return;
    }

    // Take the hoisted ops out of their blocks (a block's candidates are
    // contiguous and in op order), then splice them into the preheader
    // before its jump, in pop order.
    for (rank, &c) in popped.iter().enumerate() {
        cands[c as usize].rank = rank as u32;
    }
    let mut hoisted: Vec<Option<Op>> = (0..popped.len()).map(|_| None).collect();
    for group in cands.chunk_by(|a, b| a.block == b.block) {
        if group.iter().all(|c| c.rank == NONE) {
            continue;
        }
        let ops = &mut f.block_mut(group[0].block).ops;
        let mut kept = Vec::with_capacity(ops.len());
        let mut group_ops = group.iter().peekable();
        for (oi, op) in ops.drain(..).enumerate() {
            match group_ops.next_if(|c| c.op == oi) {
                Some(c) if c.rank != NONE => hoisted[c.rank as usize] = Some(op),
                _ => kept.push(op),
            }
        }
        *ops = kept;
    }
    let pre_ops = &mut f.block_mut(pre).ops;
    let jump = pre_ops.pop().expect("preheader ends in its jump");
    for (&c, op) in popped.iter().zip(hoisted) {
        let op = op.expect("every hoisted op was taken");
        let from = cands[c as usize].block;
        op.for_each_use(|u| {
            let range = facts.uses(u);
            let slot = facts.use_blocks[range]
                .iter_mut()
                .find(|b| **b == from)
                .expect("a moved read was recorded in its block");
            *slot = pre;
        });
        pre_ops.push(op);
    }
    pre_ops.push(jump);
}

fn hoistable_kind(op: &Op, loop_has_call: bool, loop_stores: &[dsp_ir::MemRef]) -> bool {
    match op {
        Op::MovI { .. }
        | Op::MovF { .. }
        | Op::IBin { .. }
        | Op::ICmp { .. }
        | Op::INeg { .. }
        | Op::INot { .. }
        | Op::FBin { .. }
        | Op::FCmp { .. }
        | Op::FNeg { .. }
        | Op::ItoF { .. }
        | Op::FtoI { .. } => true,
        Op::Load { addr, .. } => {
            !loop_has_call && !loop_stores.iter().any(|s| refs_may_overlap(s, addr))
        }
        _ => false,
    }
}

/// Executable specification: the restart loop LICM replaced. Hoist the
/// first hoistable op in scan order, rebuild every fact about the
/// function, and search again until nothing moves.
#[cfg(test)]
pub(crate) mod spec {
    use std::collections::{HashMap, HashSet};

    use super::{find_preheader, hoistable_kind};
    use dsp_ir::ops::Op;
    use dsp_ir::{BlockId, Cfg, Function, LoopInfo, NaturalLoop, VReg};

    pub(crate) fn run(f: &mut Function) {
        let info = LoopInfo::compute(f);
        let mut order: Vec<usize> = (0..info.loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(info.depth[info.loops[i].header.index()]));
        for li in order {
            let looop = info.loops[li].clone();
            hoist_loop(f, &looop);
        }
    }

    fn hoist_loop(f: &mut Function, looop: &NaturalLoop) {
        let cfg = Cfg::build(f);
        let Some(pre) = find_preheader(f, &cfg, looop) else {
            return;
        };
        let idom = cfg.immediate_dominators();
        loop {
            let mut defs_in_loop: HashSet<VReg> = HashSet::new();
            let mut def_count_fn: HashMap<VReg, usize> = HashMap::new();
            let mut has_call = false;
            let mut stores: Vec<dsp_ir::MemRef> = Vec::new();
            for (bi, block) in f.iter_blocks() {
                for op in &block.ops {
                    if let Some(d) = op.def() {
                        *def_count_fn.entry(d).or_insert(0) += 1;
                        if looop.contains(bi) {
                            defs_in_loop.insert(d);
                        }
                    }
                    if looop.contains(bi) {
                        match op {
                            Op::Call { .. } => has_call = true,
                            Op::Store { addr, .. } => stores.push(*addr),
                            _ => {}
                        }
                    }
                }
            }
            let mut use_blocks: HashMap<VReg, Vec<BlockId>> = HashMap::new();
            for (bi, block) in f.iter_blocks() {
                for op in &block.ops {
                    for u in op.uses() {
                        use_blocks.entry(u).or_default().push(bi);
                    }
                    if let Some(mr) = op.mem_ref() {
                        if let Some(ix) = mr.index {
                            use_blocks.entry(ix).or_default().push(bi);
                        }
                    }
                }
            }

            let mut hoisted = false;
            'search: for &bi in &looop.blocks {
                let dominates_latches = looop.latches.iter().all(|&l| cfg.dominates(&idom, bi, l));
                if !dominates_latches {
                    continue;
                }
                let ops_len = f.block(bi).ops.len();
                for oi in 0..ops_len {
                    let op = &f.block(bi).ops[oi];
                    let Some(d) = op.def() else { continue };
                    if def_count_fn.get(&d).copied().unwrap_or(0) != 1 {
                        continue;
                    }
                    if !hoistable_kind(op, has_call, &stores) {
                        continue;
                    }
                    if op.uses().iter().any(|u| defs_in_loop.contains(u)) {
                        continue;
                    }
                    let dom_ok = use_blocks.get(&d).is_none_or(|ubs| {
                        ubs.iter()
                            .all(|&ub| ub == bi || cfg.dominates(&idom, bi, ub))
                    });
                    if !dom_ok {
                        continue;
                    }
                    let op = f.block_mut(bi).ops.remove(oi);
                    let pre_ops = &mut f.block_mut(pre).ops;
                    let at = pre_ops.len() - 1;
                    pre_ops.insert(at, op);
                    hoisted = true;
                    break 'search;
                }
            }
            if !hoisted {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_frontend::compile_str;

    #[test]
    fn one_pass_matches_the_restart_loop_on_generated_programs() {
        let changed = super::super::check_pass_on_generated("licm", 600, |before, after| {
            let mut want = before.clone();
            spec::run(&mut want);
            assert_eq!(after.dump(), want.dump(), "input:\n{}", before.dump());
        });
        assert!(changed > 200, "only {changed} LICM runs hoisted anything");
    }

    fn optimize_lightly(p: &mut dsp_ir::Program) {
        for f in &mut p.funcs {
            super::super::local::run(f);
            super::super::dce::run(f);
            super::super::loops::insert_preheaders(f);
            run(f);
            super::super::local::run(f);
            super::super::dce::run(f);
        }
    }

    /// Count loads inside loop bodies of `main`.
    fn loads_in_loops(p: &dsp_ir::Program) -> usize {
        let f = p.func(p.main.unwrap());
        let info = LoopInfo::compute(f);
        f.iter_blocks()
            .filter(|(bi, _)| info.depth_of(*bi) > 0)
            .flat_map(|(_, b)| &b.ops)
            .filter(|o| matches!(o, Op::Load { .. }))
            .count()
    }

    #[test]
    fn invariant_global_load_hoisted() {
        let src = "int m; int A[8]; int out;
                   void main() {
                     int i; out = 0;
                     m = 3;
                     for (i = 0; i < 8; i++) out += A[i] * m;
                   }";
        let mut p = compile_str(src).unwrap();
        // `out` is a global scalar: its load/store stay in the loop, but
        // the load of `m` must hoist.
        let before = loads_in_loops(&p);
        optimize_lightly(&mut p);
        let after = loads_in_loops(&p);
        assert!(after < before, "loads in loops: {before} -> {after}");
        // Semantics preserved.
        let mut i2 = dsp_ir::Interpreter::new(&p);
        i2.run().unwrap();
        assert_eq!(i2.global_mem_by_name("out").unwrap()[0].as_i32(), 0);
    }

    #[test]
    fn store_in_loop_blocks_load_hoist() {
        let src = "int m; int out;
                   void main() {
                     int i; out = 0;
                     for (i = 0; i < 8; i++) { m = i; out += m; }
                   }";
        let mut p = compile_str(src).unwrap();
        optimize_lightly(&mut p);
        // The load of m cannot hoist (m stored each iteration).
        let mut i2 = dsp_ir::Interpreter::new(&p);
        i2.run().unwrap();
        assert_eq!(i2.global_mem_by_name("out").unwrap()[0].as_i32(), 28);
    }

    #[test]
    fn call_in_loop_blocks_load_hoist() {
        let src = "int m = 5; int out;
                   void bump() { m += 1; }
                   void main() {
                     int i; out = 0;
                     for (i = 0; i < 3; i++) { bump(); out += m; }
                   }";
        let mut p = compile_str(src).unwrap();
        optimize_lightly(&mut p);
        let mut i2 = dsp_ir::Interpreter::new(&p);
        i2.run().unwrap();
        assert_eq!(i2.global_mem_by_name("out").unwrap()[0].as_i32(), 6 + 7 + 8);
    }

    #[test]
    fn invariant_arithmetic_hoisted_from_inner_loop() {
        let src = "float A[16]; float B[16]; float C[16]; float out;
                   void main() {
                     int i; int j;
                     for (i = 0; i < 4; i++)
                       for (j = 0; j < 4; j++)
                         C[i * 4 + j] = A[i * 4 + j] + B[i * 4 + j];
                     out = C[0];
                   }";
        let mut p = compile_str(src).unwrap();
        optimize_lightly(&mut p);
        p.validate().unwrap();
        // i*4 should no longer be computed in the inner loop.
        let f = p.func(p.main.unwrap());
        let info = LoopInfo::compute(f);
        let inner_muls = f
            .iter_blocks()
            .filter(|(bi, _)| info.depth_of(*bi) == 2)
            .flat_map(|(_, b)| &b.ops)
            .filter(|o| {
                matches!(
                    o,
                    Op::IBin {
                        kind: dsp_machine::IntBinKind::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(inner_muls, 0, "i*4 must hoist out of the j loop");
    }
}
