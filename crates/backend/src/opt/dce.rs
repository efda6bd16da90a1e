//! Dead-code elimination and unreachable-block removal.

use std::collections::HashSet;

use dsp_ir::ops::Op;
use dsp_ir::{BlockId, Cfg, Function, VReg};

/// Remove pure operations whose results are never used, and then those
/// whose results only they used, until none is left.
///
/// One pass over use counts: removing an op only lowers counts, so an
/// op that is removable stays removable, and a worklist of vregs whose
/// count reaches zero removes the same ops as rescanning the function
/// until nothing changes would, in O(ops + uses).
pub fn run(f: &mut Function) {
    let n = f.vregs.len();
    let mut uses = vec![0u32; n];
    // The pure defs of each vreg, as a list threaded through `next`
    // from `head[v]`; each entry is a (block, op) position. Ops are
    // also numbered across the function, block by block from `start`.
    let mut head = vec![NONE; n];
    let mut sites: Vec<(u32, u32)> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut start = Vec::with_capacity(f.blocks.len());
    let mut ops = 0;
    for (bi, block) in f.blocks.iter().enumerate() {
        start.push(ops);
        ops += block.ops.len();
        for (oi, op) in block.ops.iter().enumerate() {
            op.for_each_use(|u| uses[u.index()] += 1);
            if let Some(d) = op.def().filter(|_| is_pure(op)) {
                next.push(head[d.index()]);
                head[d.index()] = sites.len() as u32;
                sites.push((bi as u32, oi as u32));
            }
        }
    }
    let mut work: Vec<usize> = (0..n)
        .filter(|&v| uses[v] == 0 && head[v] != NONE)
        .collect();
    if work.is_empty() {
        return;
    }
    let mut dead = vec![false; ops];
    while let Some(v) = work.pop() {
        let mut s = head[v];
        while s != NONE {
            let (bi, oi) = (sites[s as usize].0 as usize, sites[s as usize].1 as usize);
            dead[start[bi] + oi] = true;
            f.blocks[bi].ops[oi].for_each_use(|u| {
                uses[u.index()] -= 1;
                if uses[u.index()] == 0 && head[u.index()] != NONE {
                    work.push(u.index());
                }
            });
            s = next[s as usize];
        }
    }
    for (block, &base) in f.blocks.iter_mut().zip(&start) {
        let mut i = base;
        block.ops.retain(|_| {
            i += 1;
            !dead[i - 1]
        });
    }
}

/// List terminator for [`run`]'s def lists.
const NONE: u32 = u32::MAX;

/// True if removing the operation (given its result is unused) cannot
/// change observable behaviour. Loads are pure here because DSP-C has
/// no volatile memory and the simulator traps out-of-bounds accesses
/// only for addresses the program actually issues.
fn is_pure(op: &Op) -> bool {
    !matches!(
        op,
        Op::Store { .. } | Op::Call { .. } | Op::Br { .. } | Op::Jmp(_) | Op::Ret(_)
    )
}

/// Faint-variable dead-definition elimination.
///
/// Standard liveness keeps a loop's `v = v + 1` alive forever: the use
/// of `v` feeds its own definition around the back edge. Faint-variable
/// analysis breaks the cycle — a *pure* operation's uses only become
/// live when its own definition is live. Side-effecting operations
/// (stores, calls, branches) are the roots. Catches derived
/// induction-variable updates whose value is only consumed before the
/// loop, which use-count DCE cannot see.
pub fn run_liveness(f: &mut Function) {
    let n = f.blocks.len();
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| {
            b.terminator()
                .map(|t| t.successors().iter().map(|s| s.index()).collect())
                .unwrap_or_default()
        })
        .collect();
    // Backward transfer over a block given live-out.
    let transfer = |block: &dsp_ir::Block, live_out: &HashSet<VReg>| -> HashSet<VReg> {
        let mut live = live_out.clone();
        for op in block.ops.iter().rev() {
            match op.def() {
                Some(d) if is_pure(op) => {
                    if live.remove(&d) {
                        live.extend(op.uses());
                    }
                }
                Some(d) => {
                    live.remove(&d);
                    live.extend(op.uses());
                }
                None => live.extend(op.uses()),
            }
        }
        live
    };
    // Fixpoint of live-in sets.
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out: HashSet<VReg> = HashSet::new();
            for &s in &succs[b] {
                out.extend(live_in[s].iter().copied());
            }
            let inn = transfer(&f.blocks[b], &out);
            if inn != live_in[b] {
                live_in[b] = inn;
                changed = true;
            }
        }
    }
    // Sweep.
    for (b, block_succs) in succs.iter().enumerate() {
        let mut live: HashSet<VReg> = HashSet::new();
        for &s in block_succs {
            live.extend(live_in[s].iter().copied());
        }
        let block = &mut f.blocks[b];
        let mut keep: Vec<bool> = vec![true; block.ops.len()];
        for (oi, op) in block.ops.iter().enumerate().rev() {
            match op.def() {
                Some(d) if is_pure(op) => {
                    if live.remove(&d) {
                        live.extend(op.uses());
                    } else {
                        keep[oi] = false;
                    }
                }
                Some(d) => {
                    live.remove(&d);
                    live.extend(op.uses());
                }
                None => live.extend(op.uses()),
            }
        }
        let mut it = keep.iter();
        block.ops.retain(|_| *it.next().expect("keep aligns"));
    }
}

/// Delete blocks unreachable from the entry and renumber the rest.
pub fn remove_unreachable(f: &mut Function) {
    let cfg = Cfg::build(f);
    let reachable: Vec<bool> = (0..f.blocks.len())
        .map(|i| cfg.is_reachable(BlockId(i as u32)))
        .collect();
    if reachable.iter().all(|&r| r) {
        return;
    }
    // Build the renumbering map.
    let mut remap: Vec<Option<BlockId>> = Vec::with_capacity(f.blocks.len());
    let mut next = 0u32;
    for &r in &reachable {
        if r {
            remap.push(Some(BlockId(next)));
            next += 1;
        } else {
            remap.push(None);
        }
    }
    let map = |b: BlockId| remap[b.index()].expect("reachable target");
    let mut new_blocks = Vec::with_capacity(next as usize);
    for (i, block) in f.blocks.drain(..).enumerate() {
        if reachable[i] {
            new_blocks.push(block);
        }
    }
    for block in &mut new_blocks {
        if let Some(op) = block.ops.last_mut() {
            match op {
                Op::Br {
                    then_bb, else_bb, ..
                } => {
                    *then_bb = map(*then_bb);
                    *else_bb = map(*else_bb);
                }
                Op::Jmp(b) => *b = map(*b),
                _ => {}
            }
        }
    }
    f.entry = map(f.entry);
    f.blocks = new_blocks;
}

/// Executable specification: the fixed-point loop [`run`] replaced.
/// Each round removes every pure op whose def nothing reads, and the
/// rounds repeat until one removes nothing.
#[cfg(test)]
pub(crate) fn run_spec(f: &mut Function) {
    loop {
        let mut used: HashSet<VReg> = HashSet::new();
        for block in &f.blocks {
            for op in &block.ops {
                used.extend(op.uses());
            }
        }
        let mut removed = false;
        for block in &mut f.blocks {
            block.ops.retain(|op| {
                let dead = match op.def() {
                    Some(d) => !used.contains(&d) && is_pure(op),
                    None => false,
                };
                if dead {
                    removed = true;
                }
                !dead
            });
        }
        if !removed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_ir::ops::IOperand;
    use dsp_ir::Type;

    #[test]
    fn worklist_matches_the_fixed_point_on_generated_programs() {
        let changed = super::super::check_pass_on_generated("dce", 600, |before, after| {
            let mut want = before.clone();
            run_spec(&mut want);
            assert_eq!(after.dump(), want.dump(), "input:\n{}", before.dump());
        });
        assert!(changed > 200, "only {changed} DCE runs removed anything");
    }

    #[test]
    fn removes_dead_chain() {
        let mut f = Function::new("t");
        let a = f.new_vreg(Type::Int);
        let b = f.new_vreg(Type::Int);
        let e = f.entry;
        // a = 1; b = a + a; (both dead) ; ret
        f.block_mut(e).push(Op::MovI {
            dst: a,
            src: IOperand::Imm(1),
        });
        f.block_mut(e).push(Op::IBin {
            kind: dsp_machine::IntBinKind::Add,
            dst: b,
            lhs: a,
            rhs: IOperand::Reg(a),
        });
        f.block_mut(e).push(Op::Ret(None));
        run(&mut f);
        assert_eq!(f.blocks[0].ops.len(), 1);
    }

    #[test]
    fn keeps_stores_and_calls() {
        let mut f = Function::new("t");
        let a = f.new_vreg(Type::Int);
        let e = f.entry;
        f.block_mut(e).push(Op::MovI {
            dst: a,
            src: IOperand::Imm(1),
        });
        f.block_mut(e).push(Op::Store {
            src: a,
            addr: dsp_ir::MemRef::direct(dsp_ir::MemBase::Global(dsp_ir::GlobalId(0)), 0),
        });
        f.block_mut(e).push(Op::Ret(None));
        run(&mut f);
        assert_eq!(f.blocks[0].ops.len(), 3);
    }

    #[test]
    fn unreachable_blocks_removed_and_renumbered() {
        let mut f = Function::new("t");
        let dead = f.new_block();
        let live = f.new_block();
        let e = f.entry;
        f.block_mut(e).push(Op::Jmp(live));
        f.block_mut(dead).push(Op::Ret(None));
        f.block_mut(live).push(Op::Ret(None));
        remove_unreachable(&mut f);
        assert_eq!(f.blocks.len(), 2);
        // live was bb2; now bb1, and the jump must follow.
        assert_eq!(f.blocks[0].ops[0], Op::Jmp(BlockId(1)));
    }

    #[test]
    fn dead_load_removed() {
        let mut f = Function::new("t");
        let a = f.new_vreg(Type::Int);
        let e = f.entry;
        f.block_mut(e).push(Op::Load {
            dst: a,
            addr: dsp_ir::MemRef::direct(dsp_ir::MemBase::Global(dsp_ir::GlobalId(0)), 0),
        });
        f.block_mut(e).push(Op::Ret(None));
        run(&mut f);
        assert_eq!(f.blocks[0].ops.len(), 1, "unused load should die");
    }
}
