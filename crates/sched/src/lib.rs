#![warn(missing_docs)]
//! List-scheduling operation compaction (paper Figure 3).
//!
//! This crate implements the local compaction algorithm the paper bases
//! on list scheduling from local microcode compaction [Landskov et al.
//! 1980]. The same engine serves three masters:
//!
//! 1. the **trial compaction** of the data-allocation pass, which runs
//!    with every memory operation pinned to one bank and *observes* each
//!    pair of memory operations that was data-compatible but could not
//!    share the single memory unit — those pairs become interference-
//!    graph edges (or duplication candidates);
//! 2. the **final compaction** of the back-end, which packs operations
//!    into VLIW instructions honouring the bank assignments the
//!    partitioner produced; and
//! 3. the **Ideal** (dual-ported memory) configuration, where a memory
//!    operation may use either memory unit regardless of its bank.
//!
//! The algorithm per basic block: build the data-dependence graph,
//! assign every operation a priority equal to its number of descendants,
//! then repeatedly (a) compute the data-ready set (DRS), (b) sort it by
//! priority, and (c) fill one new long instruction with every DRS
//! operation that is *data-compatible* (no flow/output dependence on an
//! operation in the instruction being filled; anti dependences are
//! allowed because reads happen before writes within a cycle) and
//! *function-unit-compatible* (a unit it can execute on is still free).

use dsp_ir::depgraph::DepEdge;
use dsp_machine::{Bank, FuncUnit, UnitClass};

/// Which memory unit(s) a memory operation may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClaim {
    /// Must use the unit of this bank (X→MU0, Y→MU1).
    Fixed(Bank),
    /// May use either unit (duplicated data, or dual-ported memory).
    Either,
}

/// The resource an operation needs for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClaim {
    /// A specific unit (e.g. the PCU).
    Unit(FuncUnit),
    /// Any unit of a class (integer, float, address ops).
    Class(UnitClass),
    /// A memory unit, constrained by bank placement.
    Mem(MemClaim),
    /// *Both* memory units at once — the interrupt-safe duplicated
    /// store, which updates the X and Y copies in a single cycle so no
    /// interrupt can ever observe them out of sync (paper §3.2's
    /// store-lock/store-unlock concern, resolved in hardware-free
    /// form).
    MemPair,
}

/// A scheduling problem: `n` operations with dependence `edges` and
/// per-operation resource `claims`.
#[derive(Debug, Clone)]
pub struct CompactInput<'a> {
    /// Dependence edges among the operations (indices `0..claims.len()`).
    pub edges: &'a [DepEdge],
    /// Resource claim of each operation.
    pub claims: &'a [OpClaim],
    /// Scheduling priority of each operation (typically the descendant
    /// count from [`dsp_ir::depgraph::priorities`]). Higher first.
    pub priorities: &'a [u32],
}

/// The result of compaction: operations grouped into cycles with their
/// assigned functional units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// For each cycle, the `(operation index, unit)` pairs issued.
    pub cycles: Vec<Vec<(usize, FuncUnit)>>,
    /// Cycle each operation issues in.
    pub op_cycle: Vec<usize>,
    /// Unit each operation was assigned.
    pub op_unit: Vec<FuncUnit>,
}

impl Schedule {
    /// Number of long instructions (cycles) in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True if the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Check that no dependence is violated: flow/output predecessors
    /// issue strictly earlier, anti/control predecessors no later.
    ///
    /// # Errors
    ///
    /// Describes the first violated edge.
    pub fn check(&self, edges: &[DepEdge]) -> Result<(), String> {
        for e in edges {
            let (cf, ct) = (self.op_cycle[e.from], self.op_cycle[e.to]);
            let ok = if e.kind.allows_same_cycle() {
                cf <= ct
            } else {
                cf < ct
            };
            if !ok {
                return Err(format!(
                    "edge {}->{} ({:?}) violated: cycles {cf} -> {ct}",
                    e.from, e.to, e.kind
                ));
            }
        }
        Ok(())
    }
}

/// A scheduling error (the dependence graph was not a DAG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactError {
    /// Indices of the operations that could never become ready.
    pub stuck: Vec<usize>,
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compaction stuck: operations {:?} never became ready (dependence cycle)",
            self.stuck
        )
    }
}

impl std::error::Error for CompactError {}

/// Compact operations into long instructions.
///
/// `mem_conflict` is the hook of the data-allocation trial pass: it is
/// invoked as `mem_conflict(resident, candidate)` whenever memory
/// operation `candidate` was data-compatible with the instruction being
/// filled but its (unique) memory unit was already taken by memory
/// operation `resident` — exactly the situation in which the paper adds
/// an interference edge between the two variables (or marks the variable
/// for duplication if both access the same one). Pass `None` for final
/// compaction.
///
/// The data-ready set is kept, not rebuilt: every operation counts its
/// unplaced strict (flow/output) and same-cycle (anti/control)
/// predecessor edges. An operation joins the ready list at the end of
/// the cycle that places its last strict predecessor, and the list is
/// sorted by `(Reverse(priority), index)` at the start of each cycle.
/// Walking it in that order, an operation is data-compatible once its
/// same-cycle count is zero; the count drops the moment a predecessor is
/// placed, so an anti predecessor placed earlier in the same walk
/// admits it and one that sorts after it defers it to a later cycle.
/// The cost is `O(n + e)` plus, per cycle, one walk of the ready list
/// and one sort that merges the new arrivals into it.
///
/// # Errors
///
/// Returns [`CompactError`] if the dependence edges contain a cycle.
pub fn compact(
    input: &CompactInput<'_>,
    mut mem_conflict: Option<&mut dyn FnMut(usize, usize)>,
) -> Result<Schedule, CompactError> {
    const UNPLACED: usize = usize::MAX;
    let n = input.claims.len();

    // Successor lists in compressed-row form, each entry tagged with
    // whether the edge is strict; per-operation predecessor counts.
    let mut start = vec![0u32; n + 1];
    let mut strict_left = vec![0u32; n];
    let mut same_left = vec![0u32; n];
    for e in input.edges {
        start[e.from + 1] += 1;
        if e.kind.allows_same_cycle() {
            same_left[e.to] += 1;
        } else {
            strict_left[e.to] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut succ = vec![(0u32, false); input.edges.len()];
    for e in input.edges {
        succ[fill[e.from] as usize] = (e.to as u32, !e.kind.allows_same_cycle());
        fill[e.from] += 1;
    }
    let succs = |i: usize| &succ[start[i] as usize..start[i + 1] as usize];

    let mut op_cycle = vec![UNPLACED; n];
    let mut op_unit = vec![FuncUnit::Pcu; n];
    let mut cycles: Vec<Vec<(usize, FuncUnit)>> = Vec::new();
    let mut ready: Vec<usize> = (0..n).filter(|&i| strict_left[i] == 0).collect();
    let mut remaining = n;

    while remaining > 0 {
        let t = cycles.len();
        // Highest priority first; ties broken by program order to keep
        // the algorithm deterministic. The list is the last cycle's
        // sorted survivors plus the new arrivals at its end, which the
        // run-detecting stable sort merges in one pass.
        ready.sort_by_key(|&i| (std::cmp::Reverse(input.priorities[i]), i));

        let mut inst: Vec<(usize, FuncUnit)> = Vec::new();
        let mut used = [false; dsp_machine::NUM_FUNC_UNITS];
        let mut resident_mem: Option<usize> = None;

        for &i in &ready {
            if same_left[i] != 0 {
                continue; // an anti/control predecessor is not placed yet
            }
            let claim = input.claims[i];
            let free = |u: FuncUnit| (!used[u as usize]).then_some(u);
            let unit = match claim {
                // A MemPair needs both memory units in the same cycle.
                OpClaim::MemPair => {
                    if used[FuncUnit::Mu0 as usize] || used[FuncUnit::Mu1 as usize] {
                        continue;
                    }
                    used[FuncUnit::Mu1 as usize] = true;
                    Some(FuncUnit::Mu0)
                }
                OpClaim::Unit(u) => free(u),
                OpClaim::Class(c) => c.units().iter().copied().find_map(free),
                OpClaim::Mem(MemClaim::Fixed(Bank::X)) => free(FuncUnit::Mu0),
                OpClaim::Mem(MemClaim::Fixed(Bank::Y)) => free(FuncUnit::Mu1),
                OpClaim::Mem(MemClaim::Either) => {
                    UnitClass::Mem.units().iter().copied().find_map(free)
                }
            };
            let is_mem = matches!(claim, OpClaim::Mem(_) | OpClaim::MemPair);
            match unit {
                Some(u) => {
                    used[u as usize] = true;
                    inst.push((i, u));
                    op_cycle[i] = t;
                    op_unit[i] = u;
                    if is_mem && resident_mem.is_none() {
                        resident_mem = Some(i);
                    }
                    for &(s, strict) in succs(i) {
                        if !strict {
                            same_left[s as usize] -= 1;
                        }
                    }
                }
                None => {
                    // Unit taken. For memory operations this is the
                    // event the data-allocation pass listens for.
                    if is_mem {
                        if let (Some(res), Some(observer)) = (resident_mem, mem_conflict.as_mut()) {
                            observer(res, i);
                        }
                    }
                }
            }
        }

        if inst.is_empty() {
            let stuck: Vec<usize> = (0..n).filter(|&i| op_cycle[i] == UNPLACED).collect();
            return Err(CompactError { stuck });
        }
        ready.retain(|&i| op_cycle[i] == UNPLACED);
        for &(i, _) in &inst {
            for &(s, strict) in succs(i) {
                if strict {
                    strict_left[s as usize] -= 1;
                    if strict_left[s as usize] == 0 {
                        ready.push(s as usize);
                    }
                }
            }
        }
        remaining -= inst.len();
        cycles.push(inst);
    }

    Ok(Schedule {
        cycles,
        op_cycle,
        op_unit,
    })
}

/// Convenience wrapper: compact one IR basic block.
///
/// Builds the dependence graph and priorities from `ops`, derives each
/// operation's claim (memory claims taken from `mem_claims`, which must
/// supply one entry per *memory* operation in program order), and runs
/// [`compact`].
///
/// # Errors
///
/// Propagates [`CompactError`] from [`compact`].
///
/// # Panics
///
/// Panics if `mem_claims` is shorter than the number of memory
/// operations in `ops`.
pub fn compact_ir_block(
    ops: &[dsp_ir::ops::Op],
    mem_claims: &[MemClaim],
    mem_conflict: Option<&mut dyn FnMut(usize, usize)>,
) -> Result<Schedule, CompactError> {
    let graph = dsp_ir::DepGraph::build(ops);
    let priorities = graph.priorities();
    let claims = ir_claims(ops, mem_claims);
    let input = CompactInput {
        edges: graph.edges(),
        claims: &claims,
        priorities: &priorities,
    };
    compact(&input, mem_conflict)
}

/// Derive [`OpClaim`]s for IR operations. `mem_claims` supplies the bank
/// constraint of each memory operation, in program order.
///
/// # Panics
///
/// Panics if `mem_claims` is shorter than the number of memory
/// operations in `ops`.
#[must_use]
pub fn ir_claims(ops: &[dsp_ir::ops::Op], mem_claims: &[MemClaim]) -> Vec<OpClaim> {
    let mut next_mem = 0usize;
    ops.iter()
        .map(|op| match op.unit_class() {
            Some(UnitClass::Mem) => {
                let claim = mem_claims[next_mem];
                next_mem += 1;
                OpClaim::Mem(claim)
            }
            Some(UnitClass::Pcu) | None => OpClaim::Unit(FuncUnit::Pcu),
            Some(c) => OpClaim::Class(c),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_ir::ids::{GlobalId, VReg};
    use dsp_ir::ops::{IOperand, MemBase, MemRef, Op};
    use dsp_machine::IntBinKind;

    fn load(dst: u32, g: u32) -> Op {
        Op::Load {
            dst: VReg(dst),
            addr: MemRef::direct(MemBase::Global(GlobalId(g)), 0),
        }
    }

    fn movi(dst: u32, imm: i32) -> Op {
        Op::MovI {
            dst: VReg(dst),
            src: IOperand::Imm(imm),
        }
    }

    fn add(dst: u32, lhs: u32, rhs: u32) -> Op {
        Op::IBin {
            kind: IntBinKind::Add,
            dst: VReg(dst),
            lhs: VReg(lhs),
            rhs: IOperand::Reg(VReg(rhs)),
        }
    }

    #[test]
    fn independent_int_ops_pack_two_per_cycle() {
        // Four independent integer moves, two DUs available.
        let ops = vec![movi(0, 1), movi(1, 2), movi(2, 3), movi(3, 4)];
        let sched = compact_ir_block(&ops, &[], None).unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.cycles[0].len(), 2);
    }

    #[test]
    fn flow_dependence_serializes() {
        let ops = vec![movi(0, 1), add(1, 0, 0), add(2, 1, 1)];
        let sched = compact_ir_block(&ops, &[], None).unwrap();
        assert_eq!(sched.len(), 3);
        let graph = dsp_ir::DepGraph::build(&ops);
        sched.check(graph.edges()).unwrap();
    }

    #[test]
    fn anti_dependent_ops_share_cycle() {
        // op0 reads %0, op1 overwrites %0: anti dep -> same cycle legal.
        let ops = vec![add(1, 0, 0), movi(0, 5)];
        let sched = compact_ir_block(&ops, &[], None).unwrap();
        assert_eq!(sched.len(), 1, "{sched:?}");
        let graph = dsp_ir::DepGraph::build(&ops);
        sched.check(graph.edges()).unwrap();
    }

    #[test]
    fn same_bank_loads_serialize_and_report_conflict() {
        let ops = vec![load(0, 0), load(1, 1)];
        let mut conflicts = Vec::new();
        let mut obs = |a: usize, b: usize| conflicts.push((a, b));
        let sched = compact_ir_block(
            &ops,
            &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::X)],
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(conflicts, vec![(0, 1)]);
    }

    #[test]
    fn different_bank_loads_pack_together() {
        let ops = vec![load(0, 0), load(1, 1)];
        let sched = compact_ir_block(
            &ops,
            &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::Y)],
            None,
        )
        .unwrap();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.op_unit[0], FuncUnit::Mu0);
        assert_eq!(sched.op_unit[1], FuncUnit::Mu1);
    }

    #[test]
    fn dual_ported_memory_packs_same_bank_loads() {
        let ops = vec![load(0, 0), load(1, 1)];
        let sched = compact_ir_block(&ops, &[MemClaim::Either, MemClaim::Either], None).unwrap();
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn three_loads_two_units() {
        let ops = vec![load(0, 0), load(1, 1), load(2, 2)];
        let sched = compact_ir_block(
            &ops,
            &[MemClaim::Either, MemClaim::Either, MemClaim::Either],
            None,
        )
        .unwrap();
        assert_eq!(sched.len(), 2);
    }

    #[test]
    fn terminator_shares_final_cycle() {
        let ops = vec![movi(0, 1), Op::Ret(None)];
        let sched = compact_ir_block(&ops, &[], None).unwrap();
        assert_eq!(sched.len(), 1, "control dep allows same cycle: {sched:?}");
    }

    #[test]
    fn priority_prefers_long_chain() {
        // Chain of 3 (high priority head) + 2 independent movs competing
        // for the 2 DU slots. The chain head must win a slot in cycle 0.
        let ops = vec![
            movi(9, 7),   // independent
            movi(8, 7),   // independent
            movi(0, 1),   // chain head, priority 2
            add(1, 0, 0), // chain
            add(2, 1, 1), // chain
        ];
        let sched = compact_ir_block(&ops, &[], None).unwrap();
        assert_eq!(sched.op_cycle[2], 0, "{sched:?}");
        // Total: chain takes 3 cycles; independents fill slack.
        assert_eq!(sched.len(), 3);
    }

    #[test]
    fn observer_sees_multiple_conflicts_in_one_drs() {
        let ops = vec![load(0, 0), load(1, 1), load(2, 2)];
        let mut conflicts = Vec::new();
        let mut obs = |a: usize, b: usize| conflicts.push((a, b));
        let claims = [
            MemClaim::Fixed(Bank::X),
            MemClaim::Fixed(Bank::X),
            MemClaim::Fixed(Bank::X),
        ];
        let sched = compact_ir_block(&ops, &claims, Some(&mut obs)).unwrap();
        assert_eq!(sched.len(), 3);
        // Cycle 0: op0 resident, ops 1 and 2 conflict with it.
        // Cycle 1: op1 resident, op2 conflicts with it.
        assert_eq!(conflicts, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn schedule_check_catches_violation() {
        let ops = vec![movi(0, 1), add(1, 0, 0)];
        let graph = dsp_ir::DepGraph::build(&ops);
        let bogus = Schedule {
            cycles: vec![vec![(0, FuncUnit::Du0), (1, FuncUnit::Du1)]],
            op_cycle: vec![0, 0],
            op_unit: vec![FuncUnit::Du0, FuncUnit::Du1],
        };
        assert!(bogus.check(graph.edges()).is_err());
    }

    #[test]
    fn anti_predecessor_sorting_later_defers_its_successor() {
        // op0 reads a register that op1 overwrites (anti 0 -> 1). When
        // op1 has the higher priority it is visited first, before op0 is
        // placed, and waits a cycle; in program priority order the two
        // share one.
        let edges = [DepEdge {
            from: 0,
            to: 1,
            kind: dsp_ir::DepKind::Anti,
        }];
        let claims = [OpClaim::Class(UnitClass::Int); 2];
        let run = |priorities: &[u32]| {
            let input = CompactInput {
                edges: &edges,
                claims: &claims,
                priorities,
            };
            let sched = compact(&input, None).unwrap();
            sched.check(&edges).unwrap();
            sched.op_cycle
        };
        assert_eq!(run(&[0, 5]), vec![0, 1]);
        assert_eq!(run(&[5, 0]), vec![0, 0]);
    }

    #[test]
    fn units_index_by_discriminant() {
        for (i, &u) in FuncUnit::ALL.iter().enumerate() {
            assert_eq!(u as usize, i, "{u}");
        }
    }

    #[test]
    fn dependence_cycle_reports_the_stuck_operations() {
        let edges = [
            DepEdge {
                from: 1,
                to: 2,
                kind: dsp_ir::DepKind::Flow,
            },
            DepEdge {
                from: 2,
                to: 1,
                kind: dsp_ir::DepKind::Flow,
            },
        ];
        let claims = [OpClaim::Class(UnitClass::Int); 3];
        let input = CompactInput {
            edges: &edges,
            claims: &claims,
            priorities: &[0, 0, 0],
        };
        assert_eq!(compact(&input, None).unwrap_err().stuck, vec![1, 2]);
    }

    #[test]
    fn empty_block_schedules_empty() {
        let sched = compact_ir_block(&[], &[], None).unwrap();
        assert!(sched.is_empty());
    }

    #[test]
    fn mixed_units_fill_one_instruction() {
        // An int op, a float op, a load from X and a load from Y can all
        // share one instruction.
        let ops = vec![
            movi(0, 1),
            Op::MovF {
                dst: VReg(1),
                src: dsp_ir::ops::FOperand::Imm(2.0),
            },
            load(2, 0),
            load(3, 1),
        ];
        // vreg types don't matter for scheduling; claims derive from op kinds.
        let sched = compact_ir_block(
            &ops,
            &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::Y)],
            None,
        )
        .unwrap();
        assert_eq!(sched.len(), 1);
    }
}
