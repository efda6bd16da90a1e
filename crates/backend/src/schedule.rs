//! Final operation compaction: pack each LIR block into VLIW
//! instructions using the bank assignments of the data-allocation pass.
//!
//! Memory operations claim the memory unit of their bank — or either
//! unit when the data is duplicated ([`MemClaim::Either`]) or the
//! *Ideal* dual-ported configuration is being compiled. After the list
//! scheduler assigns units, `Either` operations are retargeted to the
//! bank of the unit they landed on.

use std::time::{Duration, Instant};

use dsp_ir::depgraph::DepKind;
use dsp_ir::BlockId;
use dsp_machine::{Bank, FuncUnit, MemOp, PcuOp, Reg, UnitClass, VliwInst, NUM_REGS_PER_FILE};
use dsp_sched::{DepOp, MemClaim, OpClaim, Schedule, Scratch};

use crate::lir::{AliasKey, LirOp};

/// The terminator shape of a scheduled block, resolved by the linker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockTerm {
    /// Falls through or jumps to a block.
    Jump(BlockId),
    /// Conditional branch.
    Br {
        /// Condition register.
        cond: dsp_machine::IReg,
        /// Taken target.
        then_bb: BlockId,
        /// Not-taken target.
        else_bb: BlockId,
    },
    /// Function return (already a concrete [`PcuOp::Ret`] in the
    /// instruction stream).
    Ret,
}

/// One block compacted into VLIW instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledBlock {
    /// The instructions; the terminator's PCU op (if any) sits in the
    /// last one as a placeholder and is finalized by the linker.
    pub insts: Vec<VliwInst>,
    /// The block terminator to resolve.
    pub term: BlockTerm,
    /// `(instruction index, callee)` pairs whose `call` target the
    /// linker must patch.
    pub call_fixups: Vec<(usize, dsp_ir::FuncId)>,
}

/// Wall time of each part of final compaction, summed over blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackTimes {
    /// Dependence edges ([`Scratch::build`]).
    pub deps: Duration,
    /// Descendant-count priorities.
    pub priorities: Duration,
    /// List scheduling and instruction assembly.
    pub compact: Duration,
}

/// Machine-level operations over physical registers. A register's slot
/// is its index within its file, offset by the file; a memory access
/// conflicts with another only in a bank both may touch, and a call's
/// argument reads last while the callee runs.
impl DepOp for LirOp {
    fn for_each_read_slot(&self, mut f: impl FnMut(usize)) {
        self.for_each_read(|r| f(slot(r)));
    }

    fn for_each_write_slot(&self, mut f: impl FnMut(usize)) {
        self.for_each_write(|r| f(slot(r)));
    }

    fn mem_store(&self) -> Option<bool> {
        match self {
            LirOp::Mem { op, .. } => Some(op.is_store()),
            LirOp::DupStorePair { .. } => Some(true),
            _ => None,
        }
    }

    fn may_conflict(&self, other: &LirOp) -> bool {
        let (Some((claim_a, alias_a)), Some((claim_b, alias_b))) =
            (placement(self), placement(other))
        else {
            return false;
        };
        // The two banks are physically distinct memories.
        let banks_meet = match (claim_a, claim_b) {
            (Some(a), Some(b)) => claims_intersect(a, b),
            _ => true, // a dup pair touches both banks
        };
        banks_meet && alias_a.may_overlap(alias_b)
    }

    fn is_call(&self) -> bool {
        matches!(self, LirOp::Call { .. })
    }

    fn is_terminator(&self) -> bool {
        LirOp::is_terminator(self)
    }

    fn write_after_read(&self) -> DepKind {
        // A call "reads" its argument registers during the many cycles
        // the callee executes, so a later write may not share its issue
        // cycle: the usual same-cycle tolerance of anti dependences does
        // not apply.
        if self.is_call() {
            DepKind::Output
        } else {
            DepKind::Anti
        }
    }
}

fn slot(r: Reg) -> usize {
    let file = match r {
        Reg::Addr(_) => 0,
        Reg::Int(_) => 1,
        Reg::Float(_) => 2,
    };
    file * NUM_REGS_PER_FILE + r.index()
}

fn claims_intersect(a: MemClaim, b: MemClaim) -> bool {
    match (a, b) {
        (MemClaim::Fixed(x), MemClaim::Fixed(y)) => x == y,
        _ => true,
    }
}

/// `(bank claim, alias)` of a memory-touching operation; `None` claim
/// means both banks (the dup store pair).
fn placement(op: &LirOp) -> Option<(Option<MemClaim>, &AliasKey)> {
    match op {
        LirOp::Mem { meta, .. } => Some((Some(meta.claim), &meta.alias)),
        LirOp::DupStorePair { alias, .. } => Some((None, alias)),
        _ => None,
    }
}

/// Resource claim of one operation. With `ideal`, memory operations may
/// use either unit (the paper's dual-ported memory).
#[must_use]
pub fn claim(op: &LirOp, ideal: bool) -> OpClaim {
    match op {
        LirOp::Int(_) => OpClaim::Class(UnitClass::Int),
        LirOp::Fp(_) => OpClaim::Class(UnitClass::Fp),
        LirOp::Addr(_) => OpClaim::Class(UnitClass::Addr),
        LirOp::Mem { meta, .. } => OpClaim::Mem(if ideal { MemClaim::Either } else { meta.claim }),
        LirOp::DupStorePair { .. } => OpClaim::MemPair,
        LirOp::Jump(_) | LirOp::Br { .. } | LirOp::Call { .. } | LirOp::Ret { .. } => {
            OpClaim::Unit(FuncUnit::Pcu)
        }
    }
}

/// Compact one LIR block through `scratch`, adding the time of each
/// part to `times`.
pub fn schedule_block(
    ops: &[LirOp],
    ideal: bool,
    scratch: &mut Scratch,
    times: &mut PackTimes,
) -> ScheduledBlock {
    let t0 = Instant::now();
    scratch.build(ops);
    let t1 = Instant::now();
    scratch.rank();
    let t2 = Instant::now();
    let sched = scratch.compact(ops.iter().map(|op| claim(op, ideal)), None);
    let block = assemble(ops, sched, ideal);
    times.deps += t1 - t0;
    times.priorities += t2 - t1;
    times.compact += t2.elapsed();
    block
}

/// Place each operation of `ops` in the instruction and unit `sched`
/// gives it.
fn assemble(ops: &[LirOp], sched: Schedule<'_>, ideal: bool) -> ScheduledBlock {
    let mut insts = vec![VliwInst::new(); sched.len()];
    let mut term = BlockTerm::Ret;
    let mut have_term = false;
    let mut call_fixups = Vec::new();
    for (idx, op) in ops.iter().enumerate() {
        let cycle = sched.op_cycle[idx];
        let unit = sched.op_unit[idx];
        let inst = &mut insts[cycle];
        match op {
            LirOp::Int(o) => match unit {
                FuncUnit::Du0 => inst.du0 = Some(*o),
                FuncUnit::Du1 => inst.du1 = Some(*o),
                u => unreachable!("int op on {u}"),
            },
            LirOp::Fp(o) => match unit {
                FuncUnit::Fpu0 => inst.fpu0 = Some(*o),
                FuncUnit::Fpu1 => inst.fpu1 = Some(*o),
                u => unreachable!("fp op on {u}"),
            },
            LirOp::Addr(o) => match unit {
                FuncUnit::Au0 => inst.au0 = Some(*o),
                FuncUnit::Au1 => inst.au1 = Some(*o),
                u => unreachable!("addr op on {u}"),
            },
            LirOp::DupStorePair { x, y, .. } => {
                debug_assert_eq!(unit, FuncUnit::Mu0, "pair anchors on MU0");
                inst.mu0 = Some(*x);
                inst.mu1 = Some(*y);
            }
            LirOp::Mem { op: o, .. } => {
                // A duplicated datum has a copy in each bank, so an
                // `Either` operation is retargeted to the bank of the
                // unit it landed on. Under the Ideal (dual-ported)
                // configuration the data has a single home: the bank
                // stays put and only the *unit* assignment is free.
                let emitted = if ideal { *o } else { retarget(o, unit) };
                match unit {
                    FuncUnit::Mu0 => inst.mu0 = Some(emitted),
                    FuncUnit::Mu1 => inst.mu1 = Some(emitted),
                    u => unreachable!("mem op on {u}"),
                }
            }
            LirOp::Jump(t) => {
                // Placeholder; resolved by the linker (and possibly
                // dropped for fallthrough).
                inst.pcu = Some(PcuOp::Jump(dsp_machine::InstAddr(u32::MAX)));
                term = BlockTerm::Jump(*t);
                have_term = true;
            }
            LirOp::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                inst.pcu = Some(PcuOp::BranchNz {
                    cond: *cond,
                    target: dsp_machine::InstAddr(u32::MAX),
                });
                term = BlockTerm::Br {
                    cond: *cond,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                };
                have_term = true;
            }
            LirOp::Call { callee, .. } => {
                inst.pcu = Some(PcuOp::Call(dsp_machine::InstAddr(u32::MAX)));
                call_fixups.push((cycle, *callee));
            }
            LirOp::Ret { .. } => {
                inst.pcu = Some(PcuOp::Ret);
                term = BlockTerm::Ret;
                have_term = true;
            }
        }
    }
    debug_assert!(have_term || ops.is_empty(), "block lacks a terminator");
    ScheduledBlock {
        insts,
        term,
        call_fixups,
    }
}

fn retarget(op: &MemOp, unit: FuncUnit) -> MemOp {
    let bank = match unit {
        FuncUnit::Mu0 => Bank::X,
        FuncUnit::Mu1 => Bank::Y,
        u => unreachable!("mem op on {u}"),
    };
    match *op {
        MemOp::Load { dst, addr, .. } => MemOp::Load { dst, addr, bank },
        MemOp::Store { src, addr, .. } => MemOp::Store { src, addr, bank },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::MemMeta;
    use dsp_bankalloc::Var;
    use dsp_ir::depgraph::DepEdge;
    use dsp_ir::ops::{MemBase, MemRef};
    use dsp_ir::GlobalId;
    use dsp_machine::{AReg, FReg, FpOp, IReg, IntBinKind, IntOp, IntOperand, MemAddr};

    fn load(g: u32, bank: Bank, claim: MemClaim, dst: u8) -> LirOp {
        LirOp::Mem {
            op: MemOp::Load {
                dst: Reg::Int(IReg(dst)),
                addr: MemAddr::Absolute(0),
                bank,
            },
            meta: MemMeta {
                alias: AliasKey::Class(
                    Var::Global(GlobalId(g)),
                    MemRef::direct(MemBase::Global(GlobalId(g)), 0),
                ),
                claim,
            },
        }
    }

    fn pack(ops: &[LirOp], ideal: bool) -> ScheduledBlock {
        schedule_block(ops, ideal, &mut Scratch::new(), &mut PackTimes::default())
    }

    fn edges_of(ops: &[LirOp]) -> Vec<DepEdge> {
        let mut scratch = Scratch::new();
        scratch.build(ops);
        scratch.edges().collect()
    }

    fn jump() -> LirOp {
        LirOp::Jump(BlockId(0))
    }

    #[test]
    fn cross_bank_loads_pack() {
        let ops = vec![
            load(0, Bank::X, MemClaim::Fixed(Bank::X), 9),
            load(1, Bank::Y, MemClaim::Fixed(Bank::Y), 10),
            jump(),
        ];
        let s = pack(&ops, false);
        assert_eq!(s.insts.len(), 1);
        assert!(s.insts[0].mu0.is_some() && s.insts[0].mu1.is_some());
    }

    #[test]
    fn same_bank_loads_serialize_unless_ideal() {
        let ops = vec![
            load(0, Bank::X, MemClaim::Fixed(Bank::X), 9),
            load(1, Bank::X, MemClaim::Fixed(Bank::X), 10),
            jump(),
        ];
        let normal = pack(&ops, false);
        assert_eq!(normal.insts.len(), 2);
        let ideal = pack(&ops, true);
        assert_eq!(ideal.insts.len(), 1);
    }

    #[test]
    fn either_claim_load_retargets_bank() {
        // Two loads of a duplicated array: both claim Either; one must
        // land on MU1 and be rewritten to bank Y.
        let ops = vec![
            load(0, Bank::X, MemClaim::Either, 9),
            load(0, Bank::X, MemClaim::Either, 10),
            jump(),
        ];
        let s = pack(&ops, false);
        assert_eq!(s.insts.len(), 1);
        let mu1 = s.insts[0].mu1.expect("second load on MU1");
        assert_eq!(mu1.bank(), Bank::Y, "retargeted to the Y copy");
        assert!(s.insts[0].check_bank_discipline(false).is_ok());
    }

    #[test]
    fn dup_store_pair_shares_cycle() {
        // Store to both copies of a duplicated variable: X and Y stores
        // are independent (different memories) and pack together.
        let st = |bank: Bank| LirOp::Mem {
            op: MemOp::Store {
                src: Reg::Int(IReg(9)),
                addr: MemAddr::Absolute(4),
                bank,
            },
            meta: MemMeta {
                alias: AliasKey::Class(
                    Var::Global(GlobalId(0)),
                    MemRef::direct(MemBase::Global(GlobalId(0)), 4),
                ),
                claim: MemClaim::Fixed(bank),
            },
        };
        let ops = vec![st(Bank::X), st(Bank::Y), jump()];
        let s = pack(&ops, false);
        assert_eq!(s.insts.len(), 1, "bookkeeping store packs for free here");
    }

    #[test]
    fn flow_dependent_chain_spans_cycles() {
        let ops = vec![
            LirOp::Int(IntOp::MovImm {
                dst: IReg(9),
                imm: 1,
            }),
            LirOp::Int(IntOp::Mov {
                dst: IReg(10),
                src: IReg(9),
            }),
            jump(),
        ];
        let s = pack(&ops, false);
        assert_eq!(s.insts.len(), 2);
    }

    #[test]
    fn call_fixup_recorded() {
        let ops = vec![
            LirOp::Call {
                callee: dsp_ir::FuncId(3),
                reads: vec![],
                ret: None,
            },
            jump(),
        ];
        let s = pack(&ops, false);
        assert_eq!(s.call_fixups, vec![(0, dsp_ir::FuncId(3))]);
    }

    #[test]
    fn branch_recorded_as_term() {
        let ops = vec![LirOp::Br {
            cond: IReg(9),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        }];
        let s = pack(&ops, false);
        assert_eq!(
            s.term,
            BlockTerm::Br {
                cond: IReg(9),
                then_bb: BlockId(1),
                else_bb: BlockId(2)
            }
        );
    }

    fn has(edges: &[DepEdge], from: usize, to: usize, kind: DepKind) -> bool {
        edges.contains(&DepEdge { from, to, kind })
    }

    fn mac(dst: u8, a: u8, b: u8) -> LirOp {
        LirOp::Fp(FpOp::Mac {
            dst: FReg(dst),
            a: FReg(a),
            b: FReg(b),
        })
    }

    fn fmov(dst: u8, src: u8) -> LirOp {
        LirOp::Fp(FpOp::Mov {
            dst: FReg(dst),
            src: FReg(src),
        })
    }

    fn movi(dst: u8) -> LirOp {
        LirOp::Int(IntOp::MovImm {
            dst: IReg(dst),
            imm: 1,
        })
    }

    fn call(arg: u8, ret: Option<u8>) -> LirOp {
        LirOp::Call {
            callee: dsp_ir::FuncId(1),
            reads: vec![Reg::Int(IReg(arg))],
            ret: ret.map(|r| Reg::Int(IReg(r))),
        }
    }

    fn class_alias(g: u32) -> AliasKey {
        AliasKey::Class(
            Var::Global(GlobalId(g)),
            MemRef::direct(MemBase::Global(GlobalId(g)), 0),
        )
    }

    fn store(g: u32, bank: Bank, claim: MemClaim, src: u8, index: u8) -> LirOp {
        LirOp::Mem {
            op: MemOp::Store {
                src: Reg::Int(IReg(src)),
                addr: MemAddr::AbsIndex {
                    addr: 0,
                    index: IReg(index),
                },
                bank,
            },
            meta: MemMeta {
                alias: class_alias(g),
                claim,
            },
        }
    }

    fn dup_pair(g: u32, src: u8) -> LirOp {
        let half = |bank| MemOp::Store {
            src: Reg::Int(IReg(src)),
            addr: MemAddr::Absolute(0),
            bank,
        };
        LirOp::DupStorePair {
            x: half(Bank::X),
            y: half(Bank::Y),
            alias: class_alias(g),
        }
    }

    #[test]
    fn accumulator_read_and_written_by_one_op() {
        // 0 writes f1, 1 reads it, 2 is `f1 += f3 * f4`.
        let ops = vec![fmov(1, 9), fmov(2, 1), mac(1, 3, 4), jump()];
        let edges = edges_of(&ops);
        assert!(has(&edges, 0, 2, DepKind::Flow));
        assert!(has(&edges, 0, 2, DepKind::Output));
        assert!(has(&edges, 1, 2, DepKind::Anti));
        assert!(
            edges.iter().all(|e| e.from < e.to),
            "no self edge: {edges:?}"
        );
        let s = pack(&ops, false);
        assert_eq!(s.insts.len(), 2, "the reader shares the MAC's cycle");
    }

    #[test]
    fn write_of_a_call_argument_is_an_output_dependence() {
        let ops = vec![call(1, None), movi(1), jump()];
        let edges = edges_of(&ops);
        assert!(has(&edges, 0, 1, DepKind::Output), "{edges:?}");
        assert!(!has(&edges, 0, 1, DepKind::Anti), "{edges:?}");
        let s = pack(&ops, false);
        assert!(s.insts[0].du0.is_none() && s.insts[0].du1.is_none());
        assert_eq!(
            s.insts.len(),
            2,
            "the write waits for the call's cycle to pass"
        );
    }

    #[test]
    fn dup_store_pair_meets_both_banks() {
        let ops = vec![
            dup_pair(0, 5),
            load(0, Bank::X, MemClaim::Fixed(Bank::X), 9),
            load(0, Bank::Y, MemClaim::Fixed(Bank::Y), 10),
            store(0, Bank::Y, MemClaim::Fixed(Bank::Y), 5, 6),
            jump(),
        ];
        let edges = edges_of(&ops);
        assert!(has(&edges, 0, 1, DepKind::Flow));
        assert!(has(&edges, 0, 2, DepKind::Flow));
        assert!(has(&edges, 0, 3, DepKind::Output));
        // The X-bank load and the Y-bank store never meet.
        assert!(!edges
            .iter()
            .any(|e| (e.from, e.to) == (1, 3) && e.kind == DepKind::Anti));
    }

    /// `(is_store, bank claim, alias)` of a memory-touching operation;
    /// `None` claim means both banks (the dup store pair).
    fn mem_info(op: &LirOp) -> Option<(bool, Option<MemClaim>, AliasKey)> {
        match op {
            LirOp::Mem { op, meta } => Some((op.is_store(), Some(meta.claim), meta.alias)),
            LirOp::DupStorePair { alias, .. } => Some((true, None, *alias)),
            _ => None,
        }
    }

    /// The all-pairs dependence builder that [`Scratch::build`] reduces,
    /// on LIR blocks: every pair of operations, every register they share.
    fn all_pairs_deps(ops: &[LirOp]) -> Vec<DepEdge> {
        let n = ops.len();
        let mut edges = Vec::new();
        let reads: Vec<Vec<Reg>> = ops.iter().map(LirOp::reads).collect();
        let writes: Vec<Vec<Reg>> = ops.iter().map(LirOp::writes).collect();
        let mut add = |from, to, kind| edges.push(DepEdge { from, to, kind });
        for j in 0..n {
            for i in 0..j {
                if writes[i].iter().any(|r| reads[j].contains(r)) {
                    add(i, j, DepKind::Flow);
                }
                if reads[i].iter().any(|r| writes[j].contains(r)) {
                    let call = matches!(ops[i], LirOp::Call { .. });
                    add(i, j, if call { DepKind::Output } else { DepKind::Anti });
                }
                if writes[i].iter().any(|r| writes[j].contains(r)) {
                    add(i, j, DepKind::Output);
                }
                if let (Some((sa, ca, aa)), Some((sb, cb, ab))) =
                    (mem_info(&ops[i]), mem_info(&ops[j]))
                {
                    let meet = match (ca, cb) {
                        (Some(a), Some(b)) => claims_intersect(a, b),
                        _ => true,
                    };
                    if meet && aa.may_overlap(&ab) {
                        match (sa, sb) {
                            (true, false) => add(i, j, DepKind::Flow),
                            (false, true) => add(i, j, DepKind::Anti),
                            (true, true) => add(i, j, DepKind::Output),
                            (false, false) => {}
                        }
                    }
                }
                let call_i = matches!(ops[i], LirOp::Call { .. });
                let call_j = matches!(ops[j], LirOp::Call { .. });
                let mem_i = mem_info(&ops[i]).is_some();
                let mem_j = mem_info(&ops[j]).is_some();
                if (call_i && (mem_j || call_j)) || (call_j && mem_i) {
                    add(i, j, DepKind::Flow);
                }
                if ops[j].is_terminator() {
                    add(i, j, DepKind::Control);
                }
            }
        }
        edges
    }

    /// Rank and compact the graph in `scratch` under `ideal`'s claims,
    /// checking the schedule against `full`: the packed block and the
    /// ordered memory-conflict reports.
    fn pack_graph(
        scratch: &mut Scratch,
        ops: &[LirOp],
        ideal: bool,
        full: &[DepEdge],
    ) -> (ScheduledBlock, Vec<(usize, usize)>) {
        scratch.rank();
        let mut conflicts = Vec::new();
        let mut observer = |a: usize, b: usize| conflicts.push((a, b));
        let claims = ops.iter().map(|op| claim(op, ideal));
        let sched = scratch.compact(claims, Some(&mut observer));
        sched.check(full.iter().copied()).unwrap();
        let block = assemble(ops, sched, ideal);
        (block, conflicts)
    }

    /// Priorities, the packed block and the ordered memory-conflict
    /// reports from the reduced edges equal those from the all-pairs
    /// edges, both run through `scratch`.
    fn assert_reduction_exact(scratch: &mut Scratch, ops: &[LirOp]) {
        let full = all_pairs_deps(ops);
        scratch.build(ops);
        assert!(
            scratch.edges().all(|e| full.contains(&e)),
            "reduced edges are all-pairs edges: {ops:?}"
        );
        scratch.rank();
        let priorities = scratch.priorities().to_vec();
        scratch.load_edges(ops.len(), &full);
        scratch.rank();
        assert_eq!(scratch.priorities(), priorities, "priorities of {ops:?}");
        for ideal in [false, true] {
            let packed = schedule_block(ops, ideal, scratch, &mut PackTimes::default());
            scratch.build(ops);
            let reduced = pack_graph(scratch, ops, ideal, &full);
            assert_eq!(reduced.0, packed);
            scratch.load_edges(ops.len(), &full);
            let spec = pack_graph(scratch, ops, ideal, &full);
            assert_eq!(reduced, spec, "schedule of {ops:?}");
        }
    }

    #[test]
    fn reduced_edges_keep_priorities_on_a_hand_built_block() {
        // A MAC chain over one accumulator, loads feeding it, a call
        // that reads and clobbers a register, and reuse of every
        // register after the call.
        let ops = vec![
            movi(1),
            load(0, Bank::X, MemClaim::Fixed(Bank::X), 2),
            load(1, Bank::Y, MemClaim::Fixed(Bank::Y), 3),
            LirOp::Fp(FpOp::CvtItoF {
                dst: FReg(3),
                src: IReg(2),
            }),
            mac(0, 3, 3),
            mac(0, 3, 0),
            store(1, Bank::Y, MemClaim::Fixed(Bank::Y), 1, 1),
            call(1, Some(2)),
            movi(1),
            fmov(3, 0),
            load(0, Bank::X, MemClaim::Either, 1),
            dup_pair(1, 1),
            mac(0, 3, 3),
            LirOp::Br {
                cond: IReg(1),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            },
        ];
        assert!(edges_of(&ops).len() < all_pairs_deps(&ops).len());
        assert_reduction_exact(&mut Scratch::new(), &ops);
    }

    /// Random blocks of mixed sizes, all through one scratch, each
    /// numbering its registers from its own base so that state one block
    /// leaves behind shows up in the next.
    #[test]
    fn reduced_edges_keep_schedules_on_random_blocks() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u8
        };
        let mut scratch = Scratch::new();
        for _ in 0..400 {
            let len = match next(16) {
                0 => 65 + next(64) as usize,
                _ => 1 + next(24) as usize,
            };
            let base = 4 * next(3);
            let mut ops = Vec::with_capacity(len + 1);
            for _ in 0..len {
                let bank = if next(2) == 0 { Bank::X } else { Bank::Y };
                let claim = match next(3) {
                    0 => MemClaim::Either,
                    _ => MemClaim::Fixed(bank),
                };
                let (a, b, c) = (base + next(4), base + next(4), base + next(4));
                ops.push(match next(10) {
                    0 | 1 => LirOp::Int(IntOp::Bin {
                        kind: IntBinKind::Add,
                        dst: IReg(a),
                        lhs: IReg(b),
                        rhs: IntOperand::Reg(IReg(c)),
                    }),
                    2 => movi(a),
                    3 | 4 => mac(a, b, c),
                    5 => LirOp::Fp(FpOp::CvtItoF {
                        dst: FReg(a),
                        src: IReg(b),
                    }),
                    6 => load(u32::from(c % 2), bank, claim, a),
                    7 => store(u32::from(c % 2), bank, claim, a, b),
                    8 => call(a, (b < 2).then_some(c)),
                    _ => match next(3) {
                        0 => dup_pair(u32::from(c % 2), a),
                        1 => LirOp::Addr(dsp_machine::AddrOp::AddImm {
                            dst: AReg(a),
                            base: AReg(b),
                            imm: 1,
                        }),
                        _ => fmov(a, b),
                    },
                });
            }
            ops.push(if next(2) == 0 {
                jump()
            } else {
                LirOp::Br {
                    cond: IReg(base + next(4)),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                }
            });
            assert_reduction_exact(&mut scratch, &ops);
        }
    }
}
