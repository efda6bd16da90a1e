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
//!
//! Both passes schedule through one [`Scratch`]: IR operations and the
//! back end's machine operations implement [`DepOp`], and one scratch
//! per compile holds every table the three steps use, reused block
//! after block.

use dsp_ir::depgraph::{refs_may_overlap, DepEdge, DepKind};
use dsp_ir::ops::Op;
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

/// An operation the dependence builder can order: what it reads and
/// writes, whether it touches data memory, and whether it is a call or
/// the block terminator.
pub trait DepOp {
    /// Visit the dense index of each register the operation reads. A
    /// register read twice may be visited twice.
    fn for_each_read_slot(&self, f: impl FnMut(usize));
    /// Visit the dense index of each register the operation writes.
    fn for_each_write_slot(&self, f: impl FnMut(usize));
    /// `Some(true)` for a store, `Some(false)` for a load, `None` for an
    /// operation that does not access data memory.
    fn mem_store(&self) -> Option<bool>;
    /// May this access and `other` touch the same word? Asked only when
    /// both access data memory and one of them stores.
    fn may_conflict(&self, other: &Self) -> bool;
    /// True for a call, a barrier for memory and for other calls.
    fn is_call(&self) -> bool;
    /// True for the block terminator, which every operation precedes.
    fn is_terminator(&self) -> bool;
    /// The edge from this operation to a later write of a register it
    /// reads: [`DepKind::Anti`], or [`DepKind::Output`] when the reads
    /// last beyond the issue cycle (a machine-level call reads its
    /// arguments while the callee runs).
    fn write_after_read(&self) -> DepKind;
}

impl DepOp for Op {
    fn for_each_read_slot(&self, mut f: impl FnMut(usize)) {
        self.for_each_use(|v| f(v.index()));
    }

    fn for_each_write_slot(&self, mut f: impl FnMut(usize)) {
        if let Some(v) = self.def() {
            f(v.index());
        }
    }

    fn mem_store(&self) -> Option<bool> {
        match self {
            Op::Load { .. } => Some(false),
            Op::Store { .. } => Some(true),
            _ => None,
        }
    }

    fn may_conflict(&self, other: &Op) -> bool {
        match (self.mem_ref(), other.mem_ref()) {
            (Some(a), Some(b)) => refs_may_overlap(a, b),
            _ => false,
        }
    }

    fn is_call(&self) -> bool {
        matches!(self, Op::Call { .. })
    }

    fn is_terminator(&self) -> bool {
        Op::is_terminator(self)
    }

    fn write_after_read(&self) -> DepKind {
        DepKind::Anti
    }
}

/// The result of compaction, borrowed from the [`Scratch`] that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule<'a> {
    /// Cycle each operation issues in.
    pub op_cycle: &'a [usize],
    /// Unit each operation was assigned.
    pub op_unit: &'a [FuncUnit],
    len: usize,
}

impl Schedule<'_> {
    /// Number of long instructions (cycles) in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Check that no dependence is violated: flow/output predecessors
    /// issue strictly earlier, anti/control predecessors no later.
    ///
    /// # Errors
    ///
    /// Describes the first violated edge.
    pub fn check(&self, edges: impl IntoIterator<Item = DepEdge>) -> Result<(), String> {
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

/// An [`OpClaim`] as a mask of the units it may take, lowest first.
#[derive(Debug, Clone, Copy)]
struct Need {
    units: u16,
    /// Takes every unit of the mask at once (the duplicated store pair).
    all: bool,
    /// A memory operation, whose blocked attempts the trial pass hears.
    mem: bool,
}

impl From<OpClaim> for Need {
    fn from(claim: OpClaim) -> Need {
        let unit = |u: FuncUnit| 1u16 << u as usize;
        let class = |c: UnitClass| c.units().iter().fold(0, |m, &u| m | unit(u));
        let (units, all, mem) = match claim {
            OpClaim::Unit(u) => (unit(u), false, false),
            OpClaim::Class(c) => (class(c), false, false),
            OpClaim::Mem(MemClaim::Fixed(Bank::X)) => (unit(FuncUnit::Mu0), false, true),
            OpClaim::Mem(MemClaim::Fixed(Bank::Y)) => (unit(FuncUnit::Mu1), false, true),
            OpClaim::Mem(MemClaim::Either) => (class(UnitClass::Mem), false, true),
            OpClaim::MemPair => (class(UnitClass::Mem), true, true),
        };
        Need { units, all, mem }
    }
}

const NONE: u32 = u32::MAX;

/// The block scheduler's working memory: the dependence graph of the
/// current block as compressed successor lists, its priorities, and the
/// compaction state. One scratch serves any number of blocks; every
/// table keeps its capacity, so a warm scratch schedules a block
/// without allocating.
///
/// A block is scheduled in three steps, each timed separately by the
/// final pack: [`Scratch::build`] (or [`Scratch::load_edges`]), then
/// [`Scratch::rank`], then [`Scratch::compact`].
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per register slot: the last writer in this block, and the head of
    /// its reader chain (an index into `readers`).
    last_write: Vec<u32>,
    reader_head: Vec<u32>,
    /// The slots this block touched, reset when the next build starts.
    touched: Vec<u32>,
    /// Reader chains: `(operation, next)`.
    readers: Vec<(u32, u32)>,
    /// The memory and call operations so far, `(index, is_call,
    /// mem_store)`, and the subset a load must be tested against: the
    /// stores and calls.
    mem_call: Vec<(u32, bool, Option<bool>)>,
    barriers: Vec<(u32, bool, Option<bool>)>,
    /// Per operation: has an edge left it? Only operations without one
    /// get a control edge to the terminator.
    has_succ: Vec<bool>,
    /// The edges as found, `(from, to, kind)`.
    found: Vec<(u32, u32, DepKind)>,
    /// Successor lists in compressed-row form: operation `i`'s are
    /// `succ[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    succ: Vec<(u32, DepKind)>,
    /// Descendant bitsets, one row of `n.div_ceil(64)` words per
    /// operation, and their counts.
    reach: Vec<u64>,
    priorities: Vec<u32>,
    needs: Vec<Need>,
    /// Unplaced strict (flow/output) and same-cycle (anti/control)
    /// predecessors of each operation.
    strict_left: Vec<u32>,
    same_left: Vec<u32>,
    ready: Vec<usize>,
    /// The operations placed in the cycle being filled.
    placed: Vec<usize>,
    op_cycle: Vec<usize>,
    op_unit: Vec<FuncUnit>,
}

impl Scratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Number of operations in the current block.
    fn n(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Build the dependence graph of `ops`, one basic block in program
    /// order.
    ///
    /// Register dependences come from two tables indexed by register
    /// slot: its last writer, and the chain of operations that read it
    /// since that write. A read gets a flow edge from the last writer; a
    /// write gets an edge from every reader in the chain (of the kind
    /// [`DepOp::write_after_read`] names) and an output edge from the
    /// last writer, then empties the chain. Memory and call edges are
    /// tested pairwise, but only among the memory and call operations
    /// (and a load only against the stores and calls), and every
    /// operation without a successor gets a control edge to the
    /// terminator.
    ///
    /// This is a subset of the all-pairs edge set, which also links each
    /// access to every earlier conflicting access of the same register.
    /// A dropped edge `i → j` on register `r` is implied: the writes of
    /// `r` between them form a chain of output edges `i → w₁ → … → wₖ`,
    /// and the last link to `j` is the flow, anti or output edge of the
    /// access pair (`wₖ`, `j`) — or, with no write in between, of
    /// (`i`, `j`) itself. So the kept edges reach exactly the same
    /// descendants, and every dropped strict (flow/output) edge is
    /// shadowed by a path that contains a strict edge. Reachability
    /// fixes the descendant-count priorities. The path's strictness
    /// fixes every placement decision of [`Scratch::compact`]: an
    /// operation's kept predecessors are placed (earlier, for a strict
    /// edge) only once the dropped ones are, because each kept
    /// predecessor was itself placed after its own. The schedule and the
    /// conflict reports are the same, operation for operation.
    ///
    /// The dropped control edges are implied the same way: every
    /// operation reaches one without a successor, whose control edge it
    /// inherits along a path on which no operation issues before its
    /// predecessor. So the terminator still has every operation as an
    /// ancestor, and it still becomes data-compatible only once all of
    /// them are placed.
    pub fn build<O: DepOp>(&mut self, ops: &[O]) {
        let Scratch {
            last_write,
            reader_head,
            touched,
            readers,
            mem_call,
            barriers,
            has_succ,
            found,
            ..
        } = self;
        for &r in touched.iter() {
            last_write[r as usize] = NONE;
            reader_head[r as usize] = NONE;
        }
        touched.clear();
        readers.clear();
        mem_call.clear();
        barriers.clear();
        found.clear();
        // Grow the tables to `r` and note its first touch in this block.
        let mut touch = |r: usize, last_write: &mut Vec<u32>, reader_head: &mut Vec<u32>| {
            if r >= last_write.len() {
                last_write.resize(r + 1, NONE);
                reader_head.resize(r + 1, NONE);
            }
            if last_write[r] == NONE && reader_head[r] == NONE {
                touched.push(r as u32);
            }
        };
        for (j, op) in ops.iter().enumerate() {
            let j = j as u32;
            op.for_each_read_slot(|r| {
                touch(r, last_write, reader_head);
                let head = reader_head[r];
                if head != NONE && readers[head as usize].0 == j {
                    return; // this operation already reads `r`
                }
                if last_write[r] != NONE {
                    found.push((last_write[r], j, DepKind::Flow));
                }
                reader_head[r] = readers.len() as u32;
                readers.push((j, head));
            });
            op.for_each_write_slot(|r| {
                touch(r, last_write, reader_head);
                let mut at = reader_head[r];
                while at != NONE {
                    let (k, next) = readers[at as usize];
                    if k != j {
                        found.push((k, j, ops[k as usize].write_after_read()));
                    }
                    at = next;
                }
                if last_write[r] != NONE {
                    found.push((last_write[r], j, DepKind::Output));
                }
                last_write[r] = j;
                reader_head[r] = NONE;
            });
            let call_j = op.is_call();
            let store_j = op.mem_store();
            if call_j || store_j.is_some() {
                // Two loads never conflict.
                let earlier = if store_j == Some(false) {
                    &barriers[..]
                } else {
                    &mem_call[..]
                };
                for &(i, call_i, store_i) in earlier {
                    if let (Some(a), Some(b)) = (store_i, store_j) {
                        if (a || b) && ops[i as usize].may_conflict(op) {
                            let kind = match (a, b) {
                                (true, false) => DepKind::Flow,
                                (false, true) => DepKind::Anti,
                                _ => DepKind::Output,
                            };
                            found.push((i, j, kind));
                        }
                    }
                    // Calls are barriers for memory and for each other.
                    if call_i || call_j {
                        found.push((i, j, DepKind::Flow));
                    }
                }
                mem_call.push((j, call_j, store_j));
                if store_j != Some(false) {
                    barriers.push((j, call_j, store_j));
                }
            }
            // Everything issues no later than the terminator.
            if op.is_terminator() {
                has_succ.clear();
                has_succ.resize(j as usize, false);
                for &(i, _, _) in found.iter() {
                    has_succ[i as usize] = true;
                }
                let sinks = (0..j).filter(|&i| !has_succ[i as usize]);
                found.extend(sinks.map(|i| (i, j, DepKind::Control)));
            }
        }
        self.index_successors(ops.len());
    }

    /// Load the dependence graph of `n` operations from an explicit edge
    /// list, such as a reference builder's.
    ///
    /// # Panics
    ///
    /// Panics if an edge does not point from a lower to a higher index
    /// below `n`.
    pub fn load_edges(&mut self, n: usize, edges: &[DepEdge]) {
        self.found.clear();
        for e in edges {
            assert!(
                e.from < e.to && e.to < n,
                "edge {}->{} out of order",
                e.from,
                e.to
            );
            self.found.push((e.from as u32, e.to as u32, e.kind));
        }
        self.index_successors(n);
    }

    /// Sort `found` into the successor lists of `n` operations.
    fn index_successors(&mut self, n: usize) {
        let Scratch {
            found, start, succ, ..
        } = self;
        start.clear();
        start.resize(n + 1, 0);
        for &(from, _, _) in found.iter() {
            start[from as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Place the edges back to front, each at the end of its list, so
        // every `start[i + 1]` comes down to where list `i` begins.
        succ.clear();
        succ.resize(found.len(), (0, DepKind::Flow));
        for &(from, to, kind) in found.iter().rev() {
            let end = &mut start[from as usize + 1];
            *end -= 1;
            succ[*end as usize] = (to, kind);
        }
        start.copy_within(1.., 0);
        start[n] = found.len() as u32;
    }

    /// The edges of the current graph, grouped by predecessor.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        (0..self.n()).flat_map(move |from| {
            self.successors(from)
                .iter()
                .map(move |&(to, kind)| DepEdge {
                    from,
                    to: to as usize,
                    kind,
                })
        })
    }

    fn successors(&self, i: usize) -> &[(u32, DepKind)] {
        &self.succ[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Compute every operation's scheduling priority: its number of
    /// descendants in the dependence graph (paper Figure 3).
    ///
    /// The descendant sets are bit rows of one flat table, filled in
    /// reverse index order — a topological order, since every edge
    /// points forward — so each row ORs in the finished rows of its
    /// successors. That is `O(n + e·n/64)` word operations.
    pub fn rank(&mut self) {
        let n = self.n();
        let words = n.div_ceil(64);
        self.reach.clear();
        self.reach.resize(n * words, 0);
        for i in (0..n).rev() {
            // Rows above i's are finished; split so they can be read
            // while row i is written.
            let (head, tail) = self.reach.split_at_mut((i + 1) * words);
            let mine = &mut head[i * words..];
            let list = &self.succ[self.start[i] as usize..self.start[i + 1] as usize];
            for &(s, _) in list {
                let s = s as usize;
                mine[s / 64] |= 1u64 << (s % 64);
                let other = &tail[(s - i - 1) * words..(s - i) * words];
                for (m, o) in mine.iter_mut().zip(other) {
                    *m |= o;
                }
            }
        }
        self.priorities.clear();
        self.priorities.extend(
            self.reach
                .chunks(words.max(1))
                .take(n)
                .map(|row| row.iter().map(|w| w.count_ones()).sum::<u32>()),
        );
    }

    /// The priorities [`Scratch::rank`] computed.
    #[must_use]
    pub fn priorities(&self) -> &[u32] {
        &self.priorities
    }

    /// Compact the ranked block into long instructions, given each
    /// operation's resource claim in order.
    ///
    /// `mem_conflict` is the hook of the data-allocation trial pass: it
    /// is invoked as `mem_conflict(resident, candidate)` whenever memory
    /// operation `candidate` was data-compatible with the instruction
    /// being filled but its (unique) memory unit was already taken by
    /// memory operation `resident` — exactly the situation in which the
    /// paper adds an interference edge between the two variables (or
    /// marks the variable for duplication if both access the same one).
    /// Pass `None` for final compaction.
    ///
    /// The data-ready set is kept, not rebuilt: every operation counts
    /// its unplaced strict (flow/output) and same-cycle (anti/control)
    /// predecessor edges. An operation joins the ready list at the end
    /// of the cycle that places its last strict predecessor, and the
    /// list is sorted by `(Reverse(priority), index)` at the start of
    /// each cycle. Walking it in that order, an operation is
    /// data-compatible once its same-cycle count is zero; the count
    /// drops the moment a predecessor is placed, so an anti predecessor
    /// placed earlier in the same walk admits it and one that sorts
    /// after it defers it to a later cycle. The cost is `O(n + e)` plus,
    /// per cycle, one walk of the ready list and one sort that merges
    /// the new arrivals into it.
    ///
    /// Every edge points forward, so the first unplaced operation is
    /// always ready and every cycle places at least one operation.
    ///
    /// # Panics
    ///
    /// Panics if `claims` does not yield one claim per operation.
    pub fn compact(
        &mut self,
        claims: impl IntoIterator<Item = OpClaim>,
        mut mem_conflict: Option<&mut dyn FnMut(usize, usize)>,
    ) -> Schedule<'_> {
        const UNPLACED: usize = usize::MAX;
        let n = self.n();
        let Scratch {
            start,
            succ,
            priorities,
            needs,
            strict_left,
            same_left,
            ready,
            placed,
            op_cycle,
            op_unit,
            ..
        } = self;
        needs.clear();
        needs.extend(claims.into_iter().map(Need::from));
        assert_eq!(needs.len(), n, "one claim per operation");
        strict_left.clear();
        strict_left.resize(n, 0);
        same_left.clear();
        same_left.resize(n, 0);
        for &(to, kind) in succ.iter() {
            if kind.allows_same_cycle() {
                same_left[to as usize] += 1;
            } else {
                strict_left[to as usize] += 1;
            }
        }
        let succs = |i: usize| &succ[start[i] as usize..start[i + 1] as usize];
        op_cycle.clear();
        op_cycle.resize(n, UNPLACED);
        op_unit.clear();
        op_unit.resize(n, FuncUnit::Pcu);
        ready.clear();
        ready.extend((0..n).filter(|&i| strict_left[i] == 0));
        let mut remaining = n;
        let mut t = 0;

        while remaining > 0 {
            // Highest priority first; ties broken by program order to
            // keep the algorithm deterministic. The list is the last
            // cycle's sorted survivors plus the new arrivals at its end,
            // which the run-detecting stable sort merges in one pass.
            ready.sort_by_key(|&i| (std::cmp::Reverse(priorities[i]), i));

            placed.clear();
            let mut used = 0u16;
            let mut resident_mem: Option<usize> = None;

            for &i in ready.iter() {
                if same_left[i] != 0 {
                    continue; // an anti/control predecessor is not placed yet
                }
                let need = needs[i];
                let free = need.units & !used;
                if free == 0 || (need.all && free != need.units) {
                    // Unit taken. For memory operations this is the
                    // event the data-allocation pass listens for; a
                    // store pair waits for a cycle with both units free.
                    if need.mem && !need.all {
                        if let (Some(res), Some(observer)) = (resident_mem, mem_conflict.as_mut()) {
                            observer(res, i);
                        }
                    }
                    continue;
                }
                // The lowest free unit, or all of them for a store pair.
                used |= if need.all {
                    need.units
                } else {
                    free & free.wrapping_neg()
                };
                placed.push(i);
                op_cycle[i] = t;
                op_unit[i] = FuncUnit::ALL[free.trailing_zeros() as usize];
                if need.mem && resident_mem.is_none() {
                    resident_mem = Some(i);
                }
                for &(s, kind) in succs(i) {
                    if kind.allows_same_cycle() {
                        same_left[s as usize] -= 1;
                    }
                }
            }

            assert!(!placed.is_empty(), "forward edges leave a ready operation");
            ready.retain(|&i| op_cycle[i] == UNPLACED);
            for &i in placed.iter() {
                for &(s, kind) in succs(i) {
                    if !kind.allows_same_cycle() {
                        strict_left[s as usize] -= 1;
                        if strict_left[s as usize] == 0 {
                            ready.push(s as usize);
                        }
                    }
                }
            }
            remaining -= placed.len();
            t += 1;
        }

        debug_assert!(
            (0..n).all(|i| succs(i).iter().all(|&(s, kind)| {
                let (from, to) = (op_cycle[i], op_cycle[s as usize]);
                if kind.allows_same_cycle() {
                    from <= to
                } else {
                    from < to
                }
            })),
            "schedule violates a dependence"
        );
        Schedule {
            op_cycle,
            op_unit,
            len: t,
        }
    }

    /// Build, rank and compact one block: [`Scratch::build`],
    /// [`Scratch::rank`] and [`Scratch::compact`] in turn.
    pub fn schedule<O: DepOp>(
        &mut self,
        ops: &[O],
        claims: impl IntoIterator<Item = OpClaim>,
        mem_conflict: Option<&mut dyn FnMut(usize, usize)>,
    ) -> Schedule<'_> {
        self.build(ops);
        self.rank();
        self.compact(claims, mem_conflict)
    }
}

/// Derive [`OpClaim`]s for IR operations. `mem_claims` supplies the bank
/// constraint of each memory operation, in program order.
///
/// # Panics
///
/// The iterator panics if `mem_claims` runs out before the memory
/// operations of `ops` do.
pub fn ir_claims<'a>(
    ops: &'a [Op],
    mem_claims: impl IntoIterator<Item = MemClaim> + 'a,
) -> impl Iterator<Item = OpClaim> + 'a {
    let mut mem_claims = mem_claims.into_iter();
    ops.iter().map(move |op| match op.unit_class() {
        Some(UnitClass::Mem) => {
            OpClaim::Mem(mem_claims.next().expect("one claim per memory operation"))
        }
        Some(UnitClass::Pcu) | None => OpClaim::Unit(FuncUnit::Pcu),
        Some(c) => OpClaim::Class(c),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_ir::ids::{GlobalId, VReg};
    use dsp_ir::ops::{IOperand, MemBase, MemRef};
    use dsp_machine::IntBinKind;

    /// A schedule copied out of its scratch, with the conflict reports
    /// that produced it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Owned {
        op_cycle: Vec<usize>,
        op_unit: Vec<FuncUnit>,
        len: usize,
        conflicts: Vec<(usize, usize)>,
    }

    impl Owned {
        fn cycle_width(&self, t: usize) -> usize {
            self.op_cycle.iter().filter(|&&c| c == t).count()
        }

        fn check(&self, edges: impl IntoIterator<Item = DepEdge>) -> Result<(), String> {
            let s = Schedule {
                op_cycle: &self.op_cycle,
                op_unit: &self.op_unit,
                len: self.len,
            };
            s.check(edges)
        }
    }

    /// Rank and compact the graph in `scratch` under `claims`, and check
    /// the schedule against the graph.
    fn run(scratch: &mut Scratch, claims: impl IntoIterator<Item = OpClaim>) -> Owned {
        scratch.rank();
        let mut conflicts = Vec::new();
        let s = scratch.compact(claims, Some(&mut |a, b| conflicts.push((a, b))));
        let owned = Owned {
            op_cycle: s.op_cycle.to_vec(),
            op_unit: s.op_unit.to_vec(),
            len: s.len(),
            conflicts,
        };
        owned.check(scratch.edges()).unwrap();
        owned
    }

    /// Schedule one IR block with a fresh scratch.
    fn compact_ir_block(ops: &[Op], mem_claims: &[MemClaim]) -> Owned {
        let mut scratch = Scratch::new();
        scratch.build(ops);
        run(&mut scratch, ir_claims(ops, mem_claims.iter().copied()))
    }

    fn edges_of(ops: &[Op]) -> Vec<DepEdge> {
        let mut scratch = Scratch::new();
        scratch.build(ops);
        scratch.edges().collect()
    }

    fn has_edge(edges: &[DepEdge], from: usize, to: usize, kind: DepKind) -> bool {
        edges.contains(&DepEdge { from, to, kind })
    }

    fn load(dst: u32, g: u32) -> Op {
        Op::Load {
            dst: VReg(dst),
            addr: MemRef::direct(MemBase::Global(GlobalId(g)), 0),
        }
    }

    fn indexed_load(dst: u32, g: u32, idx: Option<u32>) -> Op {
        Op::Load {
            dst: VReg(dst),
            addr: MemRef {
                base: MemBase::Global(GlobalId(g)),
                index: idx.map(VReg),
                offset: 0,
            },
        }
    }

    fn store(src: u32, g: u32, idx: Option<u32>) -> Op {
        Op::Store {
            src: VReg(src),
            addr: MemRef {
                base: MemBase::Global(GlobalId(g)),
                index: idx.map(VReg),
                offset: 0,
            },
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
    fn flow_anti_output_register_deps() {
        // 0: %0 = 1        (def %0)
        // 1: %1 = %0 + %0  (flow on %0)
        // 2: %0 = 2        (anti vs 1, output vs 0)
        let edges = edges_of(&[movi(0, 1), add(1, 0, 0), movi(0, 2)]);
        assert!(has_edge(&edges, 0, 1, DepKind::Flow));
        assert!(has_edge(&edges, 1, 2, DepKind::Anti));
        assert!(has_edge(&edges, 0, 2, DepKind::Output));
        assert_eq!(edges.len(), 3, "one flow edge for a register read twice");
    }

    #[test]
    fn independent_loads_have_no_edge() {
        assert!(edges_of(&[load(0, 0), load(1, 1)]).is_empty());
    }

    #[test]
    fn store_then_load_same_object_is_flow() {
        let edges = edges_of(&[store(0, 0, Some(5)), indexed_load(1, 0, Some(6))]);
        assert!(has_edge(&edges, 0, 1, DepKind::Flow));
    }

    #[test]
    fn terminator_gets_control_edges() {
        let edges = edges_of(&[movi(0, 1), Op::Ret(None)]);
        assert!(has_edge(&edges, 0, 1, DepKind::Control));
        assert!(DepKind::Control.allows_same_cycle());
    }

    #[test]
    fn priorities_count_descendants() {
        // Chain: 0 -> 1 -> 2 plus independent 3.
        let mut scratch = Scratch::new();
        scratch.build(&[movi(0, 1), add(1, 0, 0), add(2, 1, 1), movi(3, 9)]);
        scratch.rank();
        assert_eq!(scratch.priorities(), [2, 1, 0, 0]);
    }

    #[test]
    fn call_is_memory_barrier() {
        let call = Op::Call {
            dst: None,
            callee: dsp_ir::ids::FuncId(0),
            args: vec![],
        };
        let edges = edges_of(&[store(0, 0, None), call, indexed_load(1, 1, None)]);
        assert!(has_edge(&edges, 0, 1, DepKind::Flow));
        assert!(has_edge(&edges, 1, 2, DepKind::Flow));
    }

    #[test]
    fn independent_int_ops_pack_two_per_cycle() {
        // Four independent integer moves, two DUs available.
        let ops = vec![movi(0, 1), movi(1, 2), movi(2, 3), movi(3, 4)];
        let sched = compact_ir_block(&ops, &[]);
        assert_eq!(sched.len, 2);
        assert_eq!(sched.cycle_width(0), 2);
    }

    #[test]
    fn flow_dependence_serializes() {
        let ops = vec![movi(0, 1), add(1, 0, 0), add(2, 1, 1)];
        assert_eq!(compact_ir_block(&ops, &[]).len, 3);
    }

    #[test]
    fn anti_dependent_ops_share_cycle() {
        // op0 reads %0, op1 overwrites %0: anti dep -> same cycle legal.
        let ops = vec![add(1, 0, 0), movi(0, 5)];
        let sched = compact_ir_block(&ops, &[]);
        assert_eq!(sched.len, 1, "{sched:?}");
    }

    #[test]
    fn same_bank_loads_serialize_and_report_conflict() {
        let ops = vec![load(0, 0), load(1, 1)];
        let sched = compact_ir_block(&ops, &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::X)]);
        assert_eq!(sched.len, 2);
        assert_eq!(sched.conflicts, vec![(0, 1)]);
    }

    #[test]
    fn different_bank_loads_pack_together() {
        let ops = vec![load(0, 0), load(1, 1)];
        let sched = compact_ir_block(&ops, &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::Y)]);
        assert_eq!(sched.len, 1);
        assert_eq!(sched.op_unit[0], FuncUnit::Mu0);
        assert_eq!(sched.op_unit[1], FuncUnit::Mu1);
    }

    #[test]
    fn dual_ported_memory_packs_same_bank_loads() {
        let ops = vec![load(0, 0), load(1, 1)];
        let sched = compact_ir_block(&ops, &[MemClaim::Either, MemClaim::Either]);
        assert_eq!(sched.len, 1);
    }

    #[test]
    fn three_loads_two_units() {
        let ops = vec![load(0, 0), load(1, 1), load(2, 2)];
        let sched = compact_ir_block(&ops, &[MemClaim::Either; 3]);
        assert_eq!(sched.len, 2);
    }

    #[test]
    fn terminator_shares_final_cycle() {
        let ops = vec![movi(0, 1), Op::Ret(None)];
        let sched = compact_ir_block(&ops, &[]);
        assert_eq!(sched.len, 1, "control dep allows same cycle: {sched:?}");
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
        let sched = compact_ir_block(&ops, &[]);
        assert_eq!(sched.op_cycle[2], 0, "{sched:?}");
        // Total: chain takes 3 cycles; independents fill slack.
        assert_eq!(sched.len, 3);
    }

    #[test]
    fn observer_sees_multiple_conflicts_in_one_drs() {
        let ops = vec![load(0, 0), load(1, 1), load(2, 2)];
        let sched = compact_ir_block(&ops, &[MemClaim::Fixed(Bank::X); 3]);
        assert_eq!(sched.len, 3);
        // Cycle 0: op0 resident, ops 1 and 2 conflict with it.
        // Cycle 1: op1 resident, op2 conflicts with it.
        assert_eq!(sched.conflicts, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn schedule_check_catches_violation() {
        let ops = vec![movi(0, 1), add(1, 0, 0)];
        let bogus = Schedule {
            op_cycle: &[0, 0],
            op_unit: &[FuncUnit::Du0, FuncUnit::Du1],
            len: 1,
        };
        assert!(bogus.check(edges_of(&ops)).is_err());
    }

    #[test]
    fn anti_successor_waits_for_an_unready_predecessor() {
        // op2 overwrites %5, which op1 reads (anti 1 -> 2); op1 waits
        // for op0's %6. op2 is ready in cycle 0 but may not issue before
        // op1, so it shares op1's cycle.
        let ops = vec![movi(6, 1), add(1, 5, 6), movi(5, 2)];
        assert_eq!(compact_ir_block(&ops, &[]).op_cycle, vec![0, 1, 1]);
    }

    #[test]
    fn units_index_by_discriminant() {
        for (i, &u) in FuncUnit::ALL.iter().enumerate() {
            assert_eq!(u as usize, i, "{u}");
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn backward_edges_are_rejected() {
        let edge = DepEdge {
            from: 2,
            to: 1,
            kind: DepKind::Flow,
        };
        Scratch::new().load_edges(3, &[edge]);
    }

    #[test]
    fn empty_block_schedules_empty() {
        let sched = compact_ir_block(&[], &[]);
        assert_eq!(sched.len, 0);
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
        let sched = compact_ir_block(&ops, &[MemClaim::Fixed(Bank::X), MemClaim::Fixed(Bank::Y)]);
        assert_eq!(sched.len, 1);
    }

    /// A xorshift stream: `next(bound)` is uniform enough below `bound`.
    fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    /// A random IR block over a few registers and objects, ending in a
    /// terminator, with one bank claim per memory operation. Each block
    /// numbers its registers from its own base, so state that one block
    /// leaves in a reused table shows up in the next.
    fn random_ir_block(next: &mut impl FnMut(u64) -> u64) -> (Vec<Op>, Vec<MemClaim>) {
        use dsp_ir::ids::{BlockId, FuncId};
        use dsp_ir::ops::{Arg, FOperand};
        let len = match next(16) {
            0 => 65 + next(64) as usize,
            _ => 1 + next(24) as usize,
        };
        let base = [0, 7, 100, 1000][next(4) as usize] as u32;
        let reg = |next: &mut dyn FnMut(u64) -> u64| VReg(base + next(5) as u32);
        let mut ops = Vec::with_capacity(len + 1);
        let mut claims = Vec::new();
        for _ in 0..len {
            let addr = |next: &mut dyn FnMut(u64) -> u64, index: VReg| {
                let object = match next(5) {
                    0 => MemBase::Param(0),
                    g => MemBase::Global(GlobalId(g as u32 % 2)),
                };
                MemRef {
                    base: object,
                    index: (next(2) == 0).then_some(index),
                    offset: next(2) as i32,
                }
            };
            let (a, b, c) = (reg(next), reg(next), reg(next));
            let op = match next(12) {
                0 | 1 => add(a.0, b.0, c.0),
                2 => movi(a.0, 1),
                3 | 4 => Op::FMac { acc: a, a: b, b: c },
                5 => Op::MovF {
                    dst: a,
                    src: FOperand::Reg(b),
                },
                6 | 7 => Op::Load {
                    dst: a,
                    addr: addr(next, b),
                },
                8 | 9 => Op::Store {
                    src: a,
                    addr: addr(next, b),
                },
                10 => Op::Call {
                    dst: (next(2) == 0).then_some(a),
                    callee: FuncId(1),
                    args: vec![Arg::Value(b), Arg::Array(MemBase::Global(GlobalId(0)))],
                },
                _ => Op::ItoF { dst: a, src: b },
            };
            if op.is_mem() {
                claims.push(match next(4) {
                    0 => MemClaim::Either,
                    1 => MemClaim::Fixed(Bank::Y),
                    _ => MemClaim::Fixed(Bank::X),
                });
            }
            ops.push(op);
        }
        ops.push(match next(3) {
            0 => Op::Jmp(BlockId(1)),
            1 => Op::Br {
                cond: reg(next),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            },
            _ => Op::Ret(Some(reg(next))),
        });
        (ops, claims)
    }

    /// The all-pairs dependence builder that [`Scratch::build`] reduces,
    /// on IR blocks: every pair of operations, every register they share.
    fn all_pairs_ir_deps(ops: &[Op]) -> Vec<DepEdge> {
        let n = ops.len();
        let uses: Vec<Vec<VReg>> = ops.iter().map(Op::uses).collect();
        let defs: Vec<Option<VReg>> = ops.iter().map(Op::def).collect();
        let mut edges = Vec::new();
        let mut add = |from: usize, to: usize, kind: DepKind| {
            edges.push(DepEdge { from, to, kind });
        };
        for j in 0..n {
            for i in 0..j {
                let (a, b) = (&ops[i], &ops[j]);
                // Register dependences.
                if let Some(d) = defs[i] {
                    if uses[j].contains(&d) {
                        add(i, j, DepKind::Flow);
                    }
                    if defs[j] == Some(d) {
                        add(i, j, DepKind::Output);
                    }
                }
                if let Some(d) = defs[j] {
                    if uses[i].contains(&d) {
                        add(i, j, DepKind::Anti);
                    }
                }
                // Memory dependences.
                match (a, b) {
                    (Op::Store { addr: ra, .. }, Op::Load { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Flow);
                    }
                    (Op::Load { addr: ra, .. }, Op::Store { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Anti);
                    }
                    (Op::Store { addr: ra, .. }, Op::Store { addr: rb, .. })
                        if refs_may_overlap(ra, rb) =>
                    {
                        add(i, j, DepKind::Output);
                    }
                    _ => {}
                }
                // Calls are barriers for memory and for each other.
                let call_a = matches!(a, Op::Call { .. });
                let call_b = matches!(b, Op::Call { .. });
                if (call_a && (b.is_mem() || call_b)) || (call_b && a.is_mem()) {
                    add(i, j, DepKind::Flow);
                }
                // Everything issues no later than the terminator.
                if b.is_terminator() {
                    add(i, j, DepKind::Control);
                }
            }
        }
        edges
    }

    /// Each operation's number of descendants, by a walk from it.
    fn descendants(n: usize, edges: &[DepEdge]) -> Vec<u32> {
        (0..n)
            .map(|root| {
                let mut seen = vec![false; n];
                let mut stack = vec![root];
                while let Some(i) = stack.pop() {
                    for e in edges.iter().filter(|e| e.from == i) {
                        if !seen[e.to] {
                            seen[e.to] = true;
                            stack.push(e.to);
                        }
                    }
                }
                seen.iter().filter(|&&s| s).count() as u32
            })
            .collect()
    }

    /// On random blocks of mixed sizes, scheduled through one scratch,
    /// the reduced graph gives the all-pairs graph's priorities, its
    /// schedule and its conflict reports in the same order.
    #[test]
    fn reduced_ir_graph_keeps_priorities_schedules_and_conflicts() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut scratch = Scratch::new();
        for _ in 0..400 {
            let (ops, claims) = random_ir_block(&mut next);
            let full = all_pairs_ir_deps(&ops);
            scratch.build(&ops);
            assert!(
                scratch.edges().all(|e| full.contains(&e)),
                "reduced edges are all-pairs edges: {ops:?}"
            );
            let got = run(&mut scratch, ir_claims(&ops, claims.iter().copied()));
            let priorities = scratch.priorities().to_vec();
            assert_eq!(priorities, descendants(ops.len(), &full), "{ops:?}");
            got.check(full.iter().copied()).unwrap();
            scratch.load_edges(ops.len(), &full);
            let spec = run(&mut scratch, ir_claims(&ops, claims.iter().copied()));
            assert_eq!(scratch.priorities(), priorities, "{ops:?}");
            assert_eq!(got, spec, "{ops:?} under {claims:?}");
        }
    }
}
