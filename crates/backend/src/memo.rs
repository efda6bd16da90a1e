//! Once-per-source products of the back end.
//!
//! The strategies differ only in the data-allocation step (how edges
//! are weighted, what is duplicated, which memory units are free). The
//! trial compaction that finds the memory conflicts and register
//! allocation read only the optimized IR, so a [`SourceMemo`] computes
//! each at most once per source: the trial only when a partitioning
//! strategy first asks for it, each function's registers when a back
//! end first lowers it. Two strategies that end in the same bank
//! assignment compile to the same program, so the memo also hands out
//! one program per distinct [`BackendKey`] — held weakly, so it lives
//! exactly as long as some user (a cache entry, a running job) holds it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError, Weak};
use std::time::{Duration, Instant};

use dsp_bankalloc::{trial_conflicts, TrialConflicts};
use dsp_ir::{FuncId, Program};
use dsp_machine::VliwProgram;

use crate::lirgen::{self, LirGenError};
use crate::regalloc::Assignment;

/// How a memoized lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The value was already there.
    Hit,
    /// This call computed it.
    Miss,
    /// Another job was computing it; this call blocked until it was
    /// there.
    Wait,
}

impl Lookup {
    /// Classify one `get_or_init`: `fresh` when this call ran the
    /// initializer, `filled` when the value was there before it.
    #[must_use]
    pub fn of(fresh: bool, filled: bool) -> Lookup {
        match (fresh, filled) {
            (true, _) => Lookup::Miss,
            (false, true) => Lookup::Hit,
            (false, false) => Lookup::Wait,
        }
    }

    /// `hit`, `miss` or `wait`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
            Lookup::Wait => "wait",
        }
    }

    /// The answer for a product made of several lookups: a miss if this
    /// call computed any part, else a wait if it blocked on any.
    pub(crate) fn merge(self, other: Lookup) -> Lookup {
        match (self, other) {
            (Lookup::Miss, _) | (_, Lookup::Miss) => Lookup::Miss,
            (Lookup::Wait, _) | (_, Lookup::Wait) => Lookup::Wait,
            _ => Lookup::Hit,
        }
    }
}

/// How one compile got each strategy-independent product; `None` where
/// it did not need the product.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reuse {
    /// The trial compaction (partitioning strategies only).
    pub trial: Option<Lookup>,
    /// Register allocation, over every function lowered (only when the
    /// back end ran).
    pub regalloc: Option<Lookup>,
    /// Lowering, final compaction and linking, memoized per
    /// [`BackendKey`].
    pub backend: Option<Lookup>,
}

/// What the back end reads of one compile besides the optimized IR: the
/// bank assignment, the memory model, and the duplicated-store
/// discipline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BackendKey {
    /// [`dsp_bankalloc::BankAllocation::assignment_key`].
    pub assignment: Vec<u8>,
    /// Dual-ported memory (schedules for `Ideal`).
    pub dual_ported: bool,
    /// [`crate::CompileConfig::interrupt_safe_dup`].
    pub interrupt_safe_dup: bool,
}

type ProgramSlot = Arc<Mutex<Weak<VliwProgram>>>;

/// The strategy-independent products of one optimized program.
pub struct SourceMemo {
    trial: OnceLock<(TrialConflicts, Duration)>,
    regalloc: Vec<OnceLock<(Result<Assignment, LirGenError>, Duration)>>,
    programs: Mutex<HashMap<BackendKey, ProgramSlot>>,
}

impl SourceMemo {
    /// An empty memo for `ir`, the optimized program every compile
    /// through it must pass.
    #[must_use]
    pub fn new(ir: &Program) -> SourceMemo {
        SourceMemo {
            trial: OnceLock::new(),
            regalloc: (0..ir.funcs.len()).map(|_| OnceLock::new()).collect(),
            programs: Mutex::new(HashMap::new()),
        }
    }

    /// The trial compaction of `ir`, with its wall time.
    pub fn trial(&self, ir: &Program) -> (&TrialConflicts, Duration, Lookup) {
        once(&self.trial, || trial_conflicts(ir))
    }

    /// The register assignment of `func` ([`lirgen::allocate_registers`]:
    /// the signature check, then allocation), with its wall time.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) signature error.
    pub fn assignment(
        &self,
        ir: &Program,
        func: FuncId,
    ) -> (Result<&Assignment, LirGenError>, Duration, Lookup) {
        let (result, time, lookup) = once(&self.regalloc[func.index()], || {
            lirgen::allocate_registers(ir.func(func))
        });
        (result.as_ref().map_err(Clone::clone), time, lookup)
    }

    /// The program for `key`: the one another compile built, if someone
    /// still holds it, else `build`'s. Concurrent callers with one key
    /// block on a single build. Failed builds are not remembered.
    ///
    /// # Errors
    ///
    /// Returns `build`'s error.
    pub fn program<E>(
        &self,
        key: BackendKey,
        build: impl FnOnce() -> Result<VliwProgram, E>,
    ) -> Result<(Arc<VliwProgram>, Lookup), E> {
        // A panic in `build` poisons the slot without touching it, and
        // inserting into the map is one step: both stay valid, so a
        // poisoned lock is recovered.
        let slot = self
            .programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone();
        let (mut held, waited) = match slot.try_lock() {
            Ok(held) => (held, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(TryLockError::WouldBlock) => {
                (slot.lock().unwrap_or_else(PoisonError::into_inner), true)
            }
        };
        if let Some(program) = held.upgrade() {
            return Ok((program, if waited { Lookup::Wait } else { Lookup::Hit }));
        }
        let program = Arc::new(build()?);
        *held = Arc::downgrade(&program);
        Ok((program, Lookup::Miss))
    }

    /// Number of distinct back-end keys requested so far.
    #[must_use]
    pub fn backend_keys(&self) -> usize {
        self.programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Fill-or-read a timed [`OnceLock`], reporting how.
fn once<T>(cell: &OnceLock<(T, Duration)>, init: impl FnOnce() -> T) -> (&T, Duration, Lookup) {
    let filled = cell.get().is_some();
    let mut fresh = false;
    let (value, time) = cell.get_or_init(|| {
        fresh = true;
        let start = Instant::now();
        let value = init();
        (value, start.elapsed())
    });
    (value, *time, Lookup::of(fresh, filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_miss_then_wait() {
        use Lookup::{Hit, Miss, Wait};
        assert_eq!(Hit.merge(Hit), Hit);
        assert_eq!(Hit.merge(Wait), Wait);
        assert_eq!(Wait.merge(Miss), Miss);
        assert_eq!(Miss.merge(Hit), Miss);
    }

    #[test]
    fn programs_are_held_weakly() {
        let ir = dsp_frontend::compile_str("int out; void main() { out = 7; }").unwrap();
        let memo = SourceMemo::new(&ir);
        let key = BackendKey {
            assignment: vec![0],
            dual_ported: false,
            interrupt_safe_dup: false,
        };
        let program = crate::compile_ir(&ir, crate::Strategy::Baseline)
            .unwrap()
            .program;
        let build = || Ok::<_, ()>(program.clone());
        let (first, miss) = memo.program(key.clone(), build).unwrap();
        let (second, hit) = memo.program(key.clone(), build).unwrap();
        assert_eq!((miss, hit), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&first, &second));
        drop((first, second));
        // Nobody holds the program any more: the memo rebuilds it.
        let (_, again) = memo.program(key, build).unwrap();
        assert_eq!(again, Lookup::Miss);
        assert_eq!(memo.backend_keys(), 1);
    }
}
