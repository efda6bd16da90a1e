#![warn(missing_docs)]
//! `dsp-exec` — the workspace's one shared job scheduler.
//!
//! Before this crate the repo had two independent thread pools: the
//! batch engine's per-`run_matrix` workers and `dsp-serve`'s connection
//! workers, which ran whole sweeps inline on the thread that owned the
//! connection. This executor unifies them: every compute job —
//! interactive `/compile`, a CLI `bench all`, one cell of a served
//! `/sweep` matrix — is a task submitted to one machine-sized pool.
//! Mirroring the source paper's framing, the point is to keep every
//! unit busy instead of serializing a workload on the one unit that
//! happens to own it.
//!
//! Design:
//!
//! * **Two priority classes.** [`Priority::Interactive`] tasks (single
//!   `/compile` requests) are always dequeued ahead of
//!   [`Priority::Batch`] tasks (sweep cells), so a point query never
//!   waits behind a 161-job matrix — only behind the tasks already
//!   running.
//! * **Job handles.** [`Executor::submit`] returns a [`JobHandle`]
//!   that the submitter waits on ([`JobHandle::wait`] /
//!   [`JobHandle::wait_until`]); results flow back per job, which is
//!   what lets `dsp-serve` stream a sweep response as cells finish.
//! * **Cancellation.** Tasks submitted under a [`CancelToken`] are
//!   skipped (never run) if the token is cancelled while they are
//!   still queued — a request that hits its deadline takes its
//!   remaining work out of the pool instead of leaking it.
//! * **Telemetry.** [`Executor::stats`] snapshots queue depths, busy
//!   workers, per-priority execution counts, and a per-worker executed
//!   count, so "did this sweep use the whole machine" is observable.
//! * **Tracing.** A pool built with [`Executor::with_tracer`] records
//!   one `exec.wait` span (time from submit to dequeue) and one
//!   `exec.run` span per executed task, parented under the submitter's
//!   [`SpanCtx`] via [`Executor::submit_ctx`], and feeds the
//!   queue-wait latency histogram per priority class. With the default
//!   disabled tracer all of this is a no-op.
//!
//! Tasks must never block on other tasks' handles (submit-and-wait is
//! for *callers* of the pool, not for tasks inside it); every user in
//! this workspace submits only leaf jobs, so the pool cannot deadlock.
//!
//! Determinism: the executor adds none of its own nondeterminism —
//! tasks are claimed in an arbitrary order, but each task is a pure
//! function and results are read back through per-job handles, so a
//! caller that assembles results in submission order gets bit-identical
//! output for any worker count (see `crates/driver/tests/determinism.rs`).

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

pub use dsp_trace::{SpanCtx, Tracer};

/// Scheduling class of a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Point queries (served `/compile`): dequeued before any queued
    /// batch work.
    Interactive,
    /// Sweep cells and CLI batch matrices.
    Batch,
}

/// A shared cancellation flag for a group of tasks (typically: every
/// cell of one request's matrix).
///
/// Cancelling is cooperative and queue-level: tasks still *queued* when
/// the token flips are dequeued without running (their handles resolve
/// to cancelled); tasks already running complete normally. A compute
/// job in this workspace cannot pin a worker forever, but it can pin
/// one for a while: its simulation is bounded by simulator fuel, and
/// its profile and reference interpreter runs only by the
/// interpreter's fixed 500 M-op budget (about 11 s on a tight loop,
/// release build, 2-CPU host).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flip the token. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Why a [`JobHandle`] wait returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome<T> {
    /// The task ran to completion.
    Done(T),
    /// The task was cancelled before running (or its closure panicked;
    /// the panic is contained to the task).
    Cancelled,
    /// The deadline passed first; the task is still queued or running.
    TimedOut,
}

enum JobState<T> {
    Pending,
    Done(T),
    /// Value already handed out by a previous wait.
    Taken,
    Cancelled,
}

struct HandleShared<T> {
    state: Mutex<JobState<T>>,
    done: Condvar,
}

impl<T> HandleShared<T> {
    fn finish(&self, state: JobState<T>) {
        *self.state.lock().expect("job state poisoned") = state;
        self.done.notify_all();
    }
}

/// The submitter's side of one task: wait for its result.
pub struct JobHandle<T> {
    shared: Arc<HandleShared<T>>,
}

impl<T> JobHandle<T> {
    /// Block until the task completes; `None` if it was cancelled (or
    /// panicked).
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned.
    #[must_use]
    pub fn wait(&self) -> Option<T> {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        loop {
            match std::mem::replace(&mut *state, JobState::Taken) {
                JobState::Done(v) => return Some(v),
                JobState::Cancelled => {
                    *state = JobState::Cancelled;
                    return None;
                }
                JobState::Taken => panic!("job result already taken"),
                JobState::Pending => {
                    *state = JobState::Pending;
                    state = self.shared.done.wait(state).expect("job state poisoned");
                }
            }
        }
    }

    /// Wait until `deadline` at the latest. [`WaitOutcome::TimedOut`]
    /// leaves the task in place — the caller typically cancels the
    /// token and moves on.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned.
    #[must_use]
    pub fn wait_until(&self, deadline: Instant) -> WaitOutcome<T> {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        loop {
            match std::mem::replace(&mut *state, JobState::Taken) {
                JobState::Done(v) => return WaitOutcome::Done(v),
                JobState::Cancelled => {
                    *state = JobState::Cancelled;
                    return WaitOutcome::Cancelled;
                }
                JobState::Taken => panic!("job result already taken"),
                JobState::Pending => {
                    *state = JobState::Pending;
                    let Some(timeout) = deadline.checked_duration_since(Instant::now()) else {
                        return WaitOutcome::TimedOut;
                    };
                    let (guard, result) = self
                        .shared
                        .done
                        .wait_timeout(state, timeout)
                        .expect("job state poisoned");
                    state = guard;
                    if result.timed_out() && matches!(*state, JobState::Pending) {
                        return WaitOutcome::TimedOut;
                    }
                }
            }
        }
    }
}

enum TaskMode {
    Run,
    Cancel,
}

struct Task {
    token: Option<CancelToken>,
    priority: Priority,
    /// Trace context of the submitter; queue-wait and run spans are
    /// parented under it.
    ctx: SpanCtx,
    /// When the task was enqueued — only sampled when the pool's
    /// tracer is enabled, so the disabled path takes no clock reads.
    submitted: Option<Instant>,
    run: Box<dyn FnOnce(TaskMode) + Send>,
}

struct QueueState {
    interactive: VecDeque<Task>,
    batch: VecDeque<Task>,
    closed: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    ready: Condvar,
    workers: usize,
    busy: AtomicUsize,
    executed_interactive: AtomicU64,
    executed_batch: AtomicU64,
    cancelled: AtomicU64,
    per_worker_executed: Vec<AtomicU64>,
    tracer: Arc<Tracer>,
}

fn class_label(priority: Priority) -> &'static str {
    match priority {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    }
}

/// Telemetry snapshot of an [`Executor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Pool size.
    pub workers: usize,
    /// Workers currently running a task.
    pub busy: usize,
    /// Interactive tasks waiting.
    pub queued_interactive: usize,
    /// Batch tasks waiting.
    pub queued_batch: usize,
    /// Interactive tasks executed to completion.
    pub executed_interactive: u64,
    /// Batch tasks executed to completion.
    pub executed_batch: u64,
    /// Tasks dequeued under a cancelled token and skipped.
    pub cancelled: u64,
    /// Tasks executed by each worker — the "did one request use the
    /// whole pool" telemetry.
    pub per_worker_executed: Vec<u64>,
}

/// A fixed pool of worker threads draining a two-level priority queue.
///
/// Shared via `Arc` by everything that computes: the CLI builds one per
/// invocation, `dsp-serve` builds one per process, and every
/// [`dsp_driver`-style engine] submits its pipeline cells here instead
/// of spawning threads of its own. Dropping the last reference closes
/// the queue; workers drain what is already queued and exit on their
/// own, detached — a worker may be deep inside an abandoned
/// (deadline-expired) job that only simulator fuel or the
/// interpreter's fixed operation budget will stop, and a join would
/// stall teardown for exactly that long.
pub struct Executor {
    inner: Arc<Inner>,
}

impl Executor {
    /// A pool of `threads` workers; `0` means
    /// [`std::thread::available_parallelism`]. Tracing is disabled;
    /// use [`Executor::with_tracer`] to record spans.
    #[must_use]
    pub fn new(threads: usize) -> Executor {
        Executor::with_tracer(threads, Tracer::disabled())
    }

    /// A pool whose workers record `exec.wait` / `exec.run` spans and
    /// queue-wait histograms on `tracer` (a no-op when the tracer is
    /// disabled).
    #[must_use]
    pub fn with_tracer(threads: usize, tracer: Arc<Tracer>) -> Executor {
        let workers = if threads == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            threads
        };
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            workers,
            busy: AtomicUsize::new(0),
            executed_interactive: AtomicU64::new(0),
            executed_batch: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            per_worker_executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            tracer,
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("dsp-exec-{i}"))
                .spawn(move || worker_loop(&inner, i))
                .expect("spawn executor worker");
        }
        Executor { inner }
    }

    /// Pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Submit one task; the closure runs on a pool worker. A task
    /// carrying a `token` is skipped (handle resolves cancelled) if the
    /// token is cancelled while the task is still queued.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex is poisoned.
    pub fn submit<T, F>(
        &self,
        priority: Priority,
        token: Option<&CancelToken>,
        f: F,
    ) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_ctx(priority, token, SpanCtx::NONE, f)
    }

    /// [`Executor::submit`] with a trace context: the task's
    /// `exec.wait` and `exec.run` spans are parented under `ctx`, so a
    /// request's trace shows where its cells waited and ran.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex is poisoned.
    pub fn submit_ctx<T, F>(
        &self,
        priority: Priority,
        token: Option<&CancelToken>,
        ctx: SpanCtx,
        f: F,
    ) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            state: Mutex::new(JobState::Pending),
            done: Condvar::new(),
        });
        let result_slot = Arc::clone(&shared);
        let run = Box::new(move |mode: TaskMode| match mode {
            TaskMode::Run => match catch_unwind(AssertUnwindSafe(f)) {
                Ok(v) => result_slot.finish(JobState::Done(v)),
                // Contain the panic to this task; the worker survives.
                Err(_) => result_slot.finish(JobState::Cancelled),
            },
            TaskMode::Cancel => result_slot.finish(JobState::Cancelled),
        });
        let task = Task {
            token: token.cloned(),
            priority,
            ctx,
            submitted: self.inner.tracer.is_enabled().then(Instant::now),
            run,
        };
        {
            let mut queue = self.inner.queue.lock().expect("executor queue poisoned");
            if queue.closed {
                // Only reachable while the executor is being dropped,
                // which means nobody is left to wait on this handle.
                drop(queue);
                (task.run)(TaskMode::Cancel);
                return JobHandle { shared };
            }
            match priority {
                Priority::Interactive => queue.interactive.push_back(task),
                Priority::Batch => queue.batch.push_back(task),
            }
        }
        self.inner.ready.notify_one();
        JobHandle { shared }
    }

    /// Snapshot the executor's telemetry.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex is poisoned.
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        let (queued_interactive, queued_batch) = {
            let queue = self.inner.queue.lock().expect("executor queue poisoned");
            (queue.interactive.len(), queue.batch.len())
        };
        ExecutorStats {
            workers: self.inner.workers,
            busy: self.inner.busy.load(Ordering::Relaxed),
            queued_interactive,
            queued_batch,
            executed_interactive: self.inner.executed_interactive.load(Ordering::Relaxed),
            executed_batch: self.inner.executed_batch.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            per_worker_executed: self
                .inner
                .per_worker_executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Close and wake, but never join: workers hold their own Arc
        // to the shared state, drain the remaining queue, and exit when
        // it is empty. At process exit they are simply killed, which is
        // the desired fate for an abandoned fuel-bounded job.
        self.inner
            .queue
            .lock()
            .expect("executor queue poisoned")
            .closed = true;
        self.inner.ready.notify_all();
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().expect("executor queue poisoned");
            loop {
                if let Some(task) = queue
                    .interactive
                    .pop_front()
                    .or_else(|| queue.batch.pop_front())
                {
                    break task;
                }
                if queue.closed {
                    return;
                }
                queue = inner.ready.wait(queue).expect("executor queue poisoned");
            }
        };
        if task.token.as_ref().is_some_and(CancelToken::is_cancelled) {
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            (task.run)(TaskMode::Cancel);
            continue;
        }
        inner.busy.fetch_add(1, Ordering::Relaxed);
        // Counters are bumped before running so that a caller who has
        // just observed a job's completion reads them fully up to date.
        inner.per_worker_executed[index].fetch_add(1, Ordering::Relaxed);
        match task.priority {
            Priority::Interactive => inner.executed_interactive.fetch_add(1, Ordering::Relaxed),
            Priority::Batch => inner.executed_batch.fetch_add(1, Ordering::Relaxed),
        };
        let class = class_label(task.priority);
        if let Some(submitted) = task.submitted {
            // Backfill the time this task spent queued, anchored at
            // its submit instant so the trace nests correctly.
            let wait = submitted.elapsed();
            inner.tracer.record_span(
                "exec.wait",
                "exec",
                task.ctx,
                submitted,
                wait,
                vec![("class", class.to_string())],
            );
            inner
                .tracer
                .observe(dsp_trace::families::QUEUE_WAIT, class, wait);
        }
        {
            let mut span = inner.tracer.span("exec.run", "exec", task.ctx);
            span.attr("class", class);
            (task.run)(TaskMode::Run);
        }
        inner.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_through_handles() {
        let exec = Executor::new(2);
        let handles: Vec<JobHandle<usize>> = (0..16)
            .map(|i| exec.submit(Priority::Batch, None, move || i * i))
            .collect();
        let results: Vec<usize> = handles.iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
        let stats = exec.stats();
        assert_eq!(stats.executed_batch, 16);
        assert_eq!(stats.cancelled, 0);
    }

    #[test]
    fn interactive_jumps_ahead_of_queued_batch_work() {
        // One worker, blocked by a gate task. While it is blocked,
        // enqueue batch tasks and then one interactive task; the
        // interactive one must run before every still-queued batch task.
        let exec = Executor::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let gate = exec.submit(Priority::Batch, None, move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("gate task must start");

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            let order = Arc::clone(&order);
            handles.push(exec.submit(Priority::Batch, None, move || {
                order.lock().unwrap().push(format!("batch-{i}"));
            }));
        }
        let order2 = Arc::clone(&order);
        let interactive = exec.submit(Priority::Interactive, None, move || {
            order2.lock().unwrap().push("interactive".to_string());
        });

        gate_tx.send(()).unwrap();
        gate.wait().unwrap();
        interactive.wait().unwrap();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(
            order.lock().unwrap().first().map(String::as_str),
            Some("interactive"),
            "interactive task must be dequeued before queued batch tasks"
        );
    }

    #[test]
    fn cancelled_queued_tasks_never_run() {
        let exec = Executor::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let gate = exec.submit(Priority::Batch, None, move || {
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        });
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("gate task must start");

        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle<()>> = (0..8)
            .map(|_| {
                let ran = Arc::clone(&ran);
                exec.submit(Priority::Batch, Some(&token), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        token.cancel();
        gate_tx.send(()).unwrap();
        gate.wait().unwrap();
        for h in handles {
            assert!(h.wait().is_none(), "cancelled task must resolve to None");
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no cancelled task may run");
        assert_eq!(exec.stats().cancelled, 8);
    }

    #[test]
    fn wait_until_times_out_and_the_task_still_completes() {
        let exec = Executor::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let slow = exec.submit(Priority::Batch, None, move || {
            gate_rx.recv().unwrap();
            42
        });
        assert!(matches!(
            slow.wait_until(Instant::now() + Duration::from_millis(30)),
            WaitOutcome::TimedOut
        ));
        gate_tx.send(()).unwrap();
        assert_eq!(slow.wait(), Some(42));
    }

    #[test]
    fn one_batch_uses_every_worker() {
        // N tasks that rendezvous on an N-party barrier can only all
        // finish if N workers run them concurrently.
        const N: usize = 4;
        let exec = Executor::new(N);
        let barrier = Arc::new(std::sync::Barrier::new(N));
        let handles: Vec<JobHandle<()>> = (0..N)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                exec.submit(Priority::Batch, None, move || {
                    barrier.wait();
                })
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = exec.stats();
        assert_eq!(stats.per_worker_executed.len(), N);
        assert!(
            stats.per_worker_executed.iter().all(|&n| n >= 1),
            "every worker must have executed a task: {:?}",
            stats.per_worker_executed
        );
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_pool() {
        let exec = Executor::new(1);
        let bad = exec.submit(Priority::Batch, None, || panic!("task panic"));
        assert!(bad.wait().is_none(), "panicked task resolves to None");
        let ok = exec.submit(Priority::Batch, None, || 7);
        assert_eq!(ok.wait(), Some(7), "the worker must survive the panic");
    }

    #[test]
    fn zero_means_available_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.workers() >= 1);
    }

    #[test]
    fn traced_pool_records_wait_and_run_spans() {
        let tracer = Tracer::new(64);
        let exec = Executor::with_tracer(1, Arc::clone(&tracer));
        let root = tracer.new_trace();
        let h = exec.submit_ctx(Priority::Interactive, None, root, || 5);
        assert_eq!(h.wait(), Some(5));
        // The run span records just *after* the handle resolves (the
        // guard drops once the task body returns), so poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        let spans = loop {
            let spans = tracer.snapshot(16);
            if spans.iter().any(|s| s.name == "exec.run") {
                break spans;
            }
            assert!(Instant::now() < deadline, "run span never appeared");
            std::thread::sleep(Duration::from_millis(2));
        };
        let wait = spans
            .iter()
            .find(|s| s.name == "exec.wait")
            .expect("wait span");
        let run = spans
            .iter()
            .find(|s| s.name == "exec.run")
            .expect("run span");
        for s in [wait, run] {
            assert_eq!(s.trace, root.trace, "spans join the submitter's trace");
            assert_eq!(s.parent, root.span);
            assert!(s
                .attrs
                .iter()
                .any(|(k, v)| *k == "class" && v == "interactive"));
        }
        let fam = tracer.family_snapshot(dsp_trace::families::QUEUE_WAIT);
        assert_eq!(fam.len(), 1);
        assert_eq!(fam[0].0, "interactive");
        assert_eq!(fam[0].1.count, 1);
    }

    #[test]
    fn untraced_submit_samples_no_clock() {
        // Executor::new uses a disabled tracer: tasks must carry no
        // submit timestamp and record nothing.
        let tracer = Tracer::disabled();
        let exec = Executor::with_tracer(1, Arc::clone(&tracer));
        assert_eq!(exec.submit(Priority::Batch, None, || 1).wait(), Some(1));
        assert!(tracer.snapshot(4).is_empty());
        assert!(tracer.family_names().is_empty());
    }
}
