//! Persistent shard executor: a parked worker pool that per-query shard
//! tasks dispatch onto, replacing per-query `std::thread::scope` spawns.
//!
//! PR 4 drove per-shard *scoring* down to ~13µs, at which point the spawn +
//! join of one OS thread per shard per query became the dominant cost of the
//! sharded path (an 8-shard query paid ~1ms of pure dispatch on a loaded
//! box). A [`ShardExecutor`] is constructed **once** (the qunit engine
//! builds one at `build` time) and amortizes that cost to nothing: workers
//! park on a condvar and wake only when a query enqueues tasks.
//!
//! Its one caller is a query's shard fan-out: [`ShardExecutor::try_run`]
//! takes one query's shard tasks. Two design points matter for latency:
//!
//! - **The caller helps.** [`ShardExecutor::try_run`] runs the first task
//!   of its batch itself, queues only the rest, and does not sit blocked
//!   while workers drain the queue — it pops and executes tasks itself
//!   until its batch completes. On a single-core host (or a pool busy with
//!   other queries) dispatch therefore degrades gracefully toward inline
//!   execution instead of toward a context-switch storm. It also makes
//!   nested dispatch deadlock-free: a task that itself calls `try_run`
//!   keeps executing queued work while it waits.
//! - **Adaptive inlining is the caller's job.** The executor executes what
//!   it is given; [`DispatchPolicy`] is the shared knob callers use to
//!   decide *whether* to dispatch at all. Small queries (estimated postings
//!   walk below a threshold) score on the calling thread with zero dispatch
//!   — no queue lock, no wakeup — because even a parked-worker handoff
//!   costs more than scoring a few hundred postings.
//!
//! Every enqueue is counted in [`ExecutorStats`], including the queue-wait
//! nanoseconds of every dequeued task, so an operator can see queueing
//! delay build before it becomes a tail-latency incident.
//!
//! # Determinism
//!
//! The executor adds no ordering freedom that can reach results: shard
//! tasks write into disjoint result slots and the merge happens on the
//! calling thread after every task completes, so inline execution and pool
//! dispatch at any pool size are bit-identical (property-tested in
//! `tests/prop_ir.rs`; the CI determinism job additionally diffs
//! transcripts at `QUNITS_INLINE_THRESHOLD=18446744073709551615` and
//! `QUNITS_INLINE_THRESHOLD=0`).
//!
//! # Panic containment and shutdown
//!
//! A panic inside a task is caught on the executing worker (or helping
//! caller) and carried back through the batch latch; **workers always
//! survive** a panicking task and keep serving the queue.
//! [`ShardExecutor::try_run`] returns the first payload as an
//! `Err(`[`TaskPanic`]`)` after every task in the batch has completed; the
//! engine maps it to `SearchError::Internal`.
//!
//! Dropping the executor parks no new work, wakes every worker, and joins
//! them; already-queued tasks are drained first so no in-flight `try_run`
//! is ever abandoned, even when some of those tasks panic.

use crate::fault::{self, site};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A type-erased task. The `'static` is a lie [`ShardExecutor::try_run`]
/// makes true: `try_run` never returns until every job it enqueued has
/// finished executing, so the borrows a job captures outlive its
/// execution.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued task paired with its batch latch. The caller's `Box` is the
/// only per-task allocation — panic capture and latch accounting happen at
/// the execution site ([`QueuedJob::execute`]), not in a second wrapper
/// closure.
struct QueuedJob {
    job: Job,
    latch: Arc<Latch>,
    /// When the batch was submitted; read when the queue hands the job out.
    enqueued_at: Instant,
}

impl QueuedJob {
    fn execute(self) {
        // The latch must count the job down even if it panics, or `try_run`
        // would never return and the borrow-soundness argument (and the
        // caller) would hang. By the time `complete` runs, the job and
        // everything it borrowed have been dropped. The failpoint sits
        // inside the catch so an injected `exec.task` panic is contained
        // exactly like an organic one.
        let job = self.job;
        let result = catch_unwind(AssertUnwindSafe(move || {
            fault::check_infallible(site::EXEC_TASK);
            job();
        }));
        self.latch.complete(result.err());
    }
}

/// A task panicked inside a [`ShardExecutor`] batch. Returned by
/// [`ShardExecutor::try_run`] once **every** task in the batch has
/// completed — the rest of the batch is never abandoned, and the pool
/// workers survive. Holds the first panic's payload; re-raise it with
/// [`std::panic::resume_unwind`] or describe it with
/// [`TaskPanic::message`].
pub struct TaskPanic {
    /// The payload of the first panicking task in the batch.
    pub payload: Box<dyn Any + Send>,
}

impl TaskPanic {
    /// Best-effort human-readable panic message: the payload string for
    /// the common `panic!("…")` forms, a placeholder otherwise. Injected
    /// faults ([`crate::fault`]) always panic with a string naming their
    /// site, so this is the `site` an engine error report carries.
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPanic")
            .field("message", &self.message())
            .finish()
    }
}

/// State shared between the pool handle and its workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signaled when jobs arrive or shutdown begins.
    work_ready: Condvar,
    /// Enqueue and queue-wait counters (see [`ExecutorStats`]).
    counters: QueueCounters,
}

/// Lock-free accumulators behind [`ShardExecutor::stats`]. All relaxed
/// atomics: the counts are operator telemetry, not synchronization.
#[derive(Default)]
struct QueueCounters {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    queue_wait_nanos: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl QueueCounters {
    /// Record a job leaving the queue for execution: one dequeue plus the
    /// nanoseconds it spent queued (a single clock read per dequeued job;
    /// the first task of a batch, which the caller runs directly, never
    /// passes through here).
    fn note_dequeue(&self, enqueued_at: Instant) {
        self.queue_wait_nanos
            .fetch_add(enqueued_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.dequeued.fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of a [`ShardExecutor`]'s enqueue and queue-wait counters —
/// the queueing-delay half of the service observability story (per-shard
/// scoring time lives in [`crate::ShardTimings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Tasks accepted into the queue: every task of a batch but the
    /// first, which the calling thread runs itself.
    pub enqueued: u64,
    /// Always 0: the queue is unbounded and never refuses a task. Kept
    /// only because the benchmark harness under `perf/` still reads it.
    pub overflowed: u64,
    /// Tasks popped from the queue by a worker or a helping caller.
    pub dequeued: u64,
    /// Total nanoseconds dequeued tasks spent waiting in the queue. Divide
    /// by [`ExecutorStats::dequeued`] for the mean queue wait; a growing
    /// mean under steady load is the canonical saturation signal.
    pub queue_wait_nanos: u64,
    /// High-water mark of queued tasks observed at enqueue time.
    pub max_queue_depth: u64,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// Lock that shrugs off poisoning: the executor's own critical sections
/// never panic (queue pushes/pops and counter updates only), and jobs run
/// outside the lock, so a poisoned mutex carries no broken invariant.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Completion latch for one [`ShardExecutor::try_run`] call: counts outstanding
/// jobs down and carries the first panic payload back to the caller.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                pending,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// One job finished (possibly by panicking).
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = lock(&self.state);
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.pending == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        lock(&self.state).pending == 0
    }

    /// Block until every job completed, then yield the first panic, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = lock(&self.state);
        while st.pending > 0 {
            st = self.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.panic.take()
    }
}

/// A fixed pool of parked worker threads executing borrowed shard tasks.
///
/// Construct once, share by reference (`Sync`), drop for clean shutdown.
/// See the [module docs](self) for the dispatch model.
pub struct ShardExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("pool_size", &self.pool_size())
            .finish_non_exhaustive()
    }
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<ShardExecutor>();

impl ShardExecutor {
    /// Spawn a pool of `threads` parked workers (`0` = one per available
    /// core) with an unbounded queue. The pool never grows or shrinks; with
    /// the caller helping, `threads + 1` threads can execute tasks
    /// concurrently.
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let shared = Arc::new(Shared::default());
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qunit-shard-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard executor worker")
            })
            .collect();
        ShardExecutor { shared, workers }
    }

    /// Number of worker threads parked in the pool.
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the enqueue and queue-wait counters.
    pub fn stats(&self) -> ExecutorStats {
        let c = &self.shared.counters;
        ExecutorStats {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            overflowed: 0,
            dequeued: c.dequeued.load(Ordering::Relaxed),
            queue_wait_nanos: c.queue_wait_nanos.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Execute every task, blocking until all complete. Tasks may borrow
    /// from the caller's stack (`'env`); the borrow is sound because this
    /// function does not return before the last task finishes. Tasks run on
    /// the pool workers *and* on the calling thread (which drains the queue
    /// instead of idling). A panicking task is **contained**: every task
    /// still runs to completion (it counts its latch down like any other),
    /// and the first panic payload comes back as `Err(`[`TaskPanic`]`)`
    /// instead of unwinding the caller. This is the query-boundary
    /// isolation the engine's `SearchError::Internal` path builds on.
    pub fn try_run<'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> Result<(), TaskPanic> {
        let n = tasks.len();
        // One clock read covers the whole batch — per-task `Instant::now()`
        // would put N clock reads on the dispatch path this pool exists to
        // make cheap.
        let now = Instant::now();
        let latch = Arc::new(Latch::new(n));
        // The crate's one `unsafe` outside test code (`#![deny(unsafe_code)]`
        // in `lib.rs`): the job erasure below.
        #[allow(unsafe_code)]
        let mut jobs = tasks.into_iter().map(|task| QueuedJob {
            // SAFETY: lifetime erasure only — same trait object, same
            // layout, no second allocation. `QueuedJob::execute` drops the
            // job (and everything it borrows) before counting the latch
            // down, and this function blocks on the latch before returning,
            // so no `'env` borrow is ever used after `'env` ends.
            job: unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(task) },
            latch: Arc::clone(&latch),
            enqueued_at: now,
        });
        let Some(first) = jobs.next() else {
            return Ok(());
        };
        // The caller runs the first task itself, so only the other n − 1
        // go through the queue, and only that many workers are woken:
        // notify_all on a big pool would stampede every parked worker onto
        // the queue mutex just to find it empty.
        if n > 1 {
            let counters = &self.shared.counters;
            let depth = {
                let mut q = lock(&self.shared.queue);
                q.jobs.extend(jobs);
                q.jobs.len()
            };
            counters.enqueued.fetch_add(n as u64 - 1, Ordering::Relaxed);
            counters
                .max_queue_depth
                .fetch_max(depth as u64, Ordering::Relaxed);
            for _ in 0..(n - 1).min(self.workers.len()) {
                self.shared.work_ready.notify_one();
            }
        }
        first.execute();

        // Work-helping wait: execute queued tasks (ours or another
        // caller's) until our batch is done, then sleep only if workers
        // still hold the last of our jobs.
        while !latch.is_done() && self.try_run_one() {}
        match latch.wait() {
            Some(payload) => Err(TaskPanic { payload }),
            None => Ok(()),
        }
    }

    /// Pop and execute one queued job, if any. Used by the caller's
    /// work-helping loop in [`ShardExecutor::try_run`].
    fn try_run_one(&self) -> bool {
        let job = lock(&self.shared.queue).jobs.pop_front();
        match job {
            Some(job) => {
                self.shared.counters.note_dequeue(job.enqueued_at);
                job.execute();
                true
            }
            None => false,
        }
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker can only terminate by observing shutdown; a panic
            // inside a job is caught before it reaches the worker loop.
            let _ = worker.join();
        }
    }
}

/// Worker body: run queued jobs in order; park when idle; exit on shutdown
/// once the queue is drained (so `Drop` never strands an in-flight
/// `try_run`).
fn worker_loop(shared: &Shared) {
    let mut q = lock(&shared.queue);
    loop {
        if let Some(job) = q.jobs.pop_front() {
            drop(q);
            shared.counters.note_dequeue(job.enqueued_at);
            job.execute();
            q = lock(&shared.queue);
        } else if q.shutdown {
            return;
        } else {
            q = shared.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Inline-vs-dispatch policy for the sharded query path.
///
/// The work estimate is the total number of postings the kernel would walk:
/// the sum of corpus-global document frequencies of the resolved query
/// terms (exactly the statistics the scorers already fold in, so the
/// estimate is free). Below the threshold, handing tasks to parked workers
/// costs more than the scoring itself; above it, the fan-out wins on
/// multi-core hosts.
///
/// The qunit engine builds its policy at build time from its
/// `inline_postings_threshold`, which `QUNITS_INLINE_THRESHOLD` overrides:
/// `usize::MAX` always inlines, `0` dispatches every query with postings
/// to walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Estimated postings at or below this score inline.
    pub inline_postings_threshold: usize,
}

impl DispatchPolicy {
    /// Default adaptive threshold: ~32k postings is a few tens of
    /// microseconds of dense accumulation — the break-even region against a
    /// parked-worker handoff on current hardware.
    pub const DEFAULT_INLINE_THRESHOLD: usize = 32 * 1024;

    /// Policy with the given postings threshold.
    pub fn adaptive(inline_postings_threshold: usize) -> Self {
        DispatchPolicy {
            inline_postings_threshold,
        }
    }

    /// Always-inline policy: `adaptive(usize::MAX)`.
    pub fn force_inline() -> Self {
        DispatchPolicy::adaptive(usize::MAX)
    }

    /// Dispatch every query with postings to walk onto a pool of two or
    /// more workers: `adaptive(0)`.
    pub fn force_dispatch() -> Self {
        DispatchPolicy::adaptive(0)
    }

    /// Decide: score inline on the calling thread (`true`) or dispatch
    /// shard tasks (`false`)? `estimated_postings` is the query's total
    /// postings walk; `pool_size` is how many workers could share it (a
    /// pool of one cannot beat the caller doing the work itself).
    pub fn should_inline(&self, estimated_postings: usize, pool_size: usize) -> bool {
        pool_size <= 1 || estimated_postings <= self.inline_postings_threshold
    }
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy::adaptive(DispatchPolicy::DEFAULT_INLINE_THRESHOLD)
    }
}

/// Running tally of inline-vs-dispatch decisions taken by the sharded
/// search path.
///
/// [`crate::SearchContext::decisions`] points one of these at the searcher;
/// every multi-shard query records exactly one decision (relaxed atomics,
/// no allocation — safe on the hot path). The engine exposes the totals so
/// an operator can see whether the adaptive policy is actually splitting
/// traffic or degenerating to one mode.
#[derive(Debug, Default)]
pub struct DispatchCounts {
    inline: AtomicU64,
    dispatched: AtomicU64,
}

impl DispatchCounts {
    /// New zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one decision: `true` means the query was scored inline on
    /// the calling thread, `false` means it was fanned across the pool.
    pub fn record(&self, inline: bool) {
        if inline {
            self.inline.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot `(inline, dispatched)` totals.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.inline.load(Ordering::Relaxed),
            self.dispatched.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let exec = ShardExecutor::new(3);
        assert_eq!(exec.pool_size(), 3);
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = counters
            .iter()
            .map(|c| {
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.try_run(tasks).unwrap();
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn every_task_of_a_multi_task_batch_is_enqueued() {
        let exec = ShardExecutor::new(2);
        for _ in 0..10 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            exec.try_run(tasks).unwrap();
        }
        let stats = exec.stats();
        assert_eq!(stats.overflowed, 0);
        // The caller runs the first task of each batch itself.
        assert_eq!(stats.enqueued, 70);
        // Every accepted job was either popped by a worker/helper (counted)
        // or drained after the latch released; dequeues never exceed
        // enqueues.
        assert!(stats.dequeued <= stats.enqueued);
    }

    #[test]
    fn dispatch_counts_tally_and_snapshot() {
        let counts = DispatchCounts::new();
        counts.record(true);
        counts.record(true);
        counts.record(false);
        assert_eq!(counts.snapshot(), (2, 1));
    }

    #[test]
    fn tasks_can_write_borrowed_slots() {
        let exec = ShardExecutor::new(2);
        for round in 0..50 {
            let mut slots = [0usize; 9];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i + round;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            exec.try_run(tasks).unwrap();
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, i + round);
            }
        }
    }

    #[test]
    fn concurrent_runs_from_many_threads_share_one_pool() {
        let exec = ShardExecutor::new(2);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
                            .map(|_| {
                                Box::new(|| {
                                    total.fetch_add(1, Ordering::Relaxed);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        exec.try_run(tasks).unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 20 * 5);
    }

    #[test]
    fn nested_run_inside_a_task_completes() {
        // A task dispatching its own sub-tasks must not deadlock even when
        // the pool is smaller than the outstanding batches (the caller and
        // the workers all help drain the queue).
        let exec = ShardExecutor::new(1);
        let total = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    exec.try_run(inner).unwrap();
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.try_run(tasks).unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn try_run_contains_panics_and_completes_the_batch() {
        let exec = ShardExecutor::new(2);
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i % 2 == 0 {
                        panic!("boom {i}");
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let err = exec.try_run(tasks).unwrap_err();
        assert!(err.message().starts_with("boom"), "{err:?}");
        assert_eq!(ran.load(Ordering::Relaxed), 6, "every task still ran");
        // the pool still serves work afterwards
        let after = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        exec.try_run(tasks).unwrap();
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn try_run_contains_the_single_task_fast_path() {
        let exec = ShardExecutor::new(1);
        let err = exec
            .try_run(vec![
                Box::new(|| panic!("solo boom")) as Box<dyn FnOnce() + Send + '_>
            ])
            .unwrap_err();
        assert_eq!(err.message(), "solo boom");
    }

    #[test]
    fn workers_survive_a_panic_storm_and_drop_drains_cleanly() {
        // Every batch panics on every task, across more rounds than there
        // are workers: if a panic could kill a worker thread, the pool
        // would wedge long before the end. Drop afterwards must still join
        // every worker (none has exited early).
        let exec = ShardExecutor::new(2);
        let survived = AtomicUsize::new(0);
        for _ in 0..10 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let survived = &survived;
                    Box::new(move || {
                        survived.fetch_add(1, Ordering::Relaxed);
                        panic!("storm");
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            assert!(exec.try_run(tasks).is_err());
        }
        assert_eq!(survived.load(Ordering::Relaxed), 40);
        let stats = exec.stats();
        assert_eq!(stats.enqueued, 30);
        assert!(stats.dequeued <= stats.enqueued);
        drop(exec); // joins both workers; a hang here fails the test run
    }

    #[test]
    fn empty_and_single_task_batches() {
        let exec = ShardExecutor::new(2);
        exec.try_run(Vec::new()).unwrap();
        let hit = AtomicUsize::new(0);
        exec.try_run(vec![Box::new(|| {
            hit.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>])
            .unwrap();
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for size in [1usize, 2, 8] {
            let exec = ShardExecutor::new(size);
            let done = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..size * 4)
                .map(|_| {
                    Box::new(|| {
                        done.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            exec.try_run(tasks).unwrap();
            drop(exec);
            assert_eq!(done.load(Ordering::Relaxed), size * 4);
        }
    }

    #[test]
    fn policy_decides_inline_vs_dispatch() {
        let p = DispatchPolicy::adaptive(100);
        assert!(p.should_inline(100, 8), "at threshold → inline");
        assert!(!p.should_inline(101, 8), "above threshold → dispatch");
        assert!(p.should_inline(1_000_000, 1), "pool of one → inline");
        assert!(DispatchPolicy::force_inline().should_inline(usize::MAX, 8));
        let dispatch = DispatchPolicy::force_dispatch();
        assert!(!dispatch.should_inline(1, 8), "any postings → dispatch");
        assert!(dispatch.should_inline(0, 8), "nothing to walk → inline");
        assert!(dispatch.should_inline(1_000_000, 1), "pool of one → inline");
    }
}
