//! The worker pool (paper §VI-B).
//!
//! A predetermined number of workers repeatedly pick the
//! highest-priority task off the global queue and execute it. Tasks are
//! plain `FnOnce` closures; they may submit further tasks (that is how
//! the dependency graph unfolds at runtime — the task that completes a
//! node's sum enqueues the node's dependent tasks).
//!
//! Workers can additionally **donate** themselves to a fork-join pool
//! ([`Executor::with_donation`]): whenever the task queue is empty, a
//! worker executes pending `rayon` scope jobs instead of parking. A
//! scheduler task that opens a parallel FFT scope therefore runs its
//! line chunks on otherwise-idle sibling workers — one thread budget
//! for task- and data-parallelism, no oversubscription. Scheduler
//! tasks always take precedence: donation happens only when the queue
//! has nothing runnable.

use crate::queue::{QueuePolicy, TaskQueue};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Registers a donor waker on `pool` that calls `wake(&target)` for
/// every queued fork-join job, holding `target` weakly. Returns the
/// `Arc` that keeps the registration alive — drop it to unregister.
/// Shared by both executor flavours so the lost-wakeup-sensitive
/// pairing lives in one place.
pub(crate) fn register_donor_waker<T, F>(
    pool: &rayon::ThreadPool,
    target: &Arc<T>,
    wake: F,
) -> Arc<dyn Fn() + Send + Sync>
where
    T: Send + Sync + 'static,
    F: Fn(&T) + Send + Sync + 'static,
{
    let weak = Arc::downgrade(target);
    let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
        if let Some(t) = weak.upgrade() {
            wake(&t);
        }
    });
    pool.add_donor_waker(&waker);
    waker
}

/// Anything that can run tasks at a priority — implemented by the
/// queue-based [`Executor`] and the work-stealing alternative.
pub trait Scheduler: Send + Sync {
    /// Enqueues a task; smaller priority runs earlier.
    fn submit(&self, priority: u64, task: Task);
    /// Scheduler statistics snapshot.
    fn stats(&self) -> SchedStats;
    /// Tasks waiting right now — the lock-free backpressure gauge an
    /// admission controller polls per request ([`SchedStats::queue_depth`]
    /// carries the same number in snapshots). Both executors override
    /// this with an atomic read; the default goes through [`Scheduler::stats`].
    fn queue_depth(&self) -> u64 {
        self.stats().queue_depth
    }
    /// Blocks until every submitted task has run and no worker is
    /// busy. Only meaningful when no external thread keeps submitting.
    fn wait_quiescent(&self);
}

/// Counters describing scheduler activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks executed by workers.
    pub executed: u64,
    /// Maximum queue length observed at submit time.
    pub peak_queue_len: u64,
    /// Maximum number of distinct priorities observed at submit time
    /// (the K of the heap-of-lists bound; 0 for non-priority policies).
    pub peak_distinct_priorities: u64,
    /// Tasks waiting in the queue at the moment of the snapshot — the
    /// backpressure signal a caller polls to throttle submission. Zero
    /// when the scheduler is quiescent. (For the work-stealing
    /// executor this counts submitted-but-unfinished tasks, which also
    /// includes tasks currently executing.)
    pub queue_depth: u64,
    /// Tasks that panicked while executing. Workers catch the unwind,
    /// count it here, and keep serving — a panicking task must never
    /// take a worker thread (and with it the whole round protocol)
    /// down. Callers that need round-level containment (the engine)
    /// additionally wrap their task bodies; panics caught there do not
    /// reach this counter.
    pub task_panics: u64,
    /// Panics of *detached* fork-join spawns recorded by the donation
    /// pool this executor's workers serve ([`Executor::with_donation`]).
    /// Zero for executors without a donation pool. Surfaced here so a
    /// silently-discarded spawn panic is visible to round statistics
    /// and CI assertions.
    pub detached_panics: u64,
}

struct Shared {
    queue: Mutex<TaskQueue<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Lock-free mirror of the queue length (incremented on submit,
    /// decremented when a worker takes a task) so backpressure polls
    /// never contend on the queue mutex.
    depth: AtomicU64,
    executed: AtomicU64,
    task_panics: AtomicU64,
    peak_len: AtomicU64,
    peak_k: AtomicU64,
    idle_workers: AtomicUsize,
    workers: usize,
    idle_cond: Condvar,
    idle_lock: Mutex<()>,
    /// Fork-join pool idle workers donate to (scope jobs run when the
    /// task queue is empty).
    donate: Option<Arc<rayon::ThreadPool>>,
}

/// The queue-based worker pool. Dropping the executor shuts the workers
/// down after the queue drains.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Keeps the donor waker registered with the fork-join pool alive;
    /// dropping the executor unregisters it.
    _waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Executor {
    /// Starts `workers >= 1` worker threads with the given queue policy.
    pub fn new(workers: usize, policy: QueuePolicy) -> Self {
        Self::build(workers, policy, None)
    }

    /// Starts `workers >= 1` worker threads that **donate** to `pool`:
    /// whenever the task queue is empty, a worker executes pending
    /// fork-join jobs (parallel FFT line chunks, baseline `par_iter`
    /// chunks) from `pool` instead of parking. Pair with a
    /// [`rayon::ThreadPool::donor_only`] pool so the executor's workers
    /// are the *only* threads in the budget.
    ///
    /// # Example
    ///
    /// One thread budget, two kinds of parallelism: a scheduler task
    /// opens a fork-join scope on the shared donor-only pool, and its
    /// chunks run on the task's own thread plus idle sibling workers —
    /// never on new OS threads. (This is exactly how `znn-core` wires
    /// `FftEngine::with_pool` to its executor.)
    ///
    /// ```
    /// use std::sync::{mpsc, Arc};
    /// use znn_sched::{Executor, QueuePolicy, Scheduler};
    ///
    /// let pool = Arc::new(rayon::ThreadPool::donor_only());
    /// let exec = Executor::with_donation(2, QueuePolicy::Priority, Arc::clone(&pool));
    /// let (tx, rx) = mpsc::channel();
    /// exec.submit(0, {
    ///     let pool = Arc::clone(&pool);
    ///     Box::new(move || {
    ///         let mut halves = [0u32; 2];
    ///         pool.scope(|s| {
    ///             for (i, h) in halves.iter_mut().enumerate() {
    ///                 s.spawn(move |_| *h = i as u32 + 1);
    ///             }
    ///         });
    ///         tx.send(halves[0] + halves[1]).unwrap();
    ///     })
    /// });
    /// assert_eq!(rx.recv().unwrap(), 3);
    /// ```
    pub fn with_donation(workers: usize, policy: QueuePolicy, pool: Arc<rayon::ThreadPool>) -> Self {
        Self::build(workers, policy, Some(pool))
    }

    fn build(workers: usize, policy: QueuePolicy, donate: Option<Arc<rayon::ThreadPool>>) -> Self {
        assert!(workers >= 1, "an executor needs at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(TaskQueue::new(policy)),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            depth: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            task_panics: AtomicU64::new(0),
            peak_len: AtomicU64::new(0),
            peak_k: AtomicU64::new(0),
            idle_workers: AtomicUsize::new(0),
            workers,
            idle_cond: Condvar::new(),
            idle_lock: Mutex::new(()),
            donate,
        });
        // wake a parked worker when a fork-join job is queued. Taking
        // the queue lock before notifying pairs with the worker's
        // has-pending re-check under that same lock, so workers can
        // park on an untimed wait without ever missing a donated job.
        // notify_one: every `available` waiter re-checks queue + pool
        // identically, so one wakeup per job is enough and a burst of
        // W chunk pushes wakes at most W workers.
        let waker = shared.donate.as_ref().map(|pool| {
            register_donor_waker(pool, &shared, |s: &Shared| {
                drop(s.queue.lock());
                s.available.notify_one();
            })
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("znn-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn worker")
            })
            .collect();
        Executor {
            shared,
            handles,
            _waker: waker,
        }
    }

    /// The paper's default configuration: priority policy, one worker
    /// per available hardware thread.
    pub fn with_default_workers() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Executor::new(n, QueuePolicy::Priority)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Tasks waiting in the queue right now, from the atomic gauge —
    /// safe to poll per request without touching the queue lock.
    pub fn queue_depth(&self) -> u64 {
        self.shared.depth.load(Ordering::Acquire)
    }
}

impl Scheduler for Executor {
    fn submit(&self, priority: u64, task: Task) {
        let (len, k) = {
            let mut q = self.shared.queue.lock();
            q.push(priority, task);
            // gauge update under the queue lock so it never drifts from
            // the queue it mirrors (pop decrements under the same lock)
            self.shared.depth.fetch_add(1, Ordering::Release);
            (q.len() as u64, q.distinct_priorities() as u64)
        };
        self.shared.peak_len.fetch_max(len, Ordering::Relaxed);
        self.shared.peak_k.fetch_max(k, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            peak_queue_len: self.shared.peak_len.load(Ordering::Relaxed),
            peak_distinct_priorities: self.shared.peak_k.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            task_panics: self.shared.task_panics.load(Ordering::Relaxed),
            detached_panics: self
                .shared
                .donate
                .as_ref()
                .map(|p| p.detached_panics())
                .unwrap_or(0),
        }
    }

    /// Blocks until the queue is empty **and** every worker is idle.
    fn wait_quiescent(&self) {
        let mut guard = self.shared.idle_lock.lock();
        loop {
            let queue_empty = self.shared.queue.lock().is_empty();
            let all_idle =
                self.shared.idle_workers.load(Ordering::SeqCst) == self.shared.workers;
            if queue_empty && all_idle {
                return;
            }
            self.shared
                .idle_cond
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // 1) scheduler tasks first — they carry the priorities
        let task = {
            let mut q = shared.queue.lock();
            let t = q.pop();
            if t.is_some() {
                shared.depth.fetch_sub(1, Ordering::Release);
            }
            t
        };
        if let Some(task) = task {
            // contain panics at the worker: a panicking task must fail
            // *itself*, not kill this thread — a dead worker would
            // strand the queue, break `wait_quiescent`'s all-idle
            // accounting, and hang every later round. The executed
            // counter and idle notification must fire either way.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                shared.task_panics.fetch_add(1, Ordering::Relaxed);
            }
            shared.executed.fetch_add(1, Ordering::Relaxed);
            shared.idle_cond.notify_all();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // 2) queue empty: donate this thread to pending fork-join jobs
        if let Some(pool) = &shared.donate {
            if pool.run_pending_job() {
                continue;
            }
        }
        // 3) nothing anywhere: park until a submit or a fork-join
        //    waker arrives. Every wake source flips its state and
        //    notifies while holding the queue lock (submit pushes
        //    under it, the donor waker acquires it, drop takes it),
        //    and all three conditions are re-checked under that lock
        //    here — so the untimed wait cannot miss a wakeup and idle
        //    workers never poll.
        let mut q = shared.queue.lock();
        if !q.is_empty() {
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(pool) = &shared.donate {
            if pool.has_pending_jobs() {
                continue; // a job slipped in between step 2 and here
            }
        }
        shared.idle_workers.fetch_add(1, Ordering::SeqCst);
        shared.idle_cond.notify_all();
        shared.available.wait(&mut q);
        shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // take the queue lock before notifying: a worker between its
        // shutdown re-check (under the lock) and its untimed wait
        // would otherwise sleep through this notification forever
        drop(self.shared.queue.lock());
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Latch;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn executes_every_task_once() {
        let ex = Executor::new(4, QueuePolicy::Priority);
        let counter = Arc::new(TestCounter::new(0));
        let latch = Arc::new(Latch::new(100));
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            ex.submit(i % 7, Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                latch.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        // the latch opens inside the last task, before the worker
        // bumps `executed` — quiesce before reading the counter
        ex.wait_quiescent();
        assert_eq!(ex.stats().executed, 100);
    }

    #[test]
    fn single_worker_respects_priority_order() {
        let ex = Executor::new(1, QueuePolicy::Priority);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(Latch::new(1));
        let done = Arc::new(Latch::new(4));
        // block the worker so all submissions land before execution
        {
            let gate = Arc::clone(&gate);
            ex.submit(0, Box::new(move || gate.wait()));
        }
        for (p, name) in [(5u64, "low"), (1, "high"), (3, "mid"), (crate::UPDATE_PRIORITY, "update")] {
            let order = Arc::clone(&order);
            let done = Arc::clone(&done);
            ex.submit(p, Box::new(move || {
                order.lock().push(name);
                done.count_down();
            }));
        }
        gate.count_down();
        done.wait();
        assert_eq!(*order.lock(), vec!["high", "mid", "low", "update"]);
    }

    #[test]
    fn tasks_can_submit_tasks() {
        let ex = Arc::new(Executor::new(2, QueuePolicy::Priority));
        let latch = Arc::new(Latch::new(10));
        let ex2 = Arc::clone(&ex);
        let latch2 = Arc::clone(&latch);
        ex.submit(0, Box::new(move || {
            for _ in 0..10 {
                let latch = Arc::clone(&latch2);
                ex2.submit(1, Box::new(move || latch.count_down()));
            }
        }));
        latch.wait();
    }

    #[test]
    fn wait_quiescent_waits_for_running_tasks() {
        let ex = Executor::new(2, QueuePolicy::Fifo);
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        ex.submit(0, Box::new(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag2.store(true, Ordering::SeqCst);
        }));
        ex.wait_quiescent();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let ex = Executor::new(3, QueuePolicy::Lifo);
        let latch = Arc::new(Latch::new(5));
        for _ in 0..5 {
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || latch.count_down()));
        }
        latch.wait();
        drop(ex); // must not hang
    }

    #[test]
    fn queue_depth_tracks_backpressure() {
        let ex = Executor::new(1, QueuePolicy::Priority);
        let gate = Arc::new(Latch::new(1));
        let done = Arc::new(Latch::new(4));
        {
            let gate = Arc::clone(&gate);
            ex.submit(0, Box::new(move || gate.wait()));
        }
        for _ in 0..4 {
            let done = Arc::clone(&done);
            ex.submit(1, Box::new(move || done.count_down()));
        }
        // the worker holds the gate task; four tasks queue behind it
        assert!(ex.stats().queue_depth >= 4);
        gate.count_down();
        done.wait();
        ex.wait_quiescent();
        assert_eq!(ex.stats().queue_depth, 0, "depth must drain to zero");
    }

    #[test]
    fn panicking_task_is_counted_and_workers_survive() {
        let ex = Executor::new(2, QueuePolicy::Priority);
        let done = Arc::new(Latch::new(20));
        for i in 0..20u64 {
            let done = Arc::clone(&done);
            if i % 5 == 0 {
                ex.submit(0, Box::new(move || {
                    done.count_down();
                    panic!("injected task panic");
                }));
            } else {
                ex.submit(0, Box::new(move || done.count_down()));
            }
        }
        // all 20 ran despite 4 panics — the workers survived
        done.wait();
        ex.wait_quiescent();
        let stats = ex.stats();
        assert_eq!(stats.executed, 20);
        assert_eq!(stats.task_panics, 4, "every panic must be counted");
        // the pool still serves tasks after the panics
        let after = Arc::new(Latch::new(1));
        let a2 = Arc::clone(&after);
        ex.submit(0, Box::new(move || a2.count_down()));
        after.wait();
    }

    #[test]
    fn stats_track_peaks() {
        let ex = Executor::new(1, QueuePolicy::Priority);
        let gate = Arc::new(Latch::new(1));
        let done = Arc::new(Latch::new(6));
        {
            let gate = Arc::clone(&gate);
            ex.submit(0, Box::new(move || gate.wait()));
        }
        for i in 0..6u64 {
            let done = Arc::clone(&done);
            ex.submit(i % 3, Box::new(move || done.count_down()));
        }
        let stats = ex.stats();
        assert!(stats.peak_queue_len >= 6);
        assert!(stats.peak_distinct_priorities >= 3);
        gate.count_down();
        done.wait();
    }
}
