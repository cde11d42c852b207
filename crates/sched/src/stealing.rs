//! The work-stealing alternative scheduler (paper §X).
//!
//! "The repository also provides alternative scheduling strategies such
//! as simple FIFO or LIFO as well as some more complex ones based on
//! work stealing \[22\]. The alternative scheduling strategies achieve
//! noticeably lower scalability than the one proposed in the paper for
//! most networks." — this module provides the work-stealing one so the
//! §X ablation can measure that claim.
//!
//! Workers own Chase–Lev deques (crossbeam); external submissions go to
//! a shared injector; a worker pops its own deque LIFO, refills from the
//! injector, and steals FIFO from siblings. Priorities are ignored —
//! that is precisely the property the ablation probes.

use crate::executor::{SchedStats, Scheduler, Task};
use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

thread_local! {
    /// The local deque of the current worker thread, if it belongs to a
    /// stealing pool; tasks submitted from a worker go here (the classic
    /// work-first rule).
    static LOCAL: RefCell<Option<(usize, Arc<Pool>)>> = const { RefCell::new(None) };
}

struct Pool {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    locals: Vec<Mutex<Worker<Task>>>,
    shutdown: AtomicBool,
    executed: AtomicU64,
    task_panics: AtomicU64,
    submitted: AtomicU64,
    parked: Mutex<usize>,
    wake: Condvar,
    id: u64,
    /// Fork-join pool idle workers donate to (scope jobs run when no
    /// task is runnable anywhere).
    donate: Option<Arc<rayon::ThreadPool>>,
}

/// A work-stealing executor with the same [`Scheduler`] interface as the
/// priority [`crate::Executor`]. Like it, workers can donate idle time
/// to a fork-join pool ([`StealingExecutor::with_donation`]).
pub struct StealingExecutor {
    pool: Arc<Pool>,
    handles: Vec<JoinHandle<()>>,
    /// Keeps the donor waker registered with the fork-join pool alive.
    _waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

static POOL_IDS: AtomicU64 = AtomicU64::new(0);

impl StealingExecutor {
    /// Submitted-but-unfinished tasks right now (includes tasks
    /// currently executing — there is no central queue to measure) —
    /// the lock-free backpressure gauge, matching
    /// [`crate::SchedStats::queue_depth`].
    pub fn queue_depth(&self) -> u64 {
        let executed = self.pool.executed.load(Ordering::Acquire);
        let submitted = self.pool.submitted.load(Ordering::Acquire);
        submitted.saturating_sub(executed)
    }

    /// Starts `workers >= 1` stealing workers.
    pub fn new(workers: usize) -> Self {
        Self::build(workers, None)
    }

    /// Starts `workers >= 1` stealing workers that donate idle time to
    /// `pool`: whenever no task is runnable (own deque, injector and
    /// siblings all empty), a worker executes pending fork-join jobs
    /// from `pool` instead of parking.
    pub fn with_donation(workers: usize, pool: Arc<rayon::ThreadPool>) -> Self {
        Self::build(workers, Some(pool))
    }

    fn build(workers: usize, donate: Option<Arc<rayon::ThreadPool>>) -> Self {
        assert!(workers >= 1);
        let locals: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let pool = Arc::new(Pool {
            injector: Injector::new(),
            stealers,
            locals: locals.into_iter().map(Mutex::new).collect(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            task_panics: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            parked: Mutex::new(0),
            wake: Condvar::new(),
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            donate,
        });
        // notify_one per queued job (all parked stealers react to a
        // wake identically); the 1ms timed park below is the backstop
        // for the push-vs-park race, as for the pool's own submits
        let waker = pool.donate.as_ref().map(|fj| {
            crate::executor::register_donor_waker(fj, &pool, |p: &Pool| {
                p.wake.notify_one();
            })
        });
        let handles = (0..workers)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("znn-stealer-{i}"))
                    .spawn(move || worker_loop(i, pool))
                    .expect("failed to spawn stealing worker")
            })
            .collect();
        StealingExecutor {
            pool,
            handles,
            _waker: waker,
        }
    }
}

fn find_task(index: usize, pool: &Pool) -> Option<Task> {
    // own deque first (LIFO: depth-first, cache-friendly)
    if let Some(t) = pool.locals[index].lock().pop() {
        return Some(t);
    }
    // then the shared injector, then steal from siblings
    loop {
        let steal = pool.injector.steal();
        if steal.is_retry() {
            continue;
        }
        if let Some(t) = steal.success() {
            return Some(t);
        }
        break;
    }
    for (j, s) in pool.stealers.iter().enumerate() {
        if j == index {
            continue;
        }
        loop {
            let steal = s.steal();
            if steal.is_retry() {
                continue;
            }
            if let Some(t) = steal.success() {
                return Some(t);
            }
            break;
        }
    }
    None
}

fn worker_loop(index: usize, pool: Arc<Pool>) {
    LOCAL.with(|l| *l.borrow_mut() = Some((index, Arc::clone(&pool))));
    loop {
        match find_task(index, &pool) {
            Some(task) => {
                // same containment as the queue executor: a panicking
                // task must not kill the worker, and `executed` must
                // advance regardless or `wait_quiescent` (which spins
                // on submitted == executed) would hang forever.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                    pool.task_panics.fetch_add(1, Ordering::Relaxed);
                }
                pool.executed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                if pool.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // no runnable task anywhere: donate to fork-join work
                if let Some(fj) = &pool.donate {
                    if fj.run_pending_job() {
                        continue;
                    }
                }
                let mut parked = pool.parked.lock();
                *parked += 1;
                pool.wake
                    .wait_for(&mut parked, std::time::Duration::from_millis(1));
                *parked -= 1;
            }
        }
    }
    LOCAL.with(|l| *l.borrow_mut() = None);
}

impl Scheduler for StealingExecutor {
    fn submit(&self, _priority: u64, task: Task) {
        // count the submission BEFORE the task becomes runnable: a
        // worker may pop and finish it instantly, and `executed` must
        // never be observed above `submitted` (stats() relies on the
        // subtraction being conservative for the queue-depth signal)
        self.pool.submitted.fetch_add(1, Ordering::Release);
        // a worker of *this* pool pushes to its own deque (the classic
        // work-first rule); everyone else goes through the injector
        let mut task = Some(task);
        LOCAL.with(|l| {
            if let Some((i, pool)) = l.borrow().as_ref() {
                if pool.id == self.pool.id {
                    pool.locals[*i]
                        .lock()
                        .push(task.take().expect("task still present"));
                }
            }
        });
        if let Some(t) = task {
            self.pool.injector.push(t);
        }
        self.pool.wake.notify_all();
    }

    fn queue_depth(&self) -> u64 {
        self.queue_depth()
    }

    fn stats(&self) -> SchedStats {
        // no central queue to measure: depth is submitted-but-unfinished
        // (submit counts before the push and the load order — executed
        // before submitted — keeps the subtraction conservative under
        // concurrent submits)
        let executed = self.pool.executed.load(Ordering::Acquire);
        let submitted = self.pool.submitted.load(Ordering::Acquire);
        SchedStats {
            executed,
            peak_queue_len: 0,
            peak_distinct_priorities: 0,
            queue_depth: submitted.saturating_sub(executed),
            task_panics: self.pool.task_panics.load(Ordering::Relaxed),
            detached_panics: self
                .pool
                .donate
                .as_ref()
                .map(|p| p.detached_panics())
                .unwrap_or(0),
        }
    }

    /// Blocks until every submitted task has executed.
    fn wait_quiescent(&self) {
        loop {
            let submitted = self.pool.submitted.load(Ordering::Acquire);
            let executed = self.pool.executed.load(Ordering::Acquire);
            if submitted == executed {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for StealingExecutor {
    fn drop(&mut self) {
        self.pool.shutdown.store(true, Ordering::Release);
        self.pool.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Latch;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_every_task_once() {
        let ex = StealingExecutor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(200));
        for _ in 0..200 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                latch.count_down();
            }));
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        // the latch opens inside each task, before the worker bumps
        // `executed` — quiesce before reading the counter
        ex.wait_quiescent();
        assert_eq!(ex.stats().executed, 200);
    }

    #[test]
    fn workers_submit_to_their_local_deque() {
        let ex = Arc::new(StealingExecutor::new(2));
        let latch = Arc::new(Latch::new(64));
        let ex2 = Arc::clone(&ex);
        let latch2 = Arc::clone(&latch);
        // recursive fan-out from inside workers exercises local pushes
        fn fan(ex: Arc<StealingExecutor>, latch: Arc<Latch>, depth: usize) {
            latch.count_down();
            if depth == 0 {
                return;
            }
            for _ in 0..1 {
                let e = Arc::clone(&ex);
                let l = Arc::clone(&latch);
                let e2 = Arc::clone(&ex);
                e2.submit(0, Box::new(move || fan(e, l, depth - 1)));
            }
        }
        // 64 = sum over a binary tree of depth 5 (2^6 - 1 = 63) + root... use a chain:
        // chain of 64 tasks, each spawning the next
        ex.submit(0, Box::new(move || fan(ex2, latch2, 63)));
        latch.wait();
    }

    #[test]
    fn panicking_task_is_counted_and_workers_survive() {
        let ex = StealingExecutor::new(2);
        let done = Arc::new(Latch::new(10));
        for i in 0..10 {
            let done = Arc::clone(&done);
            if i % 3 == 0 {
                ex.submit(0, Box::new(move || {
                    done.count_down();
                    panic!("injected stealing-task panic");
                }));
            } else {
                ex.submit(0, Box::new(move || done.count_down()));
            }
        }
        done.wait();
        ex.wait_quiescent();
        let stats = ex.stats();
        assert_eq!(stats.executed, 10);
        assert_eq!(stats.task_panics, 4);
        assert_eq!(stats.queue_depth, 0, "panicked tasks still count as done");
    }

    #[test]
    fn drop_joins_cleanly() {
        let ex = StealingExecutor::new(3);
        let latch = Arc::new(Latch::new(10));
        for _ in 0..10 {
            let latch = Arc::clone(&latch);
            ex.submit(0, Box::new(move || latch.count_down()));
        }
        latch.wait();
        drop(ex);
    }

    #[test]
    fn two_pools_do_not_cross_contaminate() {
        let a = Arc::new(StealingExecutor::new(1));
        let b = Arc::new(StealingExecutor::new(1));
        let latch = Arc::new(Latch::new(2));
        // submit to b from inside a worker of a: must go to b's injector,
        // not a's local deque
        let b2 = Arc::clone(&b);
        let l2 = Arc::clone(&latch);
        a.submit(0, Box::new(move || {
            let l3 = Arc::clone(&l2);
            b2.submit(0, Box::new(move || l3.count_down()));
            l2.count_down();
        }));
        latch.wait();
        // quiesce both pools: the latch opens inside the tasks,
        // before the workers bump their `executed` counters
        a.wait_quiescent();
        b.wait_quiescent();
        assert!(a.stats().executed + b.stats().executed >= 2);
    }
}
