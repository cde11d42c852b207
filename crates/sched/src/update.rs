//! The FORCE state machine for update tasks (paper Algorithms 1–3).
//!
//! Update tasks run at the lowest priority; they only execute early when
//! a forward task of the next round *needs* the updated parameters. The
//! FORCE protocol guarantees **no thread ever waits** for an update:
//!
//! 1. **Completed** (or never scheduled) — the forcing thread just runs
//!    its forward subtask.
//! 2. **Queued** — the forcing thread claims the update (its queue entry
//!    becomes a no-op), executes it inline, then runs the subtask — the
//!    freshly written parameters are still cache-hot for the forward
//!    computation.
//! 3. **Executing** — the subtask is attached to the running update;
//!    whichever thread finishes the update executes the subtask next.
//!    The forcing thread returns and picks up other work. A second
//!    FORCE during the same execution chains its subtask after the
//!    first, so attached subtasks run in FORCE order and none is lost.
//!
//! Readers that must observe the finished update *without* running a
//! subtask — parameter snapshots, checkpoints — FORCE a no-op and then
//! block in [`UpdateHandle::wait_idle`], which sleeps on a condition
//! variable signalled when the update finishes.
//!
//! Claiming instead of physically deleting the queue entry keeps the
//! queue free of random-access removal; a claimed entry is skipped in
//! O(1) when popped.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Work payloads.
type Work = Box<dyn FnOnce() + Send + 'static>;

enum State {
    /// No pending update (first round, or the previous update finished
    /// and the handle was not re-armed). Equivalent to Completed for
    /// forcing purposes.
    Idle,
    /// Scheduled, waiting in the queue.
    Queued(Work),
    /// Some thread is running the update; forced subtasks are parked
    /// here, chained in FORCE order.
    Executing { attached: Option<Work> },
}

/// Counters for the three FORCE outcomes, exposed for tests and the
/// scheduler-behaviour benchmarks.
#[derive(Debug, Default)]
pub struct ForceStats {
    /// FORCE found the update already done (case 1).
    pub already_done: AtomicU64,
    /// FORCE claimed a queued update and ran it inline (case 2).
    pub ran_inline: AtomicU64,
    /// FORCE attached the subtask to a running update (case 3).
    pub delegated: AtomicU64,
}

/// A per-edge handle owning the lifecycle of that edge's update task.
#[derive(Clone)]
pub struct UpdateHandle {
    inner: Arc<Inner>,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled whenever the state returns to `Idle`.
    idle: Condvar,
    stats: ForceStats,
}

impl UpdateHandle {
    /// A handle with no pending update.
    pub fn new() -> Self {
        UpdateHandle {
            inner: Arc::new(Inner {
                state: Mutex::new(State::Idle),
                idle: Condvar::new(),
                stats: ForceStats::default(),
            }),
        }
    }

    /// Arms the handle with this round's update work (called by the
    /// edge's backward task, Algorithm 2 line 4). The caller must then
    /// enqueue [`UpdateHandle::queue_entry`] at [`crate::UPDATE_PRIORITY`].
    ///
    /// Panics if an update is already pending — the task dependency
    /// graph guarantees the previous round's update completed (a forward
    /// task forces it) before the next backward task runs.
    pub fn arm(&self, work: Work) {
        let mut st = self.inner.state.lock();
        match *st {
            State::Idle => *st = State::Queued(work),
            _ => panic!("armed an update that is still pending"),
        }
    }

    /// The closure to enqueue on the scheduler: runs the update if it is
    /// still queued, then any attached subtask; a claimed (forced) entry
    /// is a no-op.
    pub fn queue_entry(&self) -> Work {
        let this = self.clone();
        Box::new(move || this.run_queued())
    }

    fn run_queued(&self) {
        let work = {
            let mut st = self.inner.state.lock();
            match std::mem::replace(&mut *st, State::Idle) {
                State::Queued(work) => {
                    *st = State::Executing { attached: None };
                    work
                }
                other => {
                    // stale entry: the update was forced (Idle) or is
                    // being run by the forcing thread (Executing)
                    *st = other;
                    return;
                }
            }
        };
        work();
        self.finish();
    }

    /// Algorithm 1's FORCE: ensures the pending update (if any) runs
    /// before `subtask`. Either executes both on the calling thread or
    /// delegates `subtask` to the thread running the update.
    pub fn force(&self, subtask: Work) {
        let claimed = {
            let mut st = self.inner.state.lock();
            match std::mem::replace(&mut *st, State::Idle) {
                State::Idle => {
                    // case 1: completed (or never scheduled)
                    self.inner.stats.already_done.fetch_add(1, Ordering::Relaxed);
                    None
                }
                State::Queued(work) => {
                    // case 2: claim it; the queue entry becomes stale
                    *st = State::Executing { attached: None };
                    self.inner.stats.ran_inline.fetch_add(1, Ordering::Relaxed);
                    Some(work)
                }
                State::Executing { attached } => {
                    // case 3: park the subtask with the running update,
                    // after any subtask an earlier FORCE parked there
                    let attached: Work = match attached {
                        Some(prev) => Box::new(move || {
                            prev();
                            subtask();
                        }),
                        None => subtask,
                    };
                    *st = State::Executing {
                        attached: Some(attached),
                    };
                    self.inner.stats.delegated.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        };
        if let Some(work) = claimed {
            work();
            self.finish();
        }
        subtask();
    }

    /// Completes an execution: flips back to Idle, wakes every
    /// [`UpdateHandle::wait_idle`] caller, and runs any subtask that was
    /// attached while the update ran (Algorithm 3 lines 3–6).
    fn finish(&self) {
        let attached = {
            let mut st = self.inner.state.lock();
            match std::mem::replace(&mut *st, State::Idle) {
                State::Executing { attached } => attached,
                _ => unreachable!("finish() without a running update"),
            }
        };
        self.inner.idle.notify_all();
        if let Some(sub) = attached {
            sub();
        }
    }

    /// True when no update is pending or running.
    pub fn is_idle(&self) -> bool {
        matches!(*self.inner.state.lock(), State::Idle)
    }

    /// Blocks until no update is running: returns at once when the
    /// handle is `Idle`, else sleeps until the thread executing the
    /// update finishes it. A `Queued` update is not run here — FORCE
    /// it first. The update's writes happen before the handle turns
    /// `Idle`, so they are visible once this returns.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock();
        while !matches!(*st, State::Idle) {
            self.inner.idle.wait(&mut st);
        }
    }

    /// FORCE outcome counters.
    pub fn stats(&self) -> &ForceStats {
        &self.inner.stats
    }
}

impl Default for UpdateHandle {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, Latch, QueuePolicy, Scheduler, UPDATE_PRIORITY};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn force_on_idle_runs_subtask_immediately() {
        let h = UpdateHandle::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        h.force(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(h.stats().already_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn force_on_queued_runs_update_then_subtask_inline() {
        let h = UpdateHandle::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        h.arm(Box::new(move || l1.lock().push("update")));
        let l2 = Arc::clone(&log);
        h.force(Box::new(move || l2.lock().push("forward")));
        assert_eq!(*log.lock(), vec!["update", "forward"]);
        assert_eq!(h.stats().ran_inline.load(Ordering::SeqCst), 1);
        assert!(h.is_idle());
    }

    #[test]
    fn stale_queue_entry_is_noop_after_force() {
        let h = UpdateHandle::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        h.arm(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        let entry = h.queue_entry();
        h.force(Box::new(|| {}));
        entry(); // popped later by a worker: must not rerun the update
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn queue_entry_runs_update_when_not_forced() {
        let h = UpdateHandle::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        h.arm(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        h.queue_entry()();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(h.is_idle());
        // forcing afterwards is case 1
        h.force(Box::new(|| {}));
        assert_eq!(h.stats().already_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn force_during_execution_delegates_subtask() {
        let h = UpdateHandle::new();
        let entered = Arc::new(Latch::new(1));
        let release = Arc::new(Latch::new(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        {
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            let log = Arc::clone(&log);
            h.arm(Box::new(move || {
                entered.count_down();
                release.wait();
                log.lock().push("update");
            }));
        }
        // run the queued update on another thread and pause inside it
        let runner = {
            let h = h.clone();
            std::thread::spawn(move || h.queue_entry()())
        };
        entered.wait();
        // force while Executing: subtask must be delegated, not run here
        {
            let log = Arc::clone(&log);
            h.force(Box::new(move || log.lock().push("forward")));
        }
        assert!(log.lock().is_empty(), "subtask ran before update finished");
        assert_eq!(h.stats().delegated.load(Ordering::SeqCst), 1);
        release.count_down();
        runner.join().unwrap();
        assert_eq!(*log.lock(), vec!["update", "forward"]);
    }

    #[test]
    fn two_forces_during_one_execution_chain_in_order() {
        let h = UpdateHandle::new();
        let entered = Arc::new(Latch::new(1));
        let release = Arc::new(Latch::new(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        {
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            let log = Arc::clone(&log);
            h.arm(Box::new(move || {
                entered.count_down();
                release.wait();
                log.lock().push("update");
            }));
        }
        let runner = {
            let h = h.clone();
            std::thread::spawn(move || h.queue_entry()())
        };
        entered.wait();
        for name in ["first", "second"] {
            let log = Arc::clone(&log);
            h.force(Box::new(move || log.lock().push(name)));
        }
        assert!(log.lock().is_empty(), "a subtask ran before the update finished");
        assert_eq!(h.stats().delegated.load(Ordering::SeqCst), 2);
        release.count_down();
        runner.join().unwrap();
        assert_eq!(*log.lock(), vec!["update", "first", "second"]);
        assert!(h.is_idle());
    }

    #[test]
    fn wait_idle_blocks_until_a_running_update_finishes() {
        let h = UpdateHandle::new();
        let entered = Arc::new(Latch::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let entered = Arc::clone(&entered);
            let done = Arc::clone(&done);
            h.arm(Box::new(move || {
                entered.count_down();
                // widens the window in which wait_idle must block; the
                // assertion below holds under every interleaving
                std::thread::sleep(std::time::Duration::from_millis(50));
                done.store(1, Ordering::SeqCst);
            }));
        }
        let runner = {
            let h = h.clone();
            std::thread::spawn(move || h.queue_entry()())
        };
        entered.wait();
        h.force(Box::new(|| {}));
        h.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 1, "wait_idle returned mid-update");
        runner.join().unwrap();
        // an idle handle returns at once
        h.wait_idle();
    }

    #[test]
    fn works_end_to_end_on_an_executor() {
        // one edge trained for several rounds: backward arms the update,
        // enqueues it at lowest priority; the next round's forward forces
        // it; ordering update-before-forward must hold every round.
        let ex = Executor::new(4, QueuePolicy::Priority);
        let h = UpdateHandle::new();
        let updates = Arc::new(AtomicUsize::new(0));
        let forwards = Arc::new(AtomicUsize::new(0));
        for _round in 0..100 {
            let done = Arc::new(Latch::new(1));
            {
                let u = Arc::clone(&updates);
                h.arm(Box::new(move || {
                    u.fetch_add(1, Ordering::SeqCst);
                }));
                ex.submit(UPDATE_PRIORITY, h.queue_entry());
            }
            {
                let h2 = h.clone();
                let f = Arc::clone(&forwards);
                let u = Arc::clone(&updates);
                let done = Arc::clone(&done);
                ex.submit(
                    0,
                    Box::new(move || {
                        h2.force(Box::new(move || {
                            // the update for this round must be complete
                            let fs = f.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(u.load(Ordering::SeqCst) >= fs);
                            done.count_down();
                        }));
                    }),
                );
            }
            done.wait();
        }
        ex.wait_quiescent();
        assert_eq!(updates.load(Ordering::SeqCst), 100);
        assert_eq!(forwards.load(Ordering::SeqCst), 100);
    }
}
