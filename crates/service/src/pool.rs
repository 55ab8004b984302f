//! The persistent, *supervised* worker pool behind the scheduler/shard
//! layer.
//!
//! Workers live for the service's lifetime and pull boxed jobs from a
//! shared [`MetricQueue`] — the same channel seam the metric stack
//! uses (Fig. 10's buffered out-of-band source), reused here as the
//! job conduit. [`WorkerPool::try_scatter`] fans a batch of closures
//! out and gathers their results *in submission order*, which is what
//! keeps sharded fleet runs bitwise-identical to serial ones.
//!
//! Fault tolerance: every job runs under `catch_unwind`, so a
//! panicking task can neither kill a worker thread nor hang a scatter;
//! [`WorkerPool::try_scatter`] surfaces per-task panics as typed
//! [`ShardError`]s, [`WorkerPool::supervise`] respawns workers that
//! died anyway (the chaos harness kills them via
//! [`WorkerPool::condemn`]), and [`WorkerPool::stats`] reports the
//! panics-caught / workers-respawned counters that ride into reply
//! telemetry.

use fs2_core::resolve_threads;
use fs2_metrics::MetricQueue;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A scatter task that panicked instead of returning: the typed shape
/// the service layer turns into a `shard-panic` failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Task index within the scatter (== shard index in the service).
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ShardError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Lifetime supervision counters of one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Job/task panics contained by `catch_unwind`.
    pub panics_caught: u64,
    /// Dead workers replaced by [`WorkerPool::supervise`].
    pub workers_respawned: u64,
    /// Worker threads currently alive (== configured size unless a
    /// worker died since the last `supervise`).
    pub live_workers: usize,
}

/// State shared between the pool handle and its worker threads.
#[derive(Debug, Default)]
struct PoolShared {
    panics_caught: AtomicU64,
    workers_respawned: AtomicU64,
    /// Pending death sentences: a worker that finishes a job while
    /// this is positive decrements it and exits. The chaos harness
    /// uses this to simulate worker crashes that `catch_unwind`
    /// cannot contain (e.g. stack-overflow aborts in the real world).
    condemned: AtomicU64,
}

impl PoolShared {
    /// Claims one pending death sentence, if any.
    fn take_condemnation(&self) -> bool {
        self.condemned
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Fixed-size pool of long-lived, supervised worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    jobs: Arc<MetricQueue<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shared: Arc<PoolShared>,
    size: usize,
}

fn spawn_worker(jobs: Arc<MetricQueue<Job>>, shared: Arc<PoolShared>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // pop_wait returns None once the queue is closed and drained —
        // the pool's shutdown signal.
        while let Some(job) = jobs.pop_wait() {
            // A panicking fire-and-forget job must not take the worker
            // down with it; scatter tasks carry their own catch so the
            // payload can travel to the caller, and this outer catch
            // covers everything else.
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.panics_caught.fetch_add(1, Ordering::Relaxed);
            }
            if shared.take_condemnation() {
                return;
            }
        }
    })
}

impl WorkerPool {
    /// Spawns `workers` threads (0 = one per host core, see
    /// [`resolve_threads`]).
    pub fn new(workers: usize) -> WorkerPool {
        let n = resolve_threads(workers);
        let jobs: Arc<MetricQueue<Job>> = Arc::new(MetricQueue::unbounded());
        let shared = Arc::new(PoolShared::default());
        let handles = (0..n)
            .map(|_| spawn_worker(Arc::clone(&jobs), Arc::clone(&shared)))
            .collect();
        WorkerPool {
            jobs,
            workers: Mutex::new(handles),
            shared,
            size: n,
        }
    }

    /// The configured worker count (live count may briefly dip below
    /// between a worker death and the next [`WorkerPool::supervise`]).
    pub fn workers(&self) -> usize {
        self.size
    }

    /// Sentences `n` workers to exit after their next completed job.
    /// The pool keeps making progress regardless (scatter callers help
    /// drain the queue); [`WorkerPool::supervise`] restores capacity.
    pub fn condemn(&self, n: u64) {
        self.shared.condemned.fetch_add(n, Ordering::SeqCst);
    }

    /// Reaps finished worker threads and spawns replacements up to the
    /// configured size. Returns how many workers were respawned.
    pub fn supervise(&self) -> usize {
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input: the list only holds join handles
        let mut workers = self.workers.lock().expect("worker list poisoned");
        let mut respawned = 0;
        let mut live = Vec::with_capacity(self.size);
        for handle in workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        while live.len() < self.size {
            live.push(spawn_worker(
                Arc::clone(&self.jobs),
                Arc::clone(&self.shared),
            ));
            respawned += 1;
        }
        *workers = live;
        if respawned > 0 {
            self.shared
                .workers_respawned
                .fetch_add(respawned as u64, Ordering::Relaxed);
        }
        respawned
    }

    /// Supervision counters plus the current live-worker census.
    pub fn stats(&self) -> PoolStats {
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input
        let workers = self.workers.lock().expect("worker list poisoned");
        PoolStats {
            panics_caught: self.shared.panics_caught.load(Ordering::Relaxed),
            workers_respawned: self.shared.workers_respawned.load(Ordering::Relaxed),
            live_workers: workers.iter().filter(|h| !h.is_finished()).count(),
        }
    }

    /// Enqueues one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .try_push(Box::new(job))
            // fs2-lint: allow(no-panic-service) -- the job queue closes only in Drop, which requires exclusive ownership; no live caller can observe it closed
            .unwrap_or_else(|_| panic!("worker pool is shut down"));
    }

    /// Runs every task on the pool and returns their outcomes in task
    /// order. The calling thread also drains jobs while it waits, so
    /// a scatter submitted *from* a pool worker (nested requests)
    /// cannot deadlock the pool.
    ///
    /// A panicking task can never hang the scatter: every task runs
    /// under `catch_unwind`, so its slot is always filled, and a panic
    /// becomes a typed [`ShardError`] in its slot instead of
    /// re-raising — the service layer's route to a failed reply
    /// instead of a crashed connection thread.
    pub fn try_scatter<R, F>(&self, tasks: Vec<F>) -> Vec<Result<R, ShardError>>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = tasks.len();
        let results: Arc<MetricQueue<(usize, std::thread::Result<R>)>> =
            Arc::new(MetricQueue::unbounded());
        for (i, task) in tasks.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let shared = Arc::clone(&self.shared);
            self.execute(move || {
                // The catch is what keeps a panicking task from
                // leaving its result slot forever empty (the caller
                // would block on pop_wait for a push that never
                // comes); the panic payload travels as the result.
                let r = catch_unwind(AssertUnwindSafe(task));
                if r.is_err() {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                let _ = results.try_push((i, r));
            });
        }
        let mut out: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        let mut filled = 0;
        while filled < n {
            if let Some((i, r)) = results.try_pop() {
                out[i] = Some(r);
                filled += 1;
            } else if let Some(job) = self.jobs.try_pop() {
                // Help instead of blocking: run someone's job (possibly
                // one of ours) while our results trickle in. The catch
                // keeps a stranger's panicking job from unwinding into
                // this scatter.
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    self.shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
            } else if let Some((i, r)) = results.pop_wait() {
                out[i] = Some(r);
                filled += 1;
            } else {
                // fs2-lint: allow(no-panic-service) -- the result queue is owned by this scatter and never closed; pop_wait returns None only after close
                unreachable!("result queue closed with tasks outstanding");
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(index, slot)| {
                // fs2-lint: allow(no-panic-service) -- the loop above exits only once all n slots are filled
                slot.expect("all slots filled")
                    .map_err(|payload| ShardError {
                        index,
                        message: panic_message(payload.as_ref()),
                    })
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.close();
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Unwraps a scatter in which no task panicked.
    fn all_ok<R>(outcomes: Vec<Result<R, ShardError>>) -> Vec<R> {
        outcomes
            .into_iter()
            .map(|o| o.expect("no task panicked"))
            .collect()
    }

    #[test]
    fn scatter_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * i).collect();
        assert_eq!(
            all_ok(pool.try_scatter(tasks)),
            (0..64).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn execute_runs_everything_before_shutdown() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop closes the queue and joins; queued jobs still run.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn task_panic_neither_hangs_the_scatter_nor_kills_a_worker() {
        // Regression: a panicking task used to kill its worker thread
        // before the result push, so the scatter blocked forever on a
        // result that would never arrive. The panic must now settle as
        // a typed error in its own slot.
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("task {i} exploded");
                    }
                    i * 2
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcomes = pool.try_scatter(tasks);
        let err = outcomes[3].as_ref().expect_err("task 3 must fail");
        assert_eq!(err.index, 3);
        assert!(err.message.contains("task 3 exploded"), "{err}");
        // The pool survives: a later scatter still completes in order.
        let tasks: Vec<_> = (0..16).map(|i| move || i + 1).collect();
        assert_eq!(
            all_ok(pool.try_scatter(tasks)),
            (1..=16).collect::<Vec<_>>(),
            "pool must keep serving after a task panic"
        );
        assert_eq!(pool.stats().panics_caught, 1);
        assert_eq!(pool.stats().live_workers, 2);
    }

    #[test]
    fn try_scatter_types_the_panics_and_keeps_the_rest() {
        let pool = WorkerPool::new(3);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    if i % 3 == 1 {
                        panic!("boom {i}");
                    }
                    i * 10
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let outcomes = pool.try_scatter(tasks);
        assert_eq!(outcomes.len(), 6);
        for (i, o) in outcomes.iter().enumerate() {
            if i % 3 == 1 {
                let e = o.as_ref().unwrap_err();
                assert_eq!(e.index, i);
                assert!(e.message.contains(&format!("boom {i}")), "{e}");
                assert!(e
                    .to_string()
                    .starts_with(&format!("shard task {i} panicked")));
            } else {
                assert_eq!(*o.as_ref().unwrap(), (i as u32) * 10);
            }
        }
        assert_eq!(pool.stats().panics_caught, 2);
    }

    #[test]
    fn execute_panics_are_contained_and_counted() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                if i % 2 == 0 {
                    panic!("fire-and-forget {i}");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // A scatter behind the panicking jobs still completes, which
        // proves both workers survived.
        let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
        assert_eq!(all_ok(pool.try_scatter(tasks)), vec![0, 1, 2, 3]);
        // The final fire-and-forget job can still be mid-flight on a
        // worker when the scatter returns; wait for it to land.
        while done.load(Ordering::Relaxed) < 5 || pool.stats().panics_caught < 5 {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::Relaxed), 5);
        assert_eq!(pool.stats().panics_caught, 5);
        assert_eq!(pool.stats().live_workers, 2);
    }

    #[test]
    fn condemned_workers_die_and_supervise_respawns_them() {
        let pool = WorkerPool::new(3);
        pool.condemn(2);
        // Pin one job on every worker simultaneously (each parks until
        // all three have started), so each worker — not the scatter
        // help loop — finishes a job and observes its condemnation.
        let gate = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                gate.fetch_add(1, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) < 3 {
                    std::thread::yield_now();
                }
            });
        }
        // Give the condemned threads a moment to actually exit.
        for _ in 0..200 {
            if pool.stats().live_workers == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pool.stats().live_workers, 1, "condemnations not served");
        let respawned = pool.supervise();
        assert_eq!(respawned, 2);
        let stats = pool.stats();
        assert_eq!(stats.live_workers, 3);
        assert_eq!(stats.workers_respawned, 2);
        // The refreshed pool still serves ordered scatters.
        let tasks: Vec<_> = (0..12).map(|i| move || i * 3).collect();
        assert_eq!(
            all_ok(pool.try_scatter(tasks)),
            (0..12).map(|i| i * 3).collect::<Vec<_>>()
        );
        // Nothing left to reap: supervise is idempotent.
        assert_eq!(pool.supervise(), 0);
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // More outer tasks than workers, each scattering again: the
        // help-while-waiting loop must keep the pool moving.
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner: Vec<_> = (0..4).map(|j| move || i * 10 + j).collect();
                    all_ok(pool.try_scatter(inner)).into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = all_ok(pool.try_scatter(outer));
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, i * 40 + 6);
        }
    }
}
