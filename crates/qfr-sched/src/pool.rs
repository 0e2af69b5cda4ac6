//! Shared persistent worker pool.
//!
//! The master/leader/worker runtime ([`crate::runtime`]) spins up its
//! hierarchy per run and tears it down at the end — the right shape for
//! one batch job, the wrong one for a long-running spectrum service where
//! many concurrent requests each contribute small bursts of fragment work.
//! [`WorkerPool`] is the service-facing complement: a fixed set of OS
//! threads draining one shared FIFO of boxed jobs, so every request's
//! fragments compete for the *same* cores instead of oversubscribing the
//! machine with per-request pools.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signals workers that a job arrived or shutdown began.
    work_cv: Condvar,
    /// Jobs submitted over the pool's lifetime (monotone).
    submitted: AtomicUsize,
    /// Jobs finished, returned or panicked (monotone).
    executed: AtomicUsize,
}

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A fixed-size pool of OS worker threads draining a shared job queue.
///
/// Jobs are plain `FnOnce` closures and run in FIFO submission order
/// (start order; completion order depends on job durations). A panicking
/// job ends there, not its worker: the panic hook still prints it, and the
/// job's captured state (a result channel's sender, say) is dropped, so
/// whoever waits on that job sees it gone. Jobs must
/// not block on *other pool jobs* — the pool has no work-stealing or
/// re-entrancy, so a job waiting for a later job deadlocks when every
/// worker does it at once. The spectrum service keeps coordinators on
/// their own threads and submits only leaf compute work here for exactly
/// this reason.
///
/// Dropping the pool shuts it down: already-queued jobs still run, then
/// the workers exit and are joined.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("submitted", &self.submitted())
            .field("executed", &self.executed())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            work_cv: Condvar::new(),
            submitted: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qfr-pool-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: handles }
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut q = shared.queue.lock().expect("pool queue poisoned");
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = shared.work_cv.wait(q).expect("pool queue poisoned");
                }
            };
            let _ = catch_unwind(AssertUnwindSafe(job));
            shared.executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Enqueues a job; one idle worker wakes to run it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        assert!(!q.shutdown, "submit after shutdown");
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.work_cv.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted over the pool's lifetime.
    pub fn submitted(&self) -> usize {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Jobs finished so far, returned or panicked.
    pub fn executed(&self) -> usize {
        self.shared.executed.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_submitted_jobs() {
        let pool = WorkerPool::new(4);
        let sum = Arc::new(AtomicU64::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            let done = Arc::clone(&done);
            pool.submit(move || {
                sum.fetch_add(i, Ordering::Relaxed);
                let (lock, cv) = &*done;
                *lock.lock().unwrap() += 1;
                cv.notify_all();
            });
        }
        let (lock, cv) = &*done;
        let mut n = lock.lock().unwrap();
        while *n < 100 {
            n = cv.wait(n).unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        assert_eq!(pool.submitted(), 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let sum = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let sum = Arc::clone(&sum);
                pool.submit(move || {
                    sum.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins the workers after the queue drains.
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job panics on purpose"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(move || tx.send(7).unwrap());
        let got = rx.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(got, Ok(7), "the one worker must run the job after the panicking one");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
