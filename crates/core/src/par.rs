//! Deterministic work-sharing over scoped threads.
//!
//! The experiment pipeline fans independent work items (task-set
//! simulations, buckets, replications) across a fixed worker pool built
//! on [`std::thread::scope`] — no external dependencies. Results are
//! merged back **by item index** into pre-sized slots, so the output of
//! [`map_indexed`] is bit-identical to the serial loop regardless of the
//! worker count or OS scheduling.

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Resolves a `--jobs` knob: `0` means "use all available parallelism",
/// anything else is taken literally (minimum 1).
#[must_use]
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item of `items` using up to `jobs` worker threads
/// (`0` = available parallelism) and returns the results **in item
/// order**. Work is distributed dynamically (an atomic cursor), but each
/// result lands in its item's slot, so the output is identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` — the
/// serial fallback actually used when `jobs` resolves to 1 or there is
/// at most one item.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is propagated).
#[expect(
    clippy::expect_used,
    reason = "the worker pool claims each index exactly once, so every slot is filled"
)]
pub fn map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_jobs(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut harvested: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // mkss-lint: ordering — index claim only: each i is processed by exactly one worker, and results flow back through scope join, which synchronizes
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in harvested.drain(..).flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// A unit of work submitted to a [`WorkerPool`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a [`WorkerPool::try_submit`] call was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitErrorKind {
    /// The bounded queue is at capacity — backpressure: the caller should
    /// shed the job (and count the rejection) rather than block.
    QueueFull,
    /// The pool is shutting down and accepts no new work.
    Closed,
}

/// Error returned by [`WorkerPool::try_submit`], carrying the refused job
/// back to the caller so nothing is silently dropped.
#[non_exhaustive]
pub struct SubmitError {
    kind: SubmitErrorKind,
    job: Job,
}

impl SubmitError {
    /// Why the job was refused.
    pub fn kind(&self) -> SubmitErrorKind {
        self.kind
    }

    /// Recovers the refused job (e.g. to run it inline or retry later).
    pub fn into_job(self) -> Job {
        self.job
    }
}

impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmitError")
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SubmitErrorKind::QueueFull => write!(f, "worker pool queue is full"),
            SubmitErrorKind::Closed => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    capacity: usize,
    busy: AtomicUsize,
}

impl PoolShared {
    /// Locks the state, recovering from a poisoned mutex (a panicking job
    /// must not wedge the whole pool).
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A persistent worker pool with a **bounded** job queue.
///
/// Where [`map_indexed`] fans a fixed batch over scoped threads and joins
/// immediately, `WorkerPool` serves an *open-ended stream* of jobs — the
/// shape a long-running daemon needs. The queue bound is the backpressure
/// mechanism: [`WorkerPool::try_submit`] never blocks, and a refused job
/// is handed back via [`SubmitError::into_job`] so the caller can shed it
/// explicitly (`mkss-serve` answers the client with an `overloaded`
/// error and bumps a rejection counter).
///
/// Shutdown is graceful by construction: [`WorkerPool::shutdown`] (and
/// `Drop`) closes the queue, lets the workers **drain every job already
/// accepted**, and joins each worker thread — no work is lost and no
/// thread is leaked.
///
/// ```
/// use mkss_core::par::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(2, 16);
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..10 {
///     let hits = Arc::clone(&hits);
///     pool.try_submit(Box::new(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     }))
///     .expect("queue has room");
/// }
/// pool.shutdown(); // drains the queue, joins the workers
/// assert_eq!(hits.load(Ordering::Relaxed), 10);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (`0` = available parallelism)
    /// with room for `queue_capacity` pending jobs (minimum 1).
    pub fn new(workers: usize, queue_capacity: usize) -> WorkerPool {
        let worker_count = effective_jobs(workers);
        let capacity = queue_capacity.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::with_capacity(capacity),
                open: true,
            }),
            work_ready: Condvar::new(),
            capacity,
            busy: AtomicUsize::new(0),
        });
        let handles = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (accepted but not yet picked up by a
    /// worker). A scheduling-dependent instantaneous reading — use it for
    /// telemetry, never for results.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Workers currently running a job. Like [`WorkerPool::queue_depth`]
    /// this is a scheduling-dependent instantaneous reading — it feeds
    /// utilization telemetry (`mkss-top`'s pool gauge), never results.
    pub fn busy_count(&self) -> usize {
        // mkss-lint: ordering — telemetry gauge; any momentarily-stale reading is equally valid
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Enqueues `job` without blocking.
    ///
    /// Returns the queue depth *after* the enqueue (so callers can feed a
    /// depth histogram with the same lock acquisition).
    ///
    /// # Errors
    ///
    /// Returns the job back inside [`SubmitError`] when the queue is at
    /// capacity ([`SubmitErrorKind::QueueFull`]) or the pool is shutting
    /// down ([`SubmitErrorKind::Closed`]).
    pub fn try_submit(&self, job: Job) -> Result<usize, SubmitError> {
        let mut state = self.shared.lock();
        if !state.open {
            return Err(SubmitError {
                kind: SubmitErrorKind::Closed,
                job,
            });
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(SubmitError {
                kind: SubmitErrorKind::QueueFull,
                job,
            });
        }
        state.queue.push_back(job);
        let depth = state.queue.len();
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(depth)
    }

    /// Closes the queue, drains every accepted job, and joins all worker
    /// threads. Propagates the first worker panic, if any.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = self.shared.lock();
            state.open = false;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                // Drain-before-exit: accepted jobs run even after close.
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if !state.open {
                    break None;
                }
                state = match shared.work_ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        match job {
            Some(job) => {
                // mkss-lint: ordering — commutative gauge increment/decrement read only by the Relaxed telemetry load in busy_count
                shared.busy.fetch_add(1, Ordering::Relaxed);
                job();
                // mkss-lint: ordering — see the increment above; the pair never orders other memory
                shared.busy.fetch_sub(1, Ordering::Relaxed);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = map_indexed(1, &items, |i, &x| x * 3 + i as u64);
        for jobs in [2, 4, 16] {
            let parallel = map_indexed(jobs, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(map_indexed(8, &empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(8, &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = map_indexed(0, &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        map_indexed(4, &items, |_, &x| {
            assert!(x < 60, "boom");
            x
        });
    }

    #[test]
    fn pool_runs_every_accepted_job() {
        use std::sync::atomic::AtomicU64;
        let pool = WorkerPool::new(3, 64);
        assert_eq!(pool.worker_count(), 3);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.try_submit(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_rejects_beyond_capacity_and_returns_the_job() {
        use std::sync::mpsc;
        // One worker, blocked on a gate, so queued jobs cannot drain.
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).expect("test alive");
            gate_rx.recv().expect("gate opens");
        }))
        .expect("first job fits");
        started_rx.recv().expect("worker picked up the blocker");
        // The worker holds the blocker; the queue itself has room for 2.
        assert_eq!(pool.try_submit(Box::new(|| {})).expect("fits"), 1);
        assert_eq!(pool.try_submit(Box::new(|| {})).expect("fits"), 2);
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        let rejected = pool
            .try_submit(Box::new(move || {
                hits2.fetch_add(1, Ordering::Relaxed);
            }))
            .expect_err("queue is full");
        assert_eq!(rejected.kind(), SubmitErrorKind::QueueFull);
        assert!(rejected.to_string().contains("full"));
        assert_eq!(pool.queue_depth(), 2);
        // The caller gets the job back and can run it inline.
        (rejected.into_job())();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        gate_tx.send(()).expect("worker waiting");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_joining() {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;
        let pool = WorkerPool::new(1, 32);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).expect("test alive");
            gate_rx.recv().expect("gate opens");
        }))
        .expect("fits");
        started_rx.recv().expect("worker busy");
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("fits");
        }
        // Release the blocker from another thread *after* shutdown began.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let _ = gate_tx.send(());
        });
        pool.shutdown();
        opener.join().expect("opener finishes");
        assert_eq!(done.load(Ordering::Relaxed), 10, "queued jobs were lost");
    }

    #[test]
    fn busy_count_tracks_running_jobs() {
        use std::sync::mpsc;
        let pool = WorkerPool::new(2, 8);
        assert_eq!(pool.busy_count(), 0);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).expect("test alive");
            gate_rx.recv().expect("gate opens");
        }))
        .expect("fits");
        started_rx.recv().expect("worker picked up the job");
        assert_eq!(pool.busy_count(), 1);
        gate_tx.send(()).expect("worker waiting");
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_refused_as_closed() {
        let mut pool = WorkerPool::new(1, 4);
        pool.shutdown_inner();
        let err = pool.try_submit(Box::new(|| {})).expect_err("closed");
        assert_eq!(err.kind(), SubmitErrorKind::Closed);
        assert!(format!("{err:?}").contains("Closed"));
    }
}
