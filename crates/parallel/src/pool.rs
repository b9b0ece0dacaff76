//! A persistent thread pool for `'static` jobs.
//!
//! The auto-tuning framework issues one kernel launch per bin; on the CPU
//! backend those launches are frequent and small, so respawning threads
//! per launch (as the scoped layer does) would dominate. The pool keeps
//! workers parked on a shared queue and hands out boxed jobs;
//! [`ThreadPool::run_batch`] submits a batch and blocks until all of it
//! completes.
//!
//! The queue is an explicit `Mutex<VecDeque<Job>>` + `Condvar` rather
//! than an `mpsc` channel: a channel's `Sender` is `!Sync`, which made
//! the whole pool `!Sync` and forced every sharing caller to clone or
//! wrap it. With the explicit queue the pool is `Send + Sync` (statically
//! asserted below), so a multi-tenant runtime can hand `&ThreadPool` to
//! concurrent plan executors directly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch for one submitted batch.
///
/// Batch-wakeup protocol invariant (model-checked by `spmv-verify`'s
/// `BatchModel`): the completer that takes `pending` to zero MUST acquire
/// `lock` before calling `notify_all`. The waiter's re-check of `pending`
/// and its descent into `cv.wait` are atomic only while it holds `lock`;
/// a notify issued between those two steps without holding the lock can
/// land before the waiter blocks and is lost — the waiter then sleeps
/// forever on a batch that already finished. `BatchModel::
/// notify_without_lock` is exactly that broken variant, and the
/// interleaving explorer proves it deadlocks while `BatchModel::correct`
/// (this protocol) does not. Keep the lock acquisition in
/// [`complete_one`](Self::complete_one) and the decrement ordering
/// (`AcqRel` release-paired with the waiter's `Acquire` load) in sync
/// with that model.
struct BatchState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl BatchState {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            pending: AtomicUsize::new(n),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Invariant: lock-then-notify. See the struct docs; dropping
            // this lock acquisition reintroduces the lost wakeup that
            // `BatchModel::notify_without_lock` exhibits.
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.lock.lock().unwrap();
        while self.pending.load(Ordering::Acquire) != 0 {
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// The shared job queue. Workers park on `cv`; `shutdown` tells them to
/// exit once the queue is drained (jobs submitted before shutdown still
/// run — `Drop` relies on that to be loss-free).
struct Queue {
    jobs: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Queue {
    fn new() -> Self {
        Self {
            jobs: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.jobs.lock().unwrap();
        assert!(!st.shutdown, "pool already shut down");
        st.jobs.push_back(job);
        drop(st);
        self.cv.notify_one();
    }

    /// Block for the next job; `None` means drained-and-shut-down.
    fn pop(&self) -> Option<Job> {
        let mut st = self.jobs.lock().unwrap();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.shutdown {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn shut_down(&self) {
        self.jobs.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

/// A fixed-size pool of parked worker threads.
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

/// Compile-time `Send + Sync` proof: sharing `&ThreadPool` across threads
/// is part of the pool's contract, not an accident of its current fields.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ThreadPool>();
};

impl ThreadPool {
    /// Spawn a pool with `size` workers (clamped to ≥ 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let queue = Arc::new(Queue::new());
        let workers = (0..size)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("spmv-pool-{i}"))
                    .spawn(move || {
                        // Hold the queue lock only while dequeuing, never
                        // while running the job.
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            queue,
            workers,
            size,
        }
    }

    /// Pool sized to the resolved process placement
    /// ([`crate::scope::num_threads`]): `SPMV_PLACEMENT` if set, else
    /// one worker per available core (or `SPMV_NUM_THREADS`).
    pub fn with_default_size() -> Self {
        Self::new(crate::scope::num_threads())
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submit one fire-and-forget job.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.queue.push(Box::new(f));
    }

    /// Submit a batch of jobs and block until every one has finished.
    pub fn run_batch<I>(&self, jobs: I)
    where
        I: IntoIterator,
        I::Item: FnOnce() + Send + 'static,
    {
        let jobs: Vec<I::Item> = jobs.into_iter().collect();
        if jobs.is_empty() {
            return;
        }
        let state = BatchState::new(jobs.len());
        for job in jobs {
            let st = Arc::clone(&state);
            self.submit(move || {
                job();
                st.complete_one();
            });
        }
        state.wait();
    }

    /// Run every closure of `jobs` on the pool and block until all have
    /// finished, without boxing each job: only `min(size, jobs.len())`
    /// runner closures are submitted, each draining job indices from a
    /// shared atomic cursor. This is the cheap path for launches made of
    /// many tiny bins, where [`run_batch`](Self::run_batch)'s one heap
    /// allocation per job dominates the work itself.
    ///
    /// The jobs are borrowed, not `'static`: the call blocks until every
    /// runner has finished touching the slice, so the borrow is safe to
    /// erase internally. Jobs must not panic (a panicking job kills its
    /// pool worker before the completion latch is counted down — the
    /// same restriction [`run_batch`](Self::run_batch) has).
    pub fn run_batch_ref<J>(&self, jobs: &[J])
    where
        J: Fn() + Sync,
    {
        if jobs.is_empty() {
            return;
        }
        let runners = self.size.min(jobs.len());
        // One latch count per runner (each completes exactly once after
        // the cursor is exhausted), not per job.
        let state = BatchState::new(runners);
        let cursor = Arc::new(AtomicUsize::new(0));
        let slice = ErasedSlice::new(jobs);
        for _ in 0..runners {
            let st = Arc::clone(&state);
            let cur = Arc::clone(&cursor);
            self.submit(move || {
                loop {
                    let i = cur.fetch_add(1, Ordering::Relaxed);
                    if i >= slice.len {
                        break;
                    }
                    // SAFETY: `i < slice.len`, and the slice outlives this
                    // call — `run_batch_ref` holds the borrow and does not
                    // return until `state.wait()` observes every runner's
                    // `complete_one`, which each runner issues only after
                    // its last access to the slice (the AcqRel decrement
                    // paired with the waiter's Acquire load gives the
                    // happens-before edge).
                    unsafe { slice.call(i) };
                }
                st.complete_one();
            });
        }
        state.wait();
    }
}

/// A type- and lifetime-erased `&[J]` that can ride into `'static` pool
/// jobs. Erasure is sound only under `run_batch_ref`'s blocking
/// discipline (see the SAFETY comment at the call site).
#[derive(Clone, Copy)]
struct ErasedSlice {
    base: *const u8,
    len: usize,
    call_one: unsafe fn(*const u8, usize),
}

impl ErasedSlice {
    fn new<J: Fn() + Sync>(jobs: &[J]) -> Self {
        /// # Safety
        ///
        /// `base` must come from a live `&[J]` with `i` in bounds
        /// (ErasedSlice::call's contract).
        unsafe fn call_one<J: Fn() + Sync>(base: *const u8, i: usize) {
            // SAFETY: forwarded directly from this fn's own contract.
            unsafe { (*(base as *const J).add(i))() }
        }
        Self {
            base: jobs.as_ptr() as *const u8,
            len: jobs.len(),
            call_one: call_one::<J>,
        }
    }

    /// Call job `i`.
    ///
    /// # Safety
    ///
    /// The slice this was built from must still be live and `i < len`.
    unsafe fn call(&self, i: usize) {
        debug_assert!(i < self.len);
        // SAFETY: forwarded contract — `base`/`len` describe a live slice
        // of the erased element type and `i` is in bounds.
        unsafe { (self.call_one)(self.base, i) }
    }
}

// SAFETY: the pointer refers to a slice of `J: Sync` elements, so `&J`
// access from other threads is allowed; lifetime validity is enforced by
// `run_batch_ref` blocking until all runners finish.
unsafe impl Send for ErasedSlice {}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Mark the queue shut down so workers drain what is left and
        // exit, then join them.
        self.queue.shut_down();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn batch_completes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|i| {
                let c = Arc::clone(&counter);
                move || {
                    c.fetch_add(i, Ordering::Relaxed);
                }
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.run_batch(Vec::<fn()>::new());
    }

    #[test]
    fn sequential_batches_are_ordered() {
        let pool = ThreadPool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for round in 0..5 {
            let jobs: Vec<_> = (0..10)
                .map(|_| {
                    let log = Arc::clone(&log);
                    move || log.lock().unwrap().push(round)
                })
                .collect();
            pool.run_batch(jobs);
        }
        let log = log.lock().unwrap();
        // Each round's 10 entries appear before any later round's.
        for (i, w) in log.windows(2).enumerate() {
            assert!(w[0] <= w[1], "out of order at {i}: {:?}", &log[..]);
        }
        assert_eq!(log.len(), 50);
    }

    #[test]
    fn batch_ref_completes_all_jobs_without_boxing_each() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        let jobs: Vec<_> = (0..hits.len())
            .map(|i| {
                let h = &hits[i];
                move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.run_batch_ref(&jobs);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn batch_ref_empty_and_single() {
        let pool = ThreadPool::new(3);
        pool.run_batch_ref::<fn()>(&[]);
        let hit = AtomicU64::new(0);
        let one = [|| {
            hit.fetch_add(5, Ordering::Relaxed);
        }];
        pool.run_batch_ref(&one);
        assert_eq!(hit.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn batch_ref_more_jobs_than_workers_and_vice_versa() {
        for (workers, jobs) in [(2usize, 50usize), (8, 3)] {
            let pool = ThreadPool::new(workers);
            let sum = AtomicU64::new(0);
            let batch: Vec<_> = (0..jobs as u64)
                .map(|i| {
                    let s = &sum;
                    move || {
                        s.fetch_add(i, Ordering::Relaxed);
                    }
                })
                .collect();
            pool.run_batch_ref(&batch);
            assert_eq!(sum.load(Ordering::Relaxed), (0..jobs as u64).sum::<u64>());
        }
    }

    #[test]
    fn size_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        pool.run_batch([move || {
            h.store(7, Ordering::Relaxed);
        }]);
        assert_eq!(hit.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // must drain and join without hanging
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pool_is_shareable_by_reference_across_threads() {
        // The Send + Sync contract in practice: concurrent submitters
        // over `&ThreadPool`, no cloning or wrapping.
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = &counter;
                    let jobs: Vec<_> = (0..25)
                        .map(|_| {
                            move || {
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    pool.run_batch_ref(&jobs);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }
}
