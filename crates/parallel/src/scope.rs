//! Data-parallel loops over borrowed data.
//!
//! Each loop is one region of the persistent worker team
//! ([`crate::team`]), with a shared atomic cursor for dynamic
//! scheduling: workers repeatedly claim the next chunk of
//! `grain` items until the index space is exhausted. This is the
//! load-balancing discipline the paper's binning is designed around —
//! uneven per-item work (rows of different NNZ) must not serialise on one
//! slow worker.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The raw hardware thread budget: the `SPMV_NUM_THREADS` environment
/// variable if set, otherwise the machine's available parallelism
/// (minimum 1). This is what [`crate::topology::Topology::detect`]
/// reports as `cores` — the ceiling placement policies resolve against,
/// *not* the worker count parallel regions use (that is [`num_threads`]).
///
/// Computed once per process and cached: changing `SPMV_NUM_THREADS`
/// after the first launch has no effect for the rest of the process.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(s) = std::env::var("SPMV_NUM_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                return n.max(1);
            }
        }
        machine_threads()
    })
}

/// The machine's *actual* available parallelism, with no environment
/// override (minimum 1). This is what bench reports record as
/// `hardware_threads`: a sweep that forced 4 workers via
/// `SPMV_NUM_THREADS=4` on a single-core container is oversubscribed,
/// and downstream comparisons need the honest core count to filter
/// such runs — reporting the overridable budget would hide exactly the
/// condition the field exists to flag.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads used by the free functions: the resolved
/// process placement's worker count
/// ([`crate::topology::Placement::from_env`]), so every layer — the flat
/// loops here, the sharded runtime, servers, benches —
/// observes **one** topology per process (the worker team is sized from
/// it once). `SPMV_PLACEMENT` caps this;
/// unset, it is the hardware budget (`SPMV_NUM_THREADS` or the
/// machine's available parallelism).
///
/// The placement is computed once per process and cached — kernel
/// launches call this on their hot path (per bin, per execute), and
/// re-parsing environment variables there costs syscalls per call.
pub fn num_threads() -> usize {
    crate::topology::Placement::from_env().workers
}

/// Run `body(start, end)` over `[0, n)` in dynamically scheduled chunks of
/// `grain` items across [`num_threads`] workers. `body` must be safe to
/// call concurrently on disjoint ranges.
///
/// Falls back to a plain sequential loop when `n` is small or only one
/// thread is available.
pub fn parallel_for<F>(n: usize, grain: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let grain = grain.max(1);
    let workers = num_threads();
    if workers == 1 || n <= grain {
        if n > 0 {
            body(0, n);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    crate::team::region(workers.min(n.div_ceil(grain)), |_, _| loop {
        let start = cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + grain).min(n);
        body(start, end);
    });
}

/// Map every index of `[0, n)` through `f` and collect the results in
/// order. Scheduling is dynamic; result placement uses disjoint writes
/// into a pre-sized buffer.
pub fn parallel_map_collect<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    {
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_for(n, grain, |start, end| {
            // SAFETY: chunks are disjoint, so each index is written by
            // exactly one worker; the buffer outlives the region.
            let p = out_ptr;
            for i in start..end {
                unsafe { *p.0.add(i) = f(i) };
            }
        });
    }
    out
}

struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only used to write disjoint indices inside the
// region of `parallel_for`, which joins all workers before returning.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same restriction — shared only between workers writing disjoint
// indices, all joined before the buffer is read.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parallel reduction: fold `[0, n)` with `map`, combining per-worker
/// partials with `combine` starting from `identity`. The combination
/// order is deterministic (chunk order), so floating-point reductions are
/// reproducible for a fixed `n`, `grain`, and thread count.
pub fn parallel_reduce<T, M, C>(n: usize, grain: usize, identity: T, map: M, combine: C) -> T
where
    T: Send + Clone,
    M: Fn(usize, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let grain = grain.max(1);
    if n == 0 {
        return identity;
    }
    let n_chunks = n.div_ceil(grain);
    let partials: Vec<T> = parallel_map_collect_nondefault(n_chunks, 1, |c| {
        let start = c * grain;
        let end = (start + grain).min(n);
        map(start, end)
    });
    partials.into_iter().fold(identity, combine)
}

/// `parallel_map_collect` without the `Default` bound (used internally):
/// collects via per-chunk vectors and concatenation.
fn parallel_map_collect_nondefault<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(n, grain, |start, end| {
        let p = out_ptr;
        for i in start..end {
            // SAFETY: disjoint indices, buffer outlives the region.
            unsafe { *p.0.add(i) = Some(f(i)) };
        }
    });
    out.into_iter()
        .map(|x| x.expect("chunk not computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_handles_zero_items() {
        parallel_for(0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_small_n_runs_inline() {
        let count = AtomicUsize::new(0);
        parallel_for(3, 100, |s, e| {
            count.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v = parallel_map_collect(1000, 7, |i| i * i);
        assert_eq!(v.len(), 1000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * i);
        }
    }

    #[test]
    fn reduce_sums_correctly() {
        let total = parallel_reduce(
            100_000,
            1024,
            0u64,
            |s, e| (s..e).map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn reduce_empty_is_identity() {
        let r = parallel_reduce(0, 16, 42u32, |_, _| 0, |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn reduce_is_deterministic_for_floats() {
        let run = || {
            parallel_reduce(
                50_000,
                128,
                0.0f64,
                |s, e| (s..e).map(|i| (i as f64).sqrt()).sum::<f64>(),
                |a, b| a + b,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn work_is_actually_distributed() {
        // With uneven per-item work, dynamic scheduling should let more
        // than one thread participate (can't assert timing, but we can
        // assert multiple distinct thread ids touched the loop when
        // hardware allows).
        if num_threads() < 2 {
            return;
        }
        let ids = distinct_thread_ids();
        assert!(ids >= 1);
    }

    fn distinct_thread_ids() -> usize {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        parallel_for(10_000, 16, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::hint::black_box(0);
        });
        let n = seen.lock().unwrap().len();
        n
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(8, 1, |s, e| {
            for _ in s..e {
                parallel_for(100, 10, |s2, e2| {
                    total.fetch_add((e2 - s2) as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }
}
