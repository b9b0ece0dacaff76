//! Fused single-region dispatch over a precompiled tile queue.
//!
//! A per-bin launch discipline (one [`crate::scope::parallel_for`] per
//! bin) pays one full synchronization barrier per bin: every worker must
//! finish bin *k* before any worker may start bin *k + 1*, even though
//! the bins write disjoint rows and have no ordering constraint. For
//! plans with many small bins that barrier — not the arithmetic — is the
//! launch cost.
//!
//! [`fused_for_each`] replaces the sequence of launches with **one**
//! parallel region ([`crate::team`]) over a flat queue of precompiled
//! tiles. Workers
//! claim tiles from a shared atomic cursor, so a thread that finishes its
//! share of one bin's tiles immediately steals tiles of the next bin —
//! cross-bin work stealing with a single join at the end. The caller
//! orders the queue (heaviest tiles first gives LPT-style balance) and
//! guarantees tiles touch disjoint output; this module only supplies the
//! execution discipline.

use crate::scope::num_threads;
use crate::team;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execute `body(tile)` for every tile index in `[0, n)` inside a single
/// parallel region. Tiles are claimed one at a time from a shared
/// cursor in queue order; `body` must be safe to run concurrently on
/// distinct indices (tiles must write disjoint data).
///
/// Runs inline on the caller when `n <= 1` or only one thread is
/// available, so trivial queues never wake the team.
pub fn fused_for_each<F>(n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    fused_for_each_with(0, n, body);
}

/// [`fused_for_each`] with an explicit worker cap: at most `workers`
/// threads participate (`0` means the process default, [`num_threads`]).
/// The process-wide thread count is frozen at first use, so benches that
/// sweep thread counts within one process go through this entry.
pub fn fused_for_each_with<F>(workers: usize, n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    fused_for_each_scratch(workers, n, || (), |_, t| body(t));
}

/// [`fused_for_each_with`] where every worker carries a private scratch
/// value, built once per worker by `init` and handed mutably to each
/// `body` call that worker makes. The cache-blocked SpMV executor uses
/// this for its per-row cursor/partial-sum buffers: allocating them per
/// tile would put a heap allocation on the hot path, while sharing them
/// across workers would race. A region that runs inline (`n <= 1`, one
/// worker, or a busy team) builds a single scratch and reuses it across
/// all tiles, so results cannot depend on how tiles map to workers — the
/// scratch contract is that `body` fully reinitialises whatever state it
/// reads.
pub fn fused_for_each_scratch<S, I, F>(workers: usize, n: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let workers = if workers == 0 {
        num_threads()
    } else {
        workers.min(num_threads())
    }
    .min(n);
    let cursor = AtomicUsize::new(0);
    team::region(workers, |_, _| {
        let mut scratch = init();
        loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            if t >= n {
                break;
            }
            body(&mut scratch, t);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn every_tile_runs_exactly_once() {
        let n = 5_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        fused_for_each(n, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_tiles_run_inline() {
        fused_for_each(0, |_| panic!("no tiles, no calls"));
        let hit = AtomicUsize::new(0);
        fused_for_each(1, |t| {
            hit.fetch_add(t + 7, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn explicit_worker_cap_still_covers_every_tile() {
        let n = 2_000;
        for workers in [1, 2, 7] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            fused_for_each_with(workers, n, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers = {workers} missed or repeated a tile"
            );
        }
    }

    #[test]
    fn workers_steal_across_the_queue() {
        // With wildly uneven tiles, more than one thread should touch the
        // queue when hardware allows (can't assert timing, only
        // participation).
        if num_threads() < 2 {
            return;
        }
        let seen = Mutex::new(HashSet::new());
        fused_for_each(1_000, |t| {
            if t % 97 == 0 {
                std::thread::yield_now();
            }
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn scratch_variant_covers_every_tile_with_private_state() {
        let n = 3_000;
        for workers in [0, 1, 2, 5] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            fused_for_each_scratch(
                workers,
                n,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, t| {
                    // Reinitialise-then-use, as the blocked executor does.
                    scratch.clear();
                    scratch.push(t);
                    hits[scratch[0]].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers = {workers} missed or repeated a tile"
            );
            let cap = if workers == 0 {
                num_threads()
            } else {
                workers.min(num_threads())
            }
            .max(1);
            let built = inits.load(Ordering::Relaxed);
            assert!(
                (1..=cap).contains(&built),
                "workers = {workers} built {built} scratches (cap {cap})"
            );
        }
    }

    #[test]
    fn disjoint_writes_compose_a_full_result() {
        // Tiles covering disjoint ranges of one buffer, as the SpMV
        // executor uses it.
        let n_items = 10_000usize;
        let tile = 64usize;
        let n_tiles = n_items.div_ceil(tile);
        let mut out = vec![0u64; n_items];
        {
            let ptr = SendSlice(out.as_mut_ptr());
            fused_for_each(n_tiles, |t| {
                let p = ptr;
                let start = t * tile;
                let end = (start + tile).min(n_items);
                for i in start..end {
                    // SAFETY: tile ranges are disjoint and in bounds; the
                    // region joins before `out` is read.
                    unsafe { *p.0.add(i) = (i * i) as u64 };
                }
            });
        }
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i * i) as u64);
        }
    }

    #[derive(Clone, Copy)]
    struct SendSlice(*mut u64);
    // SAFETY: test-only — used exclusively for disjoint writes inside the
    // fused region, which joins before the buffer is read.
    unsafe impl Send for SendSlice {}
    // SAFETY: same disjoint-write discipline.
    unsafe impl Sync for SendSlice {}
}
