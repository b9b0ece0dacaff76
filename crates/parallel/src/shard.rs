//! Sharded work queues with locality-first stealing.
//!
//! [`crate::fused`] drains one flat tile queue through one shared atomic
//! cursor: perfect load balance, zero locality. On a machine with
//! worker groups (sockets, core clusters), a worker that claims whatever
//! tile is next will happily stream a remote shard's slice of `x` and
//! dirty a remote group's `y` lines. Sharding splits the queue at
//! *compile* time into per-shard sub-queues (the planner cuts them
//! NNZ-balanced over disjoint row ranges) and changes the *claim order*
//! at run time:
//!
//! 1. a worker's home shard is `role % n_shards` — it drains that queue
//!    first (shard-local stealing: workers sharing a home still balance
//!    among themselves through the shard's cursor);
//! 2. only when its home queue is empty does it move to the next shard
//!    in ring order (`home + 1`, `home + 2`, …) — cross-shard stealing
//!    as a fallback, so imbalance between shards can never idle a
//!    worker while any queue holds work.
//!
//! The ring fallback is load-bearing for liveness *and* coverage: every
//! role visits every shard, so the union of drains covers every queue
//! even when there are more shards than workers (a pinned-count plan
//! running on a smaller machine). The protocol — home first, ring
//! fallback, monotone per-shard cursors — is modeled as `ShardModel` in
//! the `spmv-verify` interleaving explorer, where dropping the fallback
//! is proven to strand items.
//!
//! Output equality is by construction, not by scheduling: items write
//! disjoint outputs exactly once (the planner proves it), so *which*
//! worker runs an item cannot change a single bit of the result.

use crate::scope::num_threads;
use crate::team;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};

/// Execute `body(scratch, item)` for every item id in every queue of
/// `queues`, claiming shard-locally first and cross-shard (ring order)
/// as fallback. Each worker carries a private scratch built by `init`,
/// with the same reinitialise-then-use contract as
/// [`crate::fused::fused_for_each_scratch`].
///
/// When `do_touch` is set, `touch(shard)` runs exactly once per shard
/// index, **before any item of any shard runs** (a barrier separates
/// the touch phase from the drain phase); shards are dealt round-robin
/// over the participating workers. Executors use it for first-touch placement: zeroing the
/// shard's output rows and streaming its `x` working set from the
/// thread that will own them, so pages fault in near their consumer.
/// The barrier is why this is safe to combine with write-once outputs:
/// every touch-zero happens-before every real write.
///
/// At most `workers` threads participate (`0` means [`num_threads`]),
/// as the roles of one team region ([`crate::team`]), so role `r` runs
/// on the same OS thread on every call — the thread that first-touched
/// its home shard. With one effective worker (or a busy team)
/// everything runs inline on the caller in deterministic
/// shard-then-queue order, and the result is bit-for-bit identical to
/// any parallel schedule because items write disjoint outputs exactly
/// once.
pub fn sharded_for_each_scratch<S, I, T, F>(
    workers: usize,
    queues: &[Vec<u32>],
    do_touch: bool,
    touch: T,
    init: I,
    body: F,
) where
    I: Fn() -> S + Sync,
    T: Fn(usize) + Sync,
    F: Fn(&mut S, u32) + Sync,
{
    let n_shards = queues.len();
    if n_shards == 0 {
        return;
    }
    let total: usize = queues.iter().map(Vec::len).sum();
    let workers = if workers == 0 {
        num_threads()
    } else {
        workers.min(num_threads())
    }
    .min(total);
    let cursors: Vec<AtomicUsize> = (0..n_shards).map(|_| AtomicUsize::new(0)).collect();
    // Sized on first use: every role of one region sees the same count.
    let barrier = OnceLock::new();
    team::region(workers, |role, roles| {
        if do_touch {
            // Shards are dealt round-robin over roles (s % roles ==
            // role), covering each exactly once; the barrier orders all
            // touches before all drains.
            let mut s = role;
            while s < n_shards {
                touch(s);
                s += roles;
            }
            barrier.get_or_init(|| Barrier::new(roles)).wait();
        }
        let mut scratch = init();
        let home = role % n_shards;
        for d in 0..n_shards {
            let s = (home + d) % n_shards;
            let queue = &queues[s];
            loop {
                let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                if i >= queue.len() {
                    break;
                }
                body(&mut scratch, queue[i]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn queues_of(sizes: &[usize]) -> (Vec<Vec<u32>>, usize) {
        let mut next = 0u32;
        let queues = sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect()
            })
            .collect();
        (queues, next as usize)
    }

    fn assert_each_item_once(workers: usize, sizes: &[usize]) {
        let (queues, total) = queues_of(sizes);
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        sharded_for_each_scratch(
            workers,
            &queues,
            false,
            |_| {},
            || (),
            |_, item| {
                hits[item as usize].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "workers = {workers}, shards = {sizes:?}: item {i} ran wrong number of times"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once_across_shard_shapes() {
        for workers in [1, 2, 3, 7] {
            assert_each_item_once(workers, &[500, 500]);
            assert_each_item_once(workers, &[1000, 1, 0, 300]); // one-item and empty shards
            assert_each_item_once(workers, &[0, 0, 0]);
            assert_each_item_once(workers, &[64; 9]); // more shards than workers
            assert_each_item_once(workers, &[2000]); // single shard degenerates to fused
        }
    }

    #[test]
    fn zero_items_runs_nothing() {
        sharded_for_each_scratch::<(), _, _, _>(
            4,
            &[vec![], vec![]],
            false,
            |_| {},
            || (),
            |_, _| panic!("no items, no calls"),
        );
    }

    #[test]
    fn touch_runs_once_per_shard_before_any_item() {
        for workers in [1, 2, 5] {
            let (queues, _) = queues_of(&[100, 1, 0, 100]);
            let touched: Vec<AtomicUsize> =
                (0..queues.len()).map(|_| AtomicUsize::new(0)).collect();
            let any_item_ran = AtomicBool::new(false);
            let touch_after_item = AtomicBool::new(false);
            sharded_for_each_scratch(
                workers,
                &queues,
                true,
                |s| {
                    if any_item_ran.load(Ordering::SeqCst) {
                        touch_after_item.store(true, Ordering::SeqCst);
                    }
                    touched[s].fetch_add(1, Ordering::SeqCst);
                },
                || (),
                |_, _| {
                    any_item_ran.store(true, Ordering::SeqCst);
                },
            );
            for (s, t) in touched.iter().enumerate() {
                assert_eq!(
                    t.load(Ordering::SeqCst),
                    1,
                    "workers = {workers}: shard {s} touched wrong number of times"
                );
            }
            assert!(
                !touch_after_item.load(Ordering::SeqCst),
                "workers = {workers}: a touch ran after an item — barrier broken"
            );
        }
    }

    #[test]
    fn disjoint_writes_compose_bit_identical_results() {
        // Items own disjoint output slots; any schedule must produce the
        // same buffer. Compare a parallel run against the sequential one.
        let (queues, total) = queues_of(&[700, 300, 450]);
        let run = |workers: usize| {
            let mut out = vec![0u64; total];
            {
                let slots: Vec<AtomicUsize> = out
                    .iter_mut()
                    .map(|x| {
                        // AtomicUsize per slot keeps the test in safe code.
                        AtomicUsize::new(*x as usize)
                    })
                    .collect();
                sharded_for_each_scratch(
                    workers,
                    &queues,
                    false,
                    |_| {},
                    || (),
                    |_, item| {
                        let i = item as usize;
                        slots[i].store(i * i + 1, Ordering::Relaxed);
                    },
                );
                for (x, slot) in out.iter_mut().zip(&slots) {
                    *x = slot.load(Ordering::Relaxed) as u64;
                }
            }
            out
        };
        let sequential = run(1);
        for workers in [2, 3, 7] {
            assert_eq!(run(workers), sequential, "workers = {workers}");
        }
    }

    #[test]
    fn scratch_is_private_per_worker() {
        let (queues, total) = queues_of(&[800, 800]);
        for workers in [1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            sharded_for_each_scratch(
                workers,
                &queues,
                false,
                |_| {},
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |scratch, item| {
                    scratch.clear();
                    scratch.push(item);
                    hits[scratch[0] as usize].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let built = inits.load(Ordering::Relaxed);
            let cap = workers.min(num_threads()).max(1);
            assert!(
                (1..=cap).contains(&built),
                "workers = {workers} built {built} scratches (cap {cap})"
            );
        }
    }
}
