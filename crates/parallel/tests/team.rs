//! The persistent worker team under the situations its callers create:
//! nested regions, concurrent callers, panicking roles, and a lone
//! caller that must actually get parallel help. Tests in this binary
//! run concurrently, so a region may find the team busy and run inline;
//! the tests that need a multi-role region retry until they get one.

use spmv_parallel::{fused_for_each, num_threads, parallel_for, region, sharded_for_each_scratch};
use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Run one region and return `(roles, distinct threads that ran a role)`.
/// Role 0 holds the caller until every role has started (for at most
/// 10 s), so no worker role is taken back by the caller for being late.
fn probe_region() -> (usize, usize) {
    let roles = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    region(num_threads(), |role, n| {
        roles.store(n, Ordering::Relaxed);
        ids.lock().unwrap().insert(std::thread::current().id());
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while role == 0 && started.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    let distinct = ids.lock().unwrap().len();
    (roles.load(Ordering::Relaxed), distinct)
}

/// Call `attempt` until it reports success or a generous deadline
/// passes, pausing between tries so concurrent tests can release the
/// team. Returns the first success.
fn retry<R>(mut attempt: impl FnMut() -> Option<R>) -> Option<R> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(r) = attempt() {
            return Some(r);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    None
}

/// Retry `probe_region` until a region got the team (other tests may
/// hold it); `None` if that never happened.
fn multi_role_region() -> Option<(usize, usize)> {
    retry(|| Some(probe_region()).filter(|&(roles, _)| roles >= 2))
}

#[test]
fn a_lone_callers_region_runs_on_several_threads() {
    if num_threads() < 2 {
        return;
    }
    let (roles, distinct) = multi_role_region().expect("the team never took a region");
    assert_eq!(distinct, roles, "{roles} roles ran on {distinct} threads");
    assert!(distinct >= 2);
}

#[test]
fn nested_regions_run_inline_and_cover_everything() {
    let n_outer = 16;
    let n_inner = 1_000;
    let hits: Vec<AtomicUsize> = (0..n_outer * n_inner)
        .map(|_| AtomicUsize::new(0))
        .collect();
    fused_for_each(n_outer, |o| {
        // Nested: the team is busy with the outer region, so this runs
        // on the role's own thread.
        parallel_for(n_inner, 7, |s, e| {
            for i in s..e {
                hits[o * n_inner + i].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn concurrent_callers_each_get_every_item_once() {
    let run = |seed: usize| {
        for round in 0..200 {
            let n = 50 + (seed * 31 + round * 17) % 400;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            fused_for_each(n, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "caller {seed}, round {round}"
            );
        }
    };
    std::thread::scope(|s| {
        for seed in 0..3 {
            s.spawn(move || run(seed));
        }
    });
}

#[test]
fn a_panicking_tile_propagates_and_the_team_survives() {
    for _ in 0..20 {
        let outcome = panic::catch_unwind(|| {
            fused_for_each(64, |t| {
                if t == 37 {
                    panic!("tile 37 failed");
                }
            });
        });
        let payload = outcome.expect_err("the tile panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert_eq!(message, "tile 37 failed");
    }
    // A panic on a worker role (not the caller's) reaches the caller too.
    if num_threads() >= 2 {
        let worker_panicked = retry(|| {
            let roles = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(|| {
                region(2, |role, n| {
                    roles.store(n, Ordering::Relaxed);
                    if role == 1 {
                        panic!("worker role failed");
                    }
                })
            });
            (roles.load(Ordering::Relaxed) == 2).then_some(outcome)
        })
        .expect("the team never took a region");
        assert!(worker_panicked.is_err(), "a worker panic was swallowed");
    }
    // Still usable: full coverage, and parallel again when possible.
    let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
    fused_for_each(500, |t| {
        hits[t].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    if num_threads() >= 2 {
        assert!(multi_role_region().is_some(), "the team never recovered");
    }
}

#[test]
fn sharded_touch_and_ring_steal_run_multi_worker() {
    if num_threads() < 2 {
        return;
    }
    // More shards than workers, uneven sizes: every role steals in ring
    // order once its home queue is dry.
    let sizes = [300usize, 0, 5, 120, 1, 64];
    let mut next = 0u32;
    let queues: Vec<Vec<u32>> = sizes
        .iter()
        .map(|&n| {
            let q = (next..next + n as u32).collect();
            next += n as u32;
            q
        })
        .collect();
    let total = next as usize;
    let multi_worker = retry(|| {
        let touched: Vec<AtomicUsize> = sizes.iter().map(|_| AtomicUsize::new(0)).collect();
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let drained_after_touch = AtomicUsize::new(0);
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        sharded_for_each_scratch(
            0,
            &queues,
            true,
            |s| {
                touched[s].fetch_add(1, Ordering::SeqCst);
                ids.lock().unwrap().insert(std::thread::current().id());
            },
            || (),
            |_, item| {
                if touched.iter().all(|t| t.load(Ordering::SeqCst) == 1) {
                    drained_after_touch.fetch_add(1, Ordering::Relaxed);
                }
                ids.lock().unwrap().insert(std::thread::current().id());
                hits[item as usize].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(touched.iter().all(|t| t.load(Ordering::SeqCst) == 1));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(
            drained_after_touch.load(Ordering::Relaxed),
            total,
            "an item ran before every shard was touched"
        );
        let distinct = ids.lock().unwrap().len();
        (distinct >= 2).then_some(())
    });
    assert!(
        multi_worker.is_some(),
        "the sharded dispatcher never ran on more than one thread"
    );
}
