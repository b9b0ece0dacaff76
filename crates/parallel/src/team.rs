//! One persistent worker team for every parallel region.
//!
//! The fused, sharded and flat dispatchers each open one *region* per
//! call: a body run concurrently under `roles` role ids, then joined.
//! Opening a region with `std::thread::scope` spawns and joins fresh OS
//! threads every time — tens of microseconds, which on a small plan is
//! more than the kernel itself. [`region`] instead hands the body to a
//! team of `num_threads() − 1` parked workers, started once per process
//! on first use; the caller runs role 0 itself and worker `i` runs role
//! `i + 1` whenever it starts in time (below), so a shard's home role maps
//! to the same OS thread on every call (the first-touch placement the
//! sharded runtime relies on).
//!
//! **Wake.** The caller bumps a generation counter and publishes the body
//! *under the region lock*, then notifies the workers' condition
//! variable. A worker re-checks the generation under the same lock
//! before it sleeps, so a notify can never land between its check and its
//! sleep. **Complete.** The caller sets an atomic `pending` count to the
//! number of worker roles; each worker decrements it after its role, and
//! the one that takes it to zero takes the done lock before it notifies
//! the caller — the same lock-then-notify rule on the way back. Both
//! halves are modelled as `TeamModel` in the `spmv-verify` interleaving
//! explorer, where notifying without the lock deadlocks.
//!
//! **Claim.** A role runs only after its worker's `claimed` slot moved to
//! the region's generation. When the caller has finished role 0 it claims
//! every worker role still unclaimed and runs it itself, so a region never
//! waits for a worker the host has not scheduled yet: a parked worker can
//! sit behind other threads for a whole time slice, and on a virtual
//! machine its halted vCPU can take milliseconds to come back. The
//! dispatchers' bodies claim items dynamically, so a late role finds
//! little or nothing left to do. A worker that loses the claim goes back
//! to sleep without touching the region's body. A body that meets all
//! roles at a barrier (the sharded first touch) cannot finish role 0
//! before every role has started, so its roles stay on their own threads.
//!
//! **Safety.** The body may borrow the caller's stack: [`region`] does not
//! return — or unwind — until every worker role has finished, the same
//! argument that makes `std::thread::scope` sound. A panic in any role is
//! caught, the region still joins, and the first panic is re-raised in
//! the caller; the team stays usable. A region opened while the team is
//! busy — nested inside a role, or from a second caller thread — runs
//! inline on its own thread as a single role, so regions never wait for
//! one another and never deadlock on the team. The dispatchers' results
//! do not depend on how many roles ran (items write disjoint outputs
//! exactly once), so every schedule is bit-for-bit the sequential one.

use crate::scope::num_threads;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A region body: called once per role as `body(role, roles)`.
type Body<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The published body of the running region, lifetime-erased. Only
/// dereferenced by a worker whose role belongs to that region, and the
/// caller that owns the borrow waits for every such worker to finish.
#[derive(Clone, Copy)]
struct BodyPtr(*const Body<'static>);

// SAFETY: the pointee is `Sync`, and it is only called while the region
// that published it is joined by its caller (see `Team::worker`).
unsafe impl Send for BodyPtr {}

struct Published {
    /// Bumped once per region; workers sleep while it equals the last
    /// generation they saw.
    generation: u64,
    /// Roles of the current region, caller included.
    roles: usize,
    body: Option<BodyPtr>,
}

struct Team {
    /// Worker threads; worker `i` runs role `i + 1`.
    size: usize,
    /// Held by the one caller whose region owns the workers.
    busy: AtomicBool,
    published: Mutex<Published>,
    wake: Condvar,
    /// Mirror of `published.generation` for the lock-free spin before a
    /// worker sleeps; the decision to sleep is still made under the lock.
    generation: AtomicU64,
    /// Worker roles of the current region not yet finished.
    pending: AtomicUsize,
    /// Per worker: the last generation whose role was claimed, by the
    /// worker itself or by the caller taking it back (see [`Team::claim`]).
    claimed: Box<[AtomicU64]>,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First panic payload a worker role raised in the current region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The process team, started on first use with [`num_threads`]` − 1`
/// workers (none on a single-worker placement).
fn team() -> &'static Team {
    static TEAM: OnceLock<&'static Team> = OnceLock::new();
    TEAM.get_or_init(|| {
        let size = num_threads().saturating_sub(1);
        let team: &'static Team = Box::leak(Box::new(Team::new(size)));
        for i in 0..size {
            std::thread::Builder::new()
                .name(format!("spmv-team-{}", i + 1))
                .spawn(move || team.worker(i + 1))
                .expect("failed to start a team worker");
        }
        team
    })
}

/// Run `body(role, roles)` once for every role in `0..roles`, each on its
/// own thread, and return when all have finished. `roles` is `workers`
/// capped at the team's size plus the caller; `workers <= 1`, and any
/// region opened while the team is busy (nested in a role, or from a
/// second caller), runs inline as `body(0, 1)`. Role 0 is always the
/// calling thread. A panic in any role is re-raised here after the
/// region has joined.
pub fn region<F>(workers: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if workers <= 1 {
        body(0, 1);
        return;
    }
    let team = team();
    let roles = workers.min(team.size + 1);
    if roles <= 1
        || team
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
    {
        body(0, 1);
        return;
    }
    team.run(roles, &body);
}

impl Team {
    /// A team of `size` worker slots; its worker threads are started by
    /// [`team`].
    fn new(size: usize) -> Self {
        Self {
            size,
            busy: AtomicBool::new(false),
            published: Mutex::new(Published {
                generation: 0,
                roles: 0,
                body: None,
            }),
            wake: Condvar::new(),
            generation: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            claimed: (0..size).map(|_| AtomicU64::new(0)).collect(),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Open a region on the (already claimed) team and join it.
    fn run(&self, roles: usize, body: &Body<'_>) {
        // SAFETY: only the lifetime is erased. `body` outlives every use:
        // this function waits for all worker roles below, on the normal
        // path and after a panic of role 0 alike.
        let ptr: *const Body<'static> = unsafe { std::mem::transmute(body as *const Body<'_>) };
        self.pending.store(roles - 1, Ordering::Relaxed);
        let generation = {
            let mut p = self.published.lock().unwrap();
            p.generation += 1;
            self.generation.store(p.generation, Ordering::Release);
            p.roles = roles;
            p.body = Some(BodyPtr(ptr));
            // Invariant: bump and notify under the lock. A worker checks
            // the generation and goes to sleep atomically under it, so
            // the wake cannot fall in between (`TeamModel`).
            self.wake.notify_all();
            p.generation
        };
        let mine = panic::catch_unwind(AssertUnwindSafe(|| body(0, roles)));
        // Take back every role no worker has started: run it here (or,
        // after a panic of role 0, only account for it).
        for role in 1..roles {
            if self.claim(role, generation) {
                if mine.is_ok() {
                    self.run_role(body, role, roles);
                }
                self.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        if !spin_until(|| self.pending.load(Ordering::Acquire) == 0) {
            let mut g = self.done_lock.lock().unwrap();
            while self.pending.load(Ordering::Acquire) != 0 {
                g = self.done.wait(g).unwrap();
            }
        }
        let theirs = self.panic.lock().unwrap().take();
        self.busy.store(false, Ordering::Release);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's life: sleep until a new generation, claim and run this
    /// worker's role if the region has one for it, report completion,
    /// repeat.
    fn worker(&self, role: usize) {
        let mut seen = 0u64;
        loop {
            spin_until(|| self.generation.load(Ordering::Acquire) != seen);
            let (body, roles) = {
                let mut p = self.published.lock().unwrap();
                while p.generation == seen {
                    p = self.wake.wait(p).unwrap();
                }
                seen = p.generation;
                (p.body, p.roles)
            };
            if role >= roles || !self.claim(role, seen) {
                continue;
            }
            let body = body.expect("a region with worker roles publishes its body");
            // SAFETY: this worker claimed its role in the region just
            // published, so that region's caller is blocked until
            // `complete_one` below; the borrow `body` erases is alive
            // until then.
            self.run_role(unsafe { &*body.0 }, role, roles);
            self.complete_one();
        }
    }

    /// Claim worker role `role` (≥ 1) of region `generation`. Exactly one
    /// of the worker and the region's caller succeeds. A worker still
    /// holding an older generation fails: every finished region has
    /// claimed all of its roles, so the slot is already at or past it.
    fn claim(&self, role: usize, generation: u64) -> bool {
        let slot = &self.claimed[role - 1];
        let mut last = slot.load(Ordering::Acquire);
        while last < generation {
            match slot.compare_exchange_weak(last, generation, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(now) => last = now,
            }
        }
        false
    }

    /// Run one role, keeping the region's first panic for the caller.
    fn run_role(&self, body: &Body<'_>, role: usize, roles: usize) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(role, roles))) {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Invariant: lock-then-notify, so the caller cannot miss the
            // wake between its `pending` check and its wait.
            let _g = self.done_lock.lock().unwrap();
            self.done.notify_one();
        }
    }
}

/// Poll `ready` for up to [`SPIN`] before a thread commits to a
/// condition-variable sleep. Regions that follow each other within that
/// gap (an execute loop, a serving dispatcher's batches) then skip the
/// futex round trip, and — what matters more on a virtual machine — a
/// worker that does not sleep is not re-placed by the kernel's wake-up
/// path. On a 2-vCPU guest that path kept putting the woken worker on
/// the caller's own vCPU, while the other one idled, for seconds at a
/// time; with a poll this long those stretches stopped showing up in
/// the serving benchmark. Returns whether `ready` held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..SPIN_CHECK {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return ready();
        }
    }
}

/// How long a parked worker, or a caller waiting for one, polls before
/// it sleeps: at most this much CPU per region when regions are sparse
/// (a 100 regions/s open loop burns up to half a CPU). OpenMP runtimes
/// make the same trade with a spin-wait "block time" before sleeping.
const SPIN: Duration = Duration::from_millis(5);

/// Polls between two clock reads in [`spin_until`].
const SPIN_CHECK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_role_runs_once_per_region() {
        for workers in [0, 1, 2, 3, 8] {
            for _ in 0..50 {
                let calls: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
                let seen_roles = AtomicUsize::new(0);
                region(workers, |role, roles| {
                    assert!(role < roles && roles <= workers.max(1));
                    seen_roles.store(roles, Ordering::Relaxed);
                    calls[role].fetch_add(1, Ordering::Relaxed);
                });
                let roles = seen_roles.load(Ordering::Relaxed);
                for (r, c) in calls.iter().enumerate() {
                    let want = usize::from(r < roles);
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        want,
                        "workers {workers}, role {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_role_is_claimed_once_and_never_for_an_older_region() {
        let team = Team::new(2);
        assert!(team.claim(1, 1));
        assert!(!team.claim(1, 1), "claimed twice in one region");
        assert!(team.claim(2, 1), "slots are per role");
        assert!(team.claim(1, 3));
        assert!(!team.claim(1, 2), "a stale worker won a claim");
    }

    #[test]
    fn the_caller_takes_back_roles_no_worker_started() {
        // Worker slots without threads: every worker role is late.
        let team = Team::new(3);
        let me = std::thread::current().id();
        for _ in 0..3 {
            let calls: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            team.run(4, &|role: usize, roles: usize| {
                assert_eq!(roles, 4);
                assert_eq!(std::thread::current().id(), me);
                calls[role].fetch_add(1, Ordering::Relaxed);
            });
            for (r, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "role {r}");
            }
            assert_eq!(team.pending.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_panic_in_a_taken_back_role_reaches_the_caller() {
        let team = Team::new(1);
        let hit = panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(2, &|role: usize, _| assert!(role != 1, "role 1 failed"));
        }));
        assert!(hit.is_err());
        let ran = AtomicUsize::new(0);
        team.run(2, &|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "the team is usable afterwards"
        );
    }

    #[test]
    fn roles_run_on_distinct_threads() {
        let ids = Mutex::new(Vec::new());
        let started = AtomicUsize::new(0);
        region(num_threads(), |role, roles| {
            ids.lock().unwrap().push(std::thread::current().id());
            started.fetch_add(1, Ordering::SeqCst);
            // Role 0 holds the caller until every worker has started, so
            // none of their roles is taken back; bounded for safety.
            let deadline = Instant::now() + Duration::from_secs(10);
            while role == 0 && started.load(Ordering::SeqCst) < roles && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        let ids = ids.into_inner().unwrap();
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "two roles shared a thread");
    }
}
