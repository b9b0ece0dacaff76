//! Small-N state-machine encodings of the `spmv-parallel` concurrency
//! protocols, explorable by [`crate::interleave::explore`].
//!
//! Each model carries a *bug toggle* that re-introduces a classic
//! protocol defect, so the adversarial tests can prove the checker
//! actually detects what it claims to:
//!
//! * [`TeamModel`] — the persistent worker team's region protocol
//!   (`Team` in `crates/parallel/src/team.rs`), over back-to-back
//!   regions: the caller publishes a new generation and notifies the
//!   parked workers under the region lock, each role is claimed once —
//!   by its worker or, if the worker has not started it when role 0 is
//!   done, by the caller — and the last worker to finish notifies the
//!   caller under the done lock. Three buggy variants: the caller bumps
//!   the generation and notifies without the region lock (the bump lands
//!   between a worker's locked check and its sleep), or the last worker
//!   notifies without the done lock (the notify lands between the
//!   caller's check and its sleep) — either leaves a thread asleep
//!   forever (detected as a deadlock) — or a worker runs its role without
//!   claiming it, so the caller's take-back runs it a second time
//!   (detected as a violation).
//! * [`CursorModel`] — the dynamic-chunk claim in `parallel_for`
//!   (`crates/parallel/src/scope.rs`): workers claim chunks with one
//!   atomic `fetch_add`. The buggy variant splits the claim into a read
//!   and a write, letting two workers claim — and write — the same
//!   chunk (detected as a double-write violation).
//! * [`TwoLockModel`] — two threads taking two locks; with a consistent
//!   acquisition order the protocol passes, with opposite orders the
//!   explorer finds the deadlock cycle.
//! * [`ShardModel`] — the sharded-queue claim protocol
//!   (`sharded_for_each_scratch` in `crates/parallel/src/shard.rs`):
//!   each worker drains its home shard (`role % n_shards`) through an
//!   atomic per-shard cursor, then falls back to the remaining shards in
//!   ring order. The buggy variant drops the ring fallback — a worker
//!   stops after its home queue — so queues no worker is homed on (more
//!   shards than workers) are never drained (detected as stranded
//!   items).
//! * [`AdmissionModel`] — the serving layer's admission-queue protocol
//!   (`SpmvServer` in `crates/server/src/serve.rs`): producers enqueue
//!   requests and notify under the queue lock; one dispatcher drains
//!   coalesced batches of up to `K` requests, executes each batch
//!   *outside* the lock, then **reacquires and rechecks** the queue
//!   before ever waiting — so an arrival that lands while a batch is in
//!   flight is found on the recheck, and the condvar wait itself is an
//!   atomic unlock-and-sleep. The buggy variant splits that wait into
//!   unlock *then* sleep: a producer's notify can land in the window
//!   between them and be lost, stranding the enqueued request with the
//!   dispatcher asleep forever (detected as a deadlock).
//! * [`RefineModel`] — the online-refinement publish protocol
//!   (`refiner_loop` + `PlanCache::swap` in `crates/server`): a
//!   background refiner builds a candidate plan, **verifies** it, and
//!   only then publishes it into the shared cache slot; executors load
//!   whatever the slot holds and run it. Verification happening-before
//!   publication is exactly what makes the swap response-invariant. The
//!   buggy variant publishes first and verifies after — an executor can
//!   load the candidate in the gap and run an unverified plan (detected
//!   as a violation).
//! * [`LevelModel`] — the barrier-stepped level-solve protocol
//!   (`stepped_for_each` in `crates/parallel/src/step.rs`, driving the
//!   `SolvePlan` kernels): workers execute their slice of a level, meet
//!   at a barrier, then execute the next level, whose rows *read* rows
//!   written in the previous one. The buggy variant arrives at the
//!   barrier but does not wait — a worker can then read a dependency
//!   another worker has not written yet (detected as a
//!   read-before-write violation).

use crate::interleave::Model;

/// The worker-team region protocol (`Team` in
/// `crates/parallel/src/team.rs`) over `regions` back-to-back regions.
/// Thread ids `0..workers` are the parked workers, `workers` is the
/// caller. Per region the caller sets `pending`, bumps the generation and
/// notifies the workers' condition variable under the region lock, runs
/// role 0, takes back every worker role not yet claimed (claims it, runs
/// it, decrements `pending`), then waits under the done lock until
/// `pending == 0`. A worker checks the generation under the region lock
/// and, if it has seen it, sleeps (an atomic unlock-and-sleep); otherwise
/// it claims its role — an atomic raise of its slot to the generation,
/// which fails if the slot is already there — and, if it won, runs the
/// role, decrements `pending`, and the last one notifies the caller under
/// the done lock. The bounded spins that precede both sleeps only poll,
/// so they are not modelled: the decision to sleep is always the locked
/// one.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TeamModel {
    /// Published generation (regions opened so far).
    generation: u8,
    /// Regions the caller has joined.
    joined: u8,
    /// Regions to run.
    regions: u8,
    /// Worker roles of the current region not yet finished.
    pending: u8,
    /// Region-lock holder (thread id), if any.
    region_lock: Option<u8>,
    /// Done-lock holder (thread id), if any.
    done_lock: Option<u8>,
    /// Per worker: asleep on the wake condition variable?
    asleep: Vec<bool>,
    /// Is the caller asleep on the done condition variable?
    caller_asleep: bool,
    /// Per worker: last generation seen.
    seen: Vec<u8>,
    /// Per worker: roles run so far, by the worker or by the caller.
    ran: Vec<u8>,
    /// Per worker: the last generation whose role was claimed.
    claimed: Vec<u8>,
    /// The worker role the caller is taking back (index into `claimed`).
    take: u8,
    /// Set when a worker ran a role of a region its caller had joined.
    stale_run: Option<usize>,
    worker_pc: Vec<u8>,
    caller_pc: u8,
    bug: TeamBug,
}

/// The protocol defect a [`TeamModel`] re-introduces, if any.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TeamBug {
    None,
    /// The caller bumps the generation and notifies without the region
    /// lock, so the bump can fall between a worker's locked check and
    /// its sleep.
    WakeWithoutLock,
    /// The last worker notifies the caller without the done lock.
    CompleteWithoutLock,
    /// A woken worker runs its role without claiming it.
    RunWithoutClaim,
}

impl TeamModel {
    /// The shipped protocol: `workers` workers, `regions` regions.
    pub fn correct(workers: u8, regions: u8) -> Self {
        Self::new(workers, regions, TeamBug::None)
    }

    /// The caller opens each region without taking the region lock —
    /// the lost wake-up.
    pub fn wake_without_lock(workers: u8, regions: u8) -> Self {
        Self::new(workers, regions, TeamBug::WakeWithoutLock)
    }

    /// The last worker of a region notifies the caller without taking
    /// the done lock — the lost completion.
    pub fn complete_without_lock(workers: u8, regions: u8) -> Self {
        Self::new(workers, regions, TeamBug::CompleteWithoutLock)
    }

    /// A woken worker runs its role without claiming it, racing the
    /// caller's take-back — the double run.
    pub fn run_without_claim(workers: u8, regions: u8) -> Self {
        Self::new(workers, regions, TeamBug::RunWithoutClaim)
    }

    fn new(workers: u8, regions: u8, bug: TeamBug) -> Self {
        let w = workers as usize;
        Self {
            generation: 0,
            joined: 0,
            regions,
            pending: 0,
            region_lock: None,
            done_lock: None,
            asleep: vec![false; w],
            caller_asleep: false,
            seen: vec![0; w],
            ran: vec![0; w],
            claimed: vec![0; w],
            take: 0,
            stale_run: None,
            worker_pc: vec![0; w],
            caller_pc: 0,
            bug,
        }
    }

    fn caller_id(&self) -> usize {
        self.worker_pc.len()
    }
}

// Worker pcs: 0 = acquire region lock; 1 = locked generation check
// (new → unlock and claim; seen → stay locked for the wait; all regions
// seen → exit); 2 = cv-wait (atomic unlock + sleep); 3 = asleep, wake
// reacquires the region lock; 8 = claim (won → run; lost → back to 0;
// buggy: always run); 4 = run role; 5 = pending.fetch_sub; 6 = acquire
// done lock (or, buggy, notify without it); 7 = notify + unlock;
// 9 = exited.
// Caller pcs: 0 = open the next region (set pending) or finish;
// 1 = acquire region lock (buggy: bump unlocked); 2 = bump + notify +
// unlock (buggy: notify unlocked); 3 = run role 0; 10 = claim worker
// role `take` (won → 11; lost → next role; none left → 4); 11 = run it;
// 12 = pending.fetch_sub, next role; 4 = acquire done lock; 5 = locked
// pending check (zero → unlock and join; else stay locked for the
// wait); 7 = cv-wait (atomic unlock + sleep); 6 = asleep, wake
// reacquires the done lock; 9 = done.
impl Model for TeamModel {
    fn n_threads(&self) -> usize {
        self.worker_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t < self.worker_pc.len() {
            match self.worker_pc[t] {
                0 => self.region_lock.is_none(),
                3 => !self.asleep[t] && self.region_lock.is_none(),
                6 => self.bug == TeamBug::CompleteWithoutLock || self.done_lock.is_none(),
                9 => false,
                _ => true,
            }
        } else {
            match self.caller_pc {
                1 => self.bug == TeamBug::WakeWithoutLock || self.region_lock.is_none(),
                4 => self.done_lock.is_none(),
                6 => !self.caller_asleep && self.done_lock.is_none(),
                9 => false,
                _ => true,
            }
        }
    }

    fn step(&mut self, t: usize) {
        if t < self.worker_pc.len() {
            let me = t as u8;
            match self.worker_pc[t] {
                0 | 3 => {
                    self.region_lock = Some(me);
                    self.worker_pc[t] = 1;
                }
                1 => {
                    if self.generation != self.seen[t] {
                        self.seen[t] = self.generation;
                        self.region_lock = None;
                        self.worker_pc[t] = 8;
                    } else if self.seen[t] == self.regions {
                        self.region_lock = None;
                        self.worker_pc[t] = 9;
                    } else {
                        self.worker_pc[t] = 2;
                    }
                }
                2 => {
                    self.region_lock = None;
                    self.asleep[t] = true;
                    self.worker_pc[t] = 3;
                }
                8 => {
                    if self.bug == TeamBug::RunWithoutClaim {
                        self.worker_pc[t] = 4;
                    } else if self.claimed[t] < self.seen[t] {
                        self.claimed[t] = self.seen[t];
                        self.worker_pc[t] = 4;
                    } else {
                        self.worker_pc[t] = 0;
                    }
                }
                4 => {
                    if self.seen[t] <= self.joined {
                        self.stale_run.get_or_insert(t);
                    }
                    self.ran[t] += 1;
                    self.worker_pc[t] = 5;
                }
                5 => {
                    let was = self.pending;
                    self.pending -= 1;
                    self.worker_pc[t] = if was == 1 { 6 } else { 0 };
                }
                6 => {
                    if self.bug == TeamBug::CompleteWithoutLock {
                        self.caller_asleep = false;
                        self.worker_pc[t] = 0;
                    } else {
                        self.done_lock = Some(me);
                        self.worker_pc[t] = 7;
                    }
                }
                7 => {
                    self.caller_asleep = false;
                    self.done_lock = None;
                    self.worker_pc[t] = 0;
                }
                _ => unreachable!(),
            }
        } else {
            let me = self.caller_id() as u8;
            match self.caller_pc {
                0 => {
                    if self.joined == self.regions {
                        self.caller_pc = 9;
                    } else {
                        self.pending = self.worker_pc.len() as u8;
                        self.caller_pc = 1;
                    }
                }
                1 => {
                    if self.bug == TeamBug::WakeWithoutLock {
                        self.generation += 1;
                    } else {
                        self.region_lock = Some(me);
                    }
                    self.caller_pc = 2;
                }
                2 => {
                    if self.bug != TeamBug::WakeWithoutLock {
                        self.generation += 1;
                        self.region_lock = None;
                    }
                    // notify_all: wakes only the workers already asleep.
                    self.asleep.iter_mut().for_each(|a| *a = false);
                    self.caller_pc = 3;
                }
                3 => self.caller_pc = 10,
                10 => {
                    let w = self.take as usize;
                    if w == self.claimed.len() {
                        self.take = 0;
                        self.caller_pc = 4;
                    } else if self.claimed[w] < self.generation {
                        self.claimed[w] = self.generation;
                        self.caller_pc = 11;
                    } else {
                        self.take += 1;
                    }
                }
                11 => {
                    self.ran[self.take as usize] += 1;
                    self.caller_pc = 12;
                }
                12 => {
                    self.pending -= 1;
                    self.take += 1;
                    self.caller_pc = 10;
                }
                4 | 6 => {
                    self.done_lock = Some(me);
                    self.caller_pc = 5;
                }
                5 => {
                    if self.pending == 0 {
                        self.done_lock = None;
                        self.joined += 1;
                        self.caller_pc = 0;
                    } else {
                        self.caller_pc = 7;
                    }
                }
                7 => {
                    // cv.wait(): atomically release the done lock and sleep.
                    self.done_lock = None;
                    self.caller_asleep = true;
                    self.caller_pc = 6;
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.caller_pc == 9 && self.worker_pc.iter().all(|&pc| pc == 9)
    }

    fn violation(&self) -> Option<String> {
        if let Some(w) = self.ran.iter().position(|&r| r < self.joined) {
            return Some(format!(
                "caller joined region {} before worker {w} ran its role",
                self.joined
            ));
        }
        if let Some(w) = self.ran.iter().position(|&r| r > self.generation) {
            return Some(format!("worker {w}'s role ran twice in one region"));
        }
        if let Some(w) = self.stale_run {
            return Some(format!(
                "worker {w} ran a role of a region its caller had joined"
            ));
        }
        None
    }
}

/// Dynamic-chunk claim protocol of `parallel_for`: `threads` workers
/// repeatedly claim the next item from a shared cursor and write it.
/// Correct claims are one atomic `fetch_add`; the buggy variant splits
/// read and increment, so two workers can claim the same item.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CursorModel {
    cursor: u8,
    items: u8,
    writes: Vec<u8>,
    pc: Vec<u8>,
    local: Vec<u8>,
    buggy: bool,
}

impl CursorModel {
    /// Correct protocol: atomic claim.
    pub fn atomic_claim(threads: u8, items: u8) -> Self {
        Self::new(threads, items, false)
    }

    /// Buggy protocol: the claim is a separate read and write.
    pub fn racy_claim(threads: u8, items: u8) -> Self {
        Self::new(threads, items, true)
    }

    fn new(threads: u8, items: u8, buggy: bool) -> Self {
        Self {
            cursor: 0,
            items,
            writes: vec![0; items as usize],
            pc: vec![0; threads as usize],
            local: vec![0; threads as usize],
            buggy,
        }
    }
}

// Correct pcs: 0 = fetch_add claim (and exit check); 1 = write; done = 9.
// Buggy pcs: 0 = read cursor; 1 = write cursor+1 (and exit check);
// 2 = write item; done = 9.
impl Model for CursorModel {
    fn n_threads(&self) -> usize {
        self.pc.len()
    }

    fn runnable(&self, t: usize) -> bool {
        self.pc[t] != 9
    }

    fn step(&mut self, t: usize) {
        if self.buggy {
            match self.pc[t] {
                0 => {
                    // BUG (part 1): read the cursor…
                    self.local[t] = self.cursor;
                    self.pc[t] = 1;
                }
                1 => {
                    // BUG (part 2): …then bump it in a separate step —
                    // another thread may have claimed the same value in
                    // between.
                    self.cursor = self.local[t] + 1;
                    self.pc[t] = if self.local[t] >= self.items { 9 } else { 2 };
                }
                2 => {
                    self.writes[self.local[t] as usize] += 1;
                    self.pc[t] = 0;
                }
                _ => unreachable!(),
            }
        } else {
            match self.pc[t] {
                0 => {
                    // cursor.fetch_add(1): claim and bump atomically.
                    self.local[t] = self.cursor;
                    self.cursor += 1;
                    self.pc[t] = if self.local[t] >= self.items { 9 } else { 1 };
                }
                1 => {
                    self.writes[self.local[t] as usize] += 1;
                    self.pc[t] = 0;
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.pc.iter().all(|&pc| pc == 9)
    }

    fn violation(&self) -> Option<String> {
        if let Some(i) = self.writes.iter().position(|&w| w > 1) {
            return Some(format!("item {i} written {} times", self.writes[i]));
        }
        if self.done() {
            if let Some(i) = self.writes.iter().position(|&w| w == 0) {
                return Some(format!("item {i} never written"));
            }
        }
        None
    }
}

/// Two threads, two locks. With `consistent_order` both take lock A
/// before lock B; otherwise thread 1 takes them in the opposite order,
/// and the explorer finds the hold-and-wait cycle.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TwoLockModel {
    lock_a: Option<u8>,
    lock_b: Option<u8>,
    pc: [u8; 2],
    consistent: bool,
}

impl TwoLockModel {
    /// Both threads acquire A then B — deadlock-free.
    pub fn consistent_order() -> Self {
        Self {
            lock_a: None,
            lock_b: None,
            pc: [0, 0],
            consistent: true,
        }
    }

    /// Thread 0 takes A→B, thread 1 takes B→A — the classic cycle.
    pub fn opposite_order() -> Self {
        Self {
            lock_a: None,
            lock_b: None,
            pc: [0, 0],
            consistent: false,
        }
    }

    /// Which lock thread `t` acquires at program counter `pc` (0 = first
    /// acquisition, 1 = second).
    fn wants_a(&self, t: usize, pc: u8) -> bool {
        let first_is_a = t == 0 || self.consistent;
        (pc == 0) == first_is_a
    }
}

// pcs: 0 = acquire first lock; 1 = acquire second; 2 = release both;
// 3 = done.
impl Model for TwoLockModel {
    fn n_threads(&self) -> usize {
        2
    }

    fn runnable(&self, t: usize) -> bool {
        match self.pc[t] {
            0 | 1 => {
                if self.wants_a(t, self.pc[t]) {
                    self.lock_a.is_none()
                } else {
                    self.lock_b.is_none()
                }
            }
            2 => true,
            _ => false,
        }
    }

    fn step(&mut self, t: usize) {
        match self.pc[t] {
            0 | 1 => {
                if self.wants_a(t, self.pc[t]) {
                    self.lock_a = Some(t as u8);
                } else {
                    self.lock_b = Some(t as u8);
                }
                self.pc[t] += 1;
            }
            2 => {
                if self.lock_a == Some(t as u8) {
                    self.lock_a = None;
                }
                if self.lock_b == Some(t as u8) {
                    self.lock_b = None;
                }
                self.pc[t] = 3;
            }
            _ => unreachable!(),
        }
    }

    fn done(&self) -> bool {
        self.pc == [3, 3]
    }

    fn violation(&self) -> Option<String> {
        None
    }
}

/// Sharded-queue claim protocol of `sharded_for_each_scratch`:
/// `workers` workers each drain the shard they are homed on
/// (`role % n_shards`) by atomic cursor `fetch_add`, then visit the
/// remaining shards in ring order (`home + 1`, `home + 2`, …) as a
/// stealing fallback. The buggy variant stops after the home shard.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShardModel {
    /// Immutable queue lengths per shard.
    sizes: Vec<u8>,
    /// Per-shard claim cursor (the atomic `fetch_add` target).
    cursors: Vec<u8>,
    /// Per-item claim count, flattened shard-major.
    claims: Vec<u8>,
    /// Per-worker ring offset `d` (the worker is draining shard
    /// `(home + d) % n_shards`); `DONE` when it has exited.
    offset: Vec<u8>,
    /// Re-introduce the no-fallback bug.
    buggy: bool,
}

impl ShardModel {
    const DONE: u8 = u8::MAX;

    /// Correct protocol: home shard first, ring fallback over the rest.
    pub fn correct(workers: u8, sizes: &[u8]) -> Self {
        Self::new(workers, sizes, false)
    }

    /// Buggy protocol: a worker drains only its home shard, so shards
    /// no worker is homed on are never visited.
    pub fn no_cross_shard_fallback(workers: u8, sizes: &[u8]) -> Self {
        Self::new(workers, sizes, true)
    }

    fn new(workers: u8, sizes: &[u8], buggy: bool) -> Self {
        assert!(!sizes.is_empty(), "need at least one shard");
        let items: usize = sizes.iter().map(|&n| n as usize).sum();
        Self {
            sizes: sizes.to_vec(),
            cursors: vec![0; sizes.len()],
            claims: vec![0; items],
            offset: vec![0; workers as usize],
            buggy,
        }
    }

    /// Flattened item index of slot `i` in shard `s`.
    fn flat(&self, s: usize, i: u8) -> usize {
        let before: usize = self.sizes[..s].iter().map(|&n| n as usize).sum();
        before + i as usize
    }

    /// How many shards a worker visits before exiting.
    fn ring_len(&self) -> u8 {
        if self.buggy {
            1
        } else {
            self.sizes.len() as u8
        }
    }
}

// One step is one atomic claim attempt on the current shard: claim-and-
// bump when the queue has items left (the real `fetch_add`), otherwise
// advance to the next ring position or exit.
impl Model for ShardModel {
    fn n_threads(&self) -> usize {
        self.offset.len()
    }

    fn runnable(&self, t: usize) -> bool {
        self.offset[t] != Self::DONE
    }

    fn step(&mut self, t: usize) {
        let n_shards = self.sizes.len();
        let home = t % n_shards;
        let d = self.offset[t];
        let s = (home + d as usize) % n_shards;
        let i = self.cursors[s];
        if i < self.sizes[s] {
            // cursors[s].fetch_add(1): claim slot i atomically.
            self.cursors[s] += 1;
            let idx = self.flat(s, i);
            self.claims[idx] += 1;
        } else {
            // Queue exhausted: move along the ring, or exit.
            self.offset[t] = if d + 1 < self.ring_len() {
                d + 1
            } else {
                Self::DONE
            };
        }
    }

    fn done(&self) -> bool {
        self.offset.iter().all(|&d| d == Self::DONE)
    }

    fn violation(&self) -> Option<String> {
        if let Some(i) = self.claims.iter().position(|&c| c > 1) {
            return Some(format!("item {i} claimed {} times", self.claims[i]));
        }
        if self.done() {
            if let Some(i) = self.claims.iter().position(|&c| c == 0) {
                return Some(format!("item {i} stranded: no worker ever claimed it"));
            }
        }
        None
    }
}

/// Admission-queue coalescing protocol of the serving layer:
/// `producers` producer threads each enqueue one request (and mark
/// themselves finished) under the queue lock, notifying the dispatcher
/// before unlocking; one dispatcher thread drains batches of up to
/// `max_batch` requests, executes each batch outside the lock, then
/// reacquires the lock and rechecks the queue before deciding to wait.
/// Thread ids `0..producers` are producers, `producers` is the
/// dispatcher.
///
/// The modelled wait is the *indefinite* empty-queue wait (the
/// coalescing-window `wait_timeout` only runs when a partial batch is
/// already pending, and a timeout would eventually mask a lost wakeup —
/// the protocol must not need that rescue). Partial batches are
/// implicit: the dispatcher takes `min(queued, max_batch)` whenever the
/// queue is non-empty, which covers both the batch-full and the
/// window-expired dispatch triggers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AdmissionModel {
    /// Requests enqueued and not yet taken into a batch.
    queued: u8,
    /// Requests whose batch has been dispatched (responses filled).
    served: u8,
    /// Requests currently in the in-flight batch (outside the lock).
    in_flight: u8,
    /// Producers that have finished their enqueue.
    producers_done: u8,
    /// Current queue-lock holder (thread id), if any.
    lock: Option<u8>,
    /// Is the dispatcher asleep on the condition variable?
    sleeping: bool,
    /// Per-producer program counter.
    prod_pc: Vec<u8>,
    /// Dispatcher program counter.
    disp_pc: u8,
    /// Batch-size cap `K`.
    max_batch: u8,
    /// Re-introduce the non-atomic (unlock, then sleep) wait.
    buggy: bool,
}

impl AdmissionModel {
    /// Correct protocol: the dispatcher's cv-wait atomically unlocks and
    /// sleeps, and every wait is preceded by a locked recheck.
    pub fn correct(producers: u8, max_batch: u8) -> Self {
        Self::new(producers, max_batch, false)
    }

    /// Buggy protocol: the dispatcher releases the lock and only then
    /// goes to sleep — a notify landing in between is lost.
    pub fn sleep_after_unlock(producers: u8, max_batch: u8) -> Self {
        Self::new(producers, max_batch, true)
    }

    fn new(producers: u8, max_batch: u8, buggy: bool) -> Self {
        assert!(max_batch >= 1, "batch cap must be at least 1");
        Self {
            queued: 0,
            served: 0,
            in_flight: 0,
            producers_done: 0,
            lock: None,
            sleeping: false,
            prod_pc: vec![0; producers as usize],
            disp_pc: 0,
            max_batch,
            buggy,
        }
    }

    fn dispatcher_id(&self) -> usize {
        self.prod_pc.len()
    }

    /// Wake the dispatcher if (and only if) it is currently asleep; a
    /// notify with nobody sleeping is lost, exactly like a real condvar.
    fn notify(&mut self) {
        if self.sleeping {
            self.sleeping = false;
        }
    }
}

// Producer pcs: 0 = acquire lock; 1 = enqueue + notify + unlock;
// 2 = done.
// Dispatcher pcs: 0 = acquire lock; 1 = locked check (take batch /
// exit / wait); 2 = execute batch outside the lock; 3 = asleep (wake
// reacquires the lock); 4 = sleep without the lock (buggy only, the
// lock was released at pc 1); 6 = done.
impl Model for AdmissionModel {
    fn n_threads(&self) -> usize {
        self.prod_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t < self.prod_pc.len() {
            match self.prod_pc[t] {
                0 => self.lock.is_none(),
                1 => true,
                _ => false,
            }
        } else {
            match self.disp_pc {
                0 => self.lock.is_none(),
                1 | 2 | 4 => true,
                // Asleep: only a notify makes the dispatcher runnable
                // again (then it must reacquire the lock).
                3 => !self.sleeping && self.lock.is_none(),
                _ => false,
            }
        }
    }

    fn step(&mut self, t: usize) {
        if t < self.prod_pc.len() {
            match self.prod_pc[t] {
                0 => {
                    self.lock = Some(t as u8);
                    self.prod_pc[t] = 1;
                }
                1 => {
                    // Enqueue, mark this producer finished, and notify —
                    // all under the lock — then unlock.
                    self.queued += 1;
                    self.producers_done += 1;
                    self.notify();
                    self.lock = None;
                    self.prod_pc[t] = 2;
                }
                _ => unreachable!(),
            }
        } else {
            let d = self.dispatcher_id() as u8;
            match self.disp_pc {
                0 | 3 => {
                    self.lock = Some(d);
                    self.disp_pc = 1;
                }
                1 => {
                    if self.queued > 0 {
                        // Coalesce up to `max_batch` requests and leave
                        // the lock to execute them.
                        let take = self.queued.min(self.max_batch);
                        self.queued -= take;
                        self.in_flight = take;
                        self.lock = None;
                        self.disp_pc = 2;
                    } else if self.producers_done as usize == self.prod_pc.len() {
                        self.lock = None;
                        self.disp_pc = 6;
                    } else if self.buggy {
                        // BUG (part 1): release the lock first…
                        self.lock = None;
                        self.disp_pc = 4;
                    } else {
                        // cv.wait(): atomically unlock and sleep.
                        self.lock = None;
                        self.sleeping = true;
                        self.disp_pc = 3;
                    }
                }
                2 => {
                    // Execute the batch outside the lock, then loop back
                    // to reacquire and recheck — arrivals that landed
                    // during execution are found there, never waited
                    // past.
                    self.served += self.in_flight;
                    self.in_flight = 0;
                    self.disp_pc = 0;
                }
                4 => {
                    // BUG (part 2): …then sleep in a separate step. A
                    // notify arriving in between found nobody sleeping
                    // and was lost.
                    self.sleeping = true;
                    self.disp_pc = 3;
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.disp_pc == 6 && self.prod_pc.iter().all(|&pc| pc == 2)
    }

    fn violation(&self) -> Option<String> {
        if self.disp_pc == 6 {
            if self.queued > 0 || self.in_flight > 0 {
                return Some(format!(
                    "dispatcher exited with {} queued + {} in-flight requests",
                    self.queued, self.in_flight
                ));
            }
            if self.served != self.producers_done {
                return Some(format!(
                    "{} requests enqueued but {} served",
                    self.producers_done, self.served
                ));
            }
        }
        None
    }
}

/// Online-refinement publish protocol (`refiner_loop` feeding
/// `PlanCache::swap`): version 0 is the incumbent plan (verified before
/// it was ever cached), version 1 the refiner's candidate. The refiner
/// builds the candidate, verifies it, then publishes it by swapping the
/// shared slot; each executor performs two lookup-execute rounds — load
/// the slot's current version (one atomic step, the cache's read-locked
/// hit), then execute what it loaded (so a round that straddles the
/// swap keeps running its own version, like an execute holding its
/// `Arc`). The safety property: **no executor ever runs an unverified
/// version**. The buggy variant swaps publish and verify.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RefineModel {
    /// The published slot: the version a fresh lookup receives.
    slot: u8,
    /// Has version `v` passed verification? Index 0 = incumbent
    /// (verified from the start), 1 = candidate.
    verified: [bool; 2],
    /// Per-executor pc: even = load the slot, odd = execute the loaded
    /// version; `2 * ROUNDS` = done.
    exec_pc: Vec<u8>,
    /// Per-executor loaded version.
    loaded: Vec<u8>,
    /// Refiner pc: 0 = build, 1..=2 = verify/publish (order is the bug
    /// toggle), 3 = done.
    ref_pc: u8,
    /// First unverified execution observed, as `(executor, version)`.
    bad_exec: Option<(u8, u8)>,
    /// Re-introduce the publish-before-verify bug.
    buggy: bool,
}

/// Lookup-execute rounds per executor: two, so one executor can run the
/// incumbent while another runs the freshly published candidate.
const REFINE_ROUNDS: u8 = 2;

impl RefineModel {
    /// Correct protocol: the candidate is verified before it is
    /// published.
    pub fn correct(executors: u8) -> Self {
        Self::new(executors, false)
    }

    /// Buggy protocol: the candidate is published first and verified
    /// after — executors can run it unverified.
    pub fn publish_before_verify(executors: u8) -> Self {
        Self::new(executors, true)
    }

    fn new(executors: u8, buggy: bool) -> Self {
        assert!((1..=4).contains(&executors), "1..=4 executors");
        Self {
            slot: 0,
            verified: [true, false],
            exec_pc: vec![0; executors as usize],
            loaded: vec![0; executors as usize],
            ref_pc: 0,
            bad_exec: None,
            buggy,
        }
    }
}

impl Model for RefineModel {
    fn n_threads(&self) -> usize {
        self.exec_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t < self.exec_pc.len() {
            self.exec_pc[t] < 2 * REFINE_ROUNDS
        } else {
            self.ref_pc < 3
        }
    }

    fn step(&mut self, t: usize) {
        if t < self.exec_pc.len() {
            if self.exec_pc[t].is_multiple_of(2) {
                // Lookup: load whatever the slot currently publishes.
                self.loaded[t] = self.slot;
            } else {
                // Execute the version this round loaded.
                let v = self.loaded[t];
                if !self.verified[v as usize] && self.bad_exec.is_none() {
                    self.bad_exec = Some((t as u8, v));
                }
            }
            self.exec_pc[t] += 1;
        } else {
            match (self.ref_pc, self.buggy) {
                // Build the candidate (exists, unverified, unpublished).
                (0, _) => {}
                // Correct: verify, then publish.
                (1, false) => self.verified[1] = true,
                (2, false) => self.slot = 1,
                // BUG: publish first, verify after.
                (1, true) => self.slot = 1,
                (2, true) => self.verified[1] = true,
                _ => unreachable!(),
            }
            self.ref_pc += 1;
        }
    }

    fn done(&self) -> bool {
        self.ref_pc == 3 && self.exec_pc.iter().all(|&pc| pc == 2 * REFINE_ROUNDS)
    }

    fn violation(&self) -> Option<String> {
        if let Some((e, v)) = self.bad_exec {
            return Some(format!(
                "executor {e} ran plan version {v} before it was verified"
            ));
        }
        if self.done() && self.slot == 1 && !self.verified[1] {
            return Some("unverified candidate left published".into());
        }
        None
    }
}

/// Barrier-stepped level-solve protocol of `stepped_for_each`: a fixed
/// two-level schedule over four rows — level 0 is rows {0, 1} (no
/// dependencies), level 1 is rows {2, 3} where row 2 reads row 1 and
/// row 3 reads row 0. Row `i` of a level is owned by worker
/// `i % workers`, so with two or more workers every level-1 row depends
/// on a row *another* worker writes — exactly the cross-worker edge the
/// barrier must order. Each worker writes its level-0 rows, arrives at
/// the barrier, waits for everyone, then executes its level-1 rows
/// (reading the dependency, then writing the row). The buggy variant
/// arrives but does not wait.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LevelModel {
    /// Has row `r` been written yet?
    written: [bool; 4],
    /// Barrier arrival counter.
    arrived: u8,
    /// Per-worker stage: 0 = write level-0 rows, 1 = barrier arrive,
    /// 2 = barrier wait, 3 = execute level-1 rows, 4 = done.
    pc: Vec<u8>,
    /// Per-worker cursor into its owned rows of the current level.
    k: Vec<u8>,
    /// First read of an unwritten dependency, as `(row, dep)`.
    bad_read: Option<(u8, u8)>,
    /// Re-introduce the skipped-barrier bug.
    buggy: bool,
}

/// `(row, dependency)` per level-1 row: row 2 reads row 1, row 3 reads
/// row 0.
const LEVEL1_DEPS: [(u8, u8); 2] = [(2, 1), (3, 0)];

impl LevelModel {
    /// Correct protocol: every worker waits at the barrier between
    /// levels.
    pub fn correct(workers: u8) -> Self {
        Self::new(workers, false)
    }

    /// Buggy protocol: workers arrive at the barrier but proceed
    /// without waiting — level-1 reads can beat level-0 writes.
    pub fn skipped_barrier(workers: u8) -> Self {
        Self::new(workers, true)
    }

    fn new(workers: u8, buggy: bool) -> Self {
        assert!((1..=4).contains(&workers), "1..=4 workers");
        Self {
            written: [false; 4],
            arrived: 0,
            pc: vec![0; workers as usize],
            k: vec![0; workers as usize],
            bad_read: None,
            buggy,
        }
    }

    /// Rows of level `level` owned by worker `t` (row `i % workers`).
    fn owned(&self, t: usize, level: usize) -> Vec<u8> {
        let rows: [u8; 2] = if level == 0 { [0, 1] } else { [2, 3] };
        rows.iter()
            .enumerate()
            .filter(|(i, _)| i % self.pc.len() == t)
            .map(|(_, &r)| r)
            .collect()
    }
}

impl Model for LevelModel {
    fn n_threads(&self) -> usize {
        self.pc.len()
    }

    fn runnable(&self, t: usize) -> bool {
        match self.pc[t] {
            // The barrier wait blocks until everyone has arrived.
            2 => self.arrived as usize == self.pc.len(),
            4 => false,
            _ => true,
        }
    }

    fn step(&mut self, t: usize) {
        match self.pc[t] {
            0 => {
                let owned = self.owned(t, 0);
                if let Some(&r) = owned.get(self.k[t] as usize) {
                    self.written[r as usize] = true;
                    self.k[t] += 1;
                }
                if self.k[t] as usize >= owned.len() {
                    self.pc[t] = 1;
                }
            }
            1 => {
                // Barrier arrival (the atomic part every variant keeps).
                self.arrived += 1;
                self.k[t] = 0;
                // BUG toggle: the buggy worker does not wait for the
                // others before starting the next level.
                self.pc[t] = if self.buggy { 3 } else { 2 };
            }
            2 => {
                self.pc[t] = 3;
            }
            3 => {
                let owned = self.owned(t, 1);
                if let Some(&r) = owned.get(self.k[t] as usize) {
                    let (row, dep) = LEVEL1_DEPS[(r - 2) as usize];
                    if !self.written[dep as usize] && self.bad_read.is_none() {
                        self.bad_read = Some((row, dep));
                    }
                    self.written[r as usize] = true;
                    self.k[t] += 1;
                }
                if self.k[t] as usize >= owned.len() {
                    self.pc[t] = 4;
                }
            }
            _ => unreachable!(),
        }
    }

    fn done(&self) -> bool {
        self.pc.iter().all(|&pc| pc == 4)
    }

    fn violation(&self) -> Option<String> {
        if let Some((row, dep)) = self.bad_read {
            return Some(format!("row {row} read row {dep} before it was written"));
        }
        if self.done() {
            if let Some(r) = self.written.iter().position(|&w| !w) {
                return Some(format!("row {r} never written"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{explore, Verdict};

    const BUDGET: usize = 200_000;

    #[test]
    fn team_protocol_is_sound() {
        for workers in 1..=3 {
            let v = explore(TeamModel::correct(workers, 2), BUDGET);
            assert!(v.passed(), "workers={workers}: {v}");
        }
    }

    #[test]
    fn unlocked_team_notifies_lose_the_wakeup() {
        for model in [
            TeamModel::wake_without_lock(1, 2),
            TeamModel::complete_without_lock(1, 1),
        ] {
            let v = explore(model, BUDGET);
            assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
        }
    }

    #[test]
    fn unclaimed_worker_role_runs_twice() {
        for workers in 1..=2 {
            let v = explore(TeamModel::run_without_claim(workers, 1), BUDGET);
            match v {
                Verdict::Violation { message, .. } => {
                    assert!(message.contains("twice"), "unexpected message {message}");
                }
                other => panic!("workers={workers}: expected a violation, got {other}"),
            }
        }
    }

    #[test]
    fn atomic_cursor_claim_is_sound() {
        let v = explore(CursorModel::atomic_claim(2, 3), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn racy_cursor_claim_double_writes() {
        let v = explore(CursorModel::racy_claim(2, 2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(message.contains("written"), "unexpected message {message}");
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn shard_claim_protocol_is_sound() {
        // Workers × shard shapes covering: balanced, empty shard,
        // one-item shard, and more shards than workers.
        let configs: [(u8, &[u8]); 4] = [
            (1, &[2, 2]),
            (2, &[2, 0, 1]),
            (2, &[1, 1, 1, 1]),
            (3, &[2, 1]),
        ];
        for (workers, sizes) in configs {
            let v = explore(ShardModel::correct(workers, sizes), BUDGET);
            assert!(v.passed(), "workers={workers}, sizes={sizes:?}: {v}");
        }
    }

    #[test]
    fn dropping_the_ring_fallback_strands_items() {
        // Two workers homed on shards 0 and 1; shard 2 has items only
        // the ring fallback would reach.
        let v = explore(ShardModel::no_cross_shard_fallback(2, &[1, 1, 1]), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(message.contains("stranded"), "unexpected message {message}");
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn barrier_stepped_levels_are_sound() {
        for workers in 1..=3 {
            let v = explore(LevelModel::correct(workers), BUDGET);
            assert!(v.passed(), "workers={workers}: {v}");
        }
    }

    #[test]
    fn skipping_the_barrier_races_a_dependency_read() {
        let v = explore(LevelModel::skipped_barrier(2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(
                    message.contains("before it was written"),
                    "unexpected message {message}"
                );
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn one_worker_needs_no_barrier() {
        // A single worker executes levels in program order: even the
        // buggy variant cannot race with itself.
        let v = explore(LevelModel::skipped_barrier(1), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn admission_protocol_is_sound() {
        // Producers × batch caps covering: serial admission, coalesced
        // full batches, partial batches (more producers than the cap
        // forces multiple dispatches; a cap above the producer count
        // forces a partial one).
        for producers in 1..=3u8 {
            for max_batch in [1, 2, 8] {
                let v = explore(AdmissionModel::correct(producers, max_batch), BUDGET);
                assert!(v.passed(), "producers={producers}, k={max_batch}: {v}");
            }
        }
    }

    #[test]
    fn sleeping_after_unlock_loses_an_arrival() {
        let v = explore(AdmissionModel::sleep_after_unlock(2, 8), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }

    #[test]
    fn even_one_producer_can_slip_the_non_atomic_wait() {
        // Dispatcher checks the empty queue, unlocks; the lone producer
        // enqueues and notifies into the gap; the dispatcher then sleeps
        // forever on a request that is already there.
        let v = explore(AdmissionModel::sleep_after_unlock(1, 1), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }

    #[test]
    fn refine_publish_protocol_is_sound() {
        for executors in 1..=3 {
            let v = explore(RefineModel::correct(executors), BUDGET);
            assert!(v.passed(), "executors={executors}: {v}");
        }
    }

    #[test]
    fn publishing_before_verifying_runs_an_unverified_plan() {
        let v = explore(RefineModel::publish_before_verify(2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(
                    message.contains("before it was verified"),
                    "unexpected message {message}"
                );
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn even_one_executor_can_catch_the_unverified_publish() {
        let v = explore(RefineModel::publish_before_verify(1), BUDGET);
        assert!(matches!(v, Verdict::Violation { .. }), "got {v}");
    }

    #[test]
    fn consistent_lock_order_passes() {
        let v = explore(TwoLockModel::consistent_order(), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn opposite_lock_order_deadlocks() {
        let v = explore(TwoLockModel::opposite_order(), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }
}
