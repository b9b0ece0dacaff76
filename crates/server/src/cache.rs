//! Sharded concurrent plan cache with single-flight builds.
//!
//! Plan compilation is the expensive half of the plan/execute split
//! (~150× an execute for suite-scale matrices), and a serving process
//! replays it for every tenant that names the same matrix. The cache
//! keys verified plans by **structural identity** — core's
//! [`StructureKey`] (the row-pointer fingerprint plus a hash of
//! `col_idx`) and the [`PlanConfigKey`] of the compile configuration.
//! Computing that identity reads the whole structure, O(m + nnz), so it
//! is a value of its own, [`PlanIdentity`]: an owner that looks the same
//! matrix up many times (the server's registry) computes it once and
//! calls [`PlanCache::get_or_build_keyed`], which on a hit costs one
//! shard read lock and a hash-map probe. [`PlanCache::get_or_build`] computes
//! the identity per call, for one-off lookups.
//!
//! Three properties the serving layer leans on:
//!
//! * **Hits never take an exclusive lock.** The read path is a shard
//!   `RwLock` read guard plus one relaxed atomic store for the LRU
//!   stamp; concurrent hits on one shard proceed in parallel, and hits
//!   on different shards share nothing at all.
//! * **Concurrent misses build once.** The first miss installs a
//!   [`Flight`] slot and compiles outside every map lock; later misses
//!   for the same key block on the flight's condvar and receive the
//!   same `Arc`'d plan (or the same build error). N tenants cold-hitting
//!   one matrix cost one compile, not N.
//! * **A key match is confirmed, never trusted.** The key covers both
//!   `row_ptr` and `col_idx`, so matrices that share row lengths but
//!   not columns (regular stencils, same-degree graphs) hold separate
//!   entries. Its FNV-1a hashes are forgeable (two chosen arrays can
//!   collide; see the regression test), so each entry also stores the
//!   independent [`StructureKey::confirm_of`] checksum, and a hit must
//!   present the same one. A mismatch is treated as a miss and counted
//!   in [`CacheStats::collisions`]; the cache never returns a plan for a
//!   structurally different matrix, it only ever rebuilds.
//!
//! Capacity is bounded per shard (`capacity / shards`, min 1): when an
//! insert overflows a shard, eviction is **cost-aware**, not pure LRU.
//! Each Ready entry remembers the wall time its build actually took,
//! and the victim is the entry minimising `build_ns / (age + 1)` (age
//! in LRU ticks) — the one that is cheapest to get back per tick of
//! disuse. Equal-cost entries degrade to exact LRU; an expensive plan
//! (a large matrix's multi-second compile-and-verify) survives a scan
//! of cheap one-shot plans that would have flushed it under pure
//! recency. In-flight builds are never evicted.
//!
//! The cache is also the **publication point for online refinement**:
//! [`PlanCache::swap`] atomically replaces a Ready entry with a faster
//! plan compiled for the *same structure and confirm checksum* under the
//! *same key*, so tenants that keep requesting the original
//! configuration transparently receive the refined plan. Readers are
//! never disturbed: in-flight executes hold their own `Arc` to the old
//! plan and finish on it; the swap only redirects future lookups. Both
//! sides of a swap are [`VerifiedPlan`]s for one structure, so results
//! stay bit-for-bit identical across the transition.

use spmv_autotune::{PlanConfig, PlanConfigKey, StructureKey, VerifiedPlan};
use spmv_sparse::{CsrMatrix, Scalar};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The full cache key: what the plan was compiled *for* (the sparsity
/// structure) and *with* (the frozen configuration).
pub type PlanKey = (StructureKey, PlanConfigKey);

/// Everything a lookup needs to find and confirm a matrix's plan: the
/// cache key plus the independent confirm checksum
/// ([`StructureKey::confirm_of`]).
/// O(m + nnz) to compute, so a long-lived owner of the matrix (the
/// server's registry) computes it once and looks up by it in O(1);
/// value-only updates keep it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanIdentity {
    /// The cache key.
    pub key: PlanKey,
    /// The confirm checksum every hit must match.
    pub confirm: u64,
}

impl PlanIdentity {
    /// The identity of `a`'s plan under `config`.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>, config: &PlanConfig) -> Self {
        Self {
            key: (StructureKey::of(a), config.cache_key()),
            confirm: StructureKey::confirm_of(a),
        }
    }
}

/// Why a cache lookup failed: the only failure mode is the builder
/// itself (compile/verify) failing — every waiter of a single-flight
/// build receives the same error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Plan compilation or verification failed; the rendered cause.
    Build(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Build(msg) => write!(f, "plan build failed: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Cache sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Independent `RwLock`-protected map shards (contention domains).
    pub shards: usize,
    /// Total Ready-entry capacity across all shards (bounded per shard
    /// at `capacity / shards`, minimum one entry per shard).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            capacity: 64,
        }
    }
}

/// Counter snapshot taken by [`PlanCache::stats`]. Counters are
/// monotone; one of `hits`/`misses` is incremented per resolved lookup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a Ready entry (confirm checksum matched).
    pub hits: u64,
    /// Lookups that required a build (own or joined).
    pub misses: u64,
    /// Builder invocations (single-flight keeps this below `misses`
    /// under concurrency).
    pub builds: u64,
    /// Misses resolved by joining another thread's in-flight build.
    pub joined_builds: u64,
    /// Ready entries evicted by the cost-aware capacity bound.
    pub evictions: u64,
    /// Fingerprint matches rejected by the confirm checksum — each one
    /// is a would-have-been wrong-plan reuse the secondary hash caught.
    pub collisions: u64,
    /// Refined plans published over an incumbent via
    /// [`PlanCache::swap`].
    pub swaps: u64,
}

impl CacheStats {
    /// Total resolved lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `hits / lookups` (1.0 for an idle cache, so repeat-traffic gates
    /// read naturally).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A cached verified plan plus the evidence needed to reuse it safely.
struct Entry<T: Scalar> {
    plan: Arc<VerifiedPlan<T>>,
    /// [`StructureKey::confirm_of`] the matrix the plan was built against.
    confirm: u64,
    /// LRU stamp: the global tick at last use (relaxed store on hit).
    last_used: AtomicU64,
    /// Measured wall time of the build that produced this entry — the
    /// rebuild cost the eviction score protects.
    build_ns: u64,
}

/// Single-flight rendezvous: the building thread publishes here, every
/// concurrent miss for the same key blocks on `cv` until it does.
struct Flight<T: Scalar> {
    slot: Mutex<Option<Result<Arc<Entry<T>>, CacheError>>>,
    cv: Condvar,
}

impl<T: Scalar> Flight<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<Arc<Entry<T>>, CacheError>) {
        let mut slot = self.slot.lock().unwrap();
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<Entry<T>>, CacheError> {
        let mut slot = self.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }
}

enum SlotState<T: Scalar> {
    Ready(Arc<Entry<T>>),
    Building(Arc<Flight<T>>),
}

/// Sharded, single-flight, LRU-bounded cache of [`VerifiedPlan`]s. See
/// the module docs for the contract.
pub struct PlanCache<T: Scalar> {
    shards: Vec<RwLock<HashMap<PlanKey, SlotState<T>>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    joined_builds: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    swaps: AtomicU64,
}

impl<T: Scalar> PlanCache<T> {
    /// An empty cache sized by `config` (shards and capacity clamped to
    /// at least 1).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            per_shard_capacity: (config.capacity.max(1) / shards).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            joined_builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// The plan for `(a, config)`: a confirmed hit when cached, else a
    /// single-flight `build()`. The builder runs outside every cache
    /// lock; its error (if any) is delivered to every waiter of the
    /// flight. Computes `a`'s [`PlanIdentity`] first, an O(m + nnz) pass;
    /// callers that look the same matrix up repeatedly should compute the
    /// identity once and call [`get_or_build_keyed`](Self::get_or_build_keyed).
    pub fn get_or_build(
        &self,
        a: &CsrMatrix<T>,
        config: &PlanConfig,
        build: impl FnOnce() -> Result<VerifiedPlan<T>, CacheError>,
    ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
        let id = PlanIdentity::of(a, config);
        self.get_or_build_keyed(id.key, id.confirm, build)
    }

    /// [`get_or_build`](Self::get_or_build) with the key and confirm
    /// checksum precomputed (a stored [`PlanIdentity`]): O(1) on a hit.
    /// The caller vouches that `key` and `confirm` were computed from the
    /// matrix `build` compiles for. A Ready entry under the same key with
    /// a different confirm checksum is a collision: it is rebuilt, never
    /// shared.
    pub fn get_or_build_keyed(
        &self,
        key: PlanKey,
        confirm: u64,
        build: impl FnOnce() -> Result<VerifiedPlan<T>, CacheError>,
    ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
        let mut build = Some(build);
        let shard = &self.shards[self.shard_index(&key)];
        loop {
            // Fast path: shared lock, relaxed LRU stamp, no writes.
            {
                let map = shard.read().unwrap();
                if let Some(SlotState::Ready(e)) = map.get(&key) {
                    if e.confirm == confirm {
                        self.touch(e);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(&e.plan));
                    }
                    // Confirm mismatch: fall through to the slow path,
                    // which replaces the entry under the write lock.
                }
            }

            enum Action<T: Scalar> {
                Build(Arc<Flight<T>>),
                Join(Arc<Flight<T>>),
            }
            let action = {
                let mut map = shard.write().unwrap();
                match map.get(&key) {
                    Some(SlotState::Ready(e)) if e.confirm == confirm => {
                        // Raced another thread's insert between the two
                        // locks — a hit after all.
                        self.touch(e);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(&e.plan));
                    }
                    Some(SlotState::Ready(_)) => {
                        // Fingerprint collision caught by the confirm
                        // checksum: never reuse; rebuild for the probing
                        // matrix (the slot is replaced, not shared).
                        self.collisions.fetch_add(1, Ordering::Relaxed);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        map.insert(key, SlotState::Building(Arc::clone(&flight)));
                        Action::Build(flight)
                    }
                    Some(SlotState::Building(f)) => Action::Join(Arc::clone(f)),
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        map.insert(key, SlotState::Building(Arc::clone(&flight)));
                        Action::Build(flight)
                    }
                }
            };

            match action {
                Action::Build(flight) => {
                    let builder = build.take().expect("builder runs at most once");
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    let started = std::time::Instant::now();
                    let result = builder();
                    let build_ns = started.elapsed().as_nanos() as u64;
                    let mut map = shard.write().unwrap();
                    return match result {
                        Ok(plan) => {
                            let entry = Arc::new(Entry {
                                plan: Arc::new(plan),
                                confirm,
                                last_used: AtomicU64::new(self.next_tick()),
                                build_ns,
                            });
                            map.insert(key, SlotState::Ready(Arc::clone(&entry)));
                            self.evict_over_capacity(&mut map, &key);
                            drop(map);
                            flight.resolve(Ok(Arc::clone(&entry)));
                            Ok(Arc::clone(&entry.plan))
                        }
                        Err(e) => {
                            // Failed builds leave no tombstone: the next
                            // lookup retries from scratch.
                            map.remove(&key);
                            drop(map);
                            flight.resolve(Err(e.clone()));
                            Err(e)
                        }
                    };
                }
                Action::Join(flight) => {
                    match flight.wait() {
                        Ok(e) if e.confirm == confirm => {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            self.joined_builds.fetch_add(1, Ordering::Relaxed);
                            self.touch(&e);
                            return Ok(Arc::clone(&e.plan));
                        }
                        Ok(_) => {
                            // Joined a build for a colliding (different)
                            // structure: loop — the Ready slot's confirm
                            // mismatch routes us to a fresh build.
                            self.collisions.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Atomically publish a refined `plan` over the slot at `key`: the
    /// refinement layer's swap point. Future lookups for `key` with the
    /// same `confirm` checksum receive `plan`; executes already running
    /// on the incumbent hold their own `Arc` and finish undisturbed.
    ///
    /// The caller must guarantee `plan` is verified **for the same
    /// matrix structure** the slot serves — same structure key (the
    /// first half of `key`) and same `confirm` checksum — which is what
    /// makes the swap response-invariant: both sides write bit-identical
    /// outputs for every input. `build_ns` is the measured cost of
    /// producing the replacement (it becomes the entry's rebuild cost
    /// for eviction scoring). The plan's telemetry is reset so the
    /// replacement earns its own execute history.
    ///
    /// Returns `false` without publishing when the slot currently holds
    /// an in-flight build (never race a builder; the refiner retries on
    /// its next pass). Publishes and returns `true` when the slot is
    /// Ready or empty.
    pub fn swap(
        &self,
        key: PlanKey,
        confirm: u64,
        build_ns: u64,
        plan: Arc<VerifiedPlan<T>>,
    ) -> bool {
        debug_assert_eq!(
            plan.fingerprint(),
            &key.0.pattern,
            "swapped plan must match the slot's pattern"
        );
        let shard = &self.shards[self.shard_index(&key)];
        let mut map = shard.write().unwrap();
        if let Some(SlotState::Building(_)) = map.get(&key) {
            return false;
        }
        plan.telemetry().reset_measurements();
        let entry = Arc::new(Entry {
            plan,
            confirm,
            last_used: AtomicU64::new(self.next_tick()),
            build_ns,
        });
        map.insert(key, SlotState::Ready(entry));
        self.evict_over_capacity(&mut map, &key);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Visit every Ready entry as `(key, confirm, plan)` — the
    /// refinement layer's scan surface. Shards are visited under their
    /// read lock, so `f` must not call back into the cache (collect
    /// candidates, drop out of the scan, then act).
    pub fn for_each_ready(&self, mut f: impl FnMut(&PlanKey, u64, &Arc<VerifiedPlan<T>>)) {
        for shard in &self.shards {
            let map = shard.read().unwrap();
            for (k, v) in map.iter() {
                if let SlotState::Ready(e) = v {
                    f(k, e.confirm, &e.plan);
                }
            }
        }
    }

    /// Counter snapshot (relaxed loads; exact once concurrent lookups
    /// quiesce).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            joined_builds: self.joined_builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
        }
    }

    /// Ready entries currently cached (excludes in-flight builds).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .filter(|v| matches!(v, SlotState::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// No Ready entries cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, key: &PlanKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn touch(&self, e: &Entry<T>) {
        e.last_used.store(self.next_tick(), Ordering::Relaxed);
    }

    /// Evict Ready entries until the shard is back under its capacity,
    /// by lowest **retention score** `build_ns / (age + 1)`: the score
    /// is what a tick of keeping the entry around is worth in avoided
    /// rebuild time, so the victim is the entry cheapest to reacquire
    /// per tick of disuse. Equal costs degrade to exact LRU (oldest
    /// stamp first); ties break on the older stamp, so eviction is
    /// deterministic. `keep` (the just-inserted key) is exempt so an
    /// insert can never evict itself.
    fn evict_over_capacity(&self, map: &mut HashMap<PlanKey, SlotState<T>>, keep: &PlanKey) {
        loop {
            let ready = map
                .iter()
                .filter(|(_, v)| matches!(v, SlotState::Ready(_)))
                .count();
            if ready <= self.per_shard_capacity {
                return;
            }
            let now = self.tick.load(Ordering::Relaxed);
            let victim = map
                .iter()
                .filter_map(|(k, v)| match v {
                    SlotState::Ready(e) if k != keep => {
                        let stamp = e.last_used.load(Ordering::Relaxed);
                        let age = now.saturating_sub(stamp);
                        let score = e.build_ns as f64 / (age + 1) as f64;
                        Some((*k, score, stamp))
                    }
                    _ => None,
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                .map(|(k, _, _)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Only the just-inserted entry remains: capacity 1 per
                // shard holds it.
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_autotune::{
        confirm_words, BinningScheme, KernelId, NativeCpuBackend, PatternFingerprint, PlanConfig,
        SpmvPlan, Strategy,
    };
    use spmv_sparse::gen;
    use std::sync::atomic::AtomicUsize;

    fn compile(a: &CsrMatrix<f64>) -> Result<VerifiedPlan<f64>, CacheError> {
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        };
        SpmvPlan::compile_with(
            a,
            strategy,
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(a)
        .map_err(|e| CacheError::Build(e.to_string()))
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 1);
        let cfg = PlanConfig::default();
        let p1 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        let p2 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_config_is_a_different_entry() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 1);
        let cfg = PlanConfig::default();
        let packed_off = PlanConfig { pack: false, ..cfg };
        let p1 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        let p2 = cache.get_or_build(&a, &packed_off, || compile(&a)).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_misses_build_once() {
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let a = Arc::new(gen::random_uniform::<f64>(500, 500, 2, 8, 3));
        let cfg = PlanConfig::default();
        let built = Arc::new(AtomicUsize::new(0));
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let a = Arc::clone(&a);
                    let built = Arc::clone(&built);
                    s.spawn(move || {
                        cache
                            .get_or_build(&a, &cfg, || {
                                built.fetch_add(1, Ordering::SeqCst);
                                compile(&a)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(built.load(Ordering::SeqCst), 1, "single-flight violated");
        assert!(plans.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let s = cache.stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.lookups(), 8);
    }

    /// Build with the measured cost pinned well above compile noise, so
    /// the cost-aware eviction score degrades to exact LRU between
    /// entries (equal costs ⇒ oldest stamp loses) and the test stays
    /// deterministic on a loaded runner.
    fn compile_flat_cost(a: &CsrMatrix<f64>) -> Result<VerifiedPlan<f64>, CacheError> {
        std::thread::sleep(std::time::Duration::from_millis(20));
        compile(a)
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        let cfg = PlanConfig::default();
        let mats: Vec<_> = (1..=3)
            .map(|seed| gen::random_uniform::<f64>(200 + seed, 200, 1, 4, seed as u64))
            .collect();
        cache
            .get_or_build(&mats[0], &cfg, || compile_flat_cost(&mats[0]))
            .unwrap();
        cache
            .get_or_build(&mats[1], &cfg, || compile_flat_cost(&mats[1]))
            .unwrap();
        // Touch matrix 0 so matrix 1 is the LRU victim.
        cache
            .get_or_build(&mats[0], &cfg, || compile_flat_cost(&mats[0]))
            .unwrap();
        cache
            .get_or_build(&mats[2], &cfg, || compile_flat_cost(&mats[2]))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Matrix 0 survived (hit); matrix 1 was evicted (miss + build).
        let before = cache.stats().builds;
        cache
            .get_or_build(&mats[0], &cfg, || compile(&mats[0]))
            .unwrap();
        assert_eq!(cache.stats().builds, before);
        cache
            .get_or_build(&mats[1], &cfg, || compile(&mats[1]))
            .unwrap();
        assert_eq!(cache.stats().builds, before + 1);
    }

    #[test]
    fn build_errors_reach_the_caller_and_leave_no_tombstone() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(100, 100, 1, 3, 9);
        let cfg = PlanConfig::default();
        let err = cache
            .get_or_build(&a, &cfg, || Err(CacheError::Build("boom".into())))
            .unwrap_err();
        assert_eq!(err, CacheError::Build("boom".into()));
        assert_eq!(cache.len(), 0);
        // The next lookup retries and can succeed.
        cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    /// The satellite regression test: FNV-1a row-pointer collisions are
    /// *forgeable*, and the confirm checksum is what stops a forged (or
    /// astronomically unlucky) collision from reusing the wrong plan.
    #[test]
    fn forged_fnv_collision_cannot_reuse_a_plan() {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let fnv = |xs: &[u64]| xs.iter().fold(BASIS, |h, &x| (h ^ x).wrapping_mul(PRIME));
        // Forge two distinct 4-element "row pointer" arrays with equal
        // FNV-1a: fix positions 0 and 3, pick a1 != b1, solve for b2.
        // One multiply-xor step is a bijection, so the construction is
        // exact, not probabilistic.
        let (a1, a2, b1) = (17u64, 29u64, 40_000u64);
        // h after absorbing position 0 (row_ptr[0] is always 0, and
        // `x ^ 0 == x`).
        let h1 = BASIS.wrapping_mul(PRIME);
        let b2 = a2 ^ (h1 ^ a1).wrapping_mul(PRIME) ^ (h1 ^ b1).wrapping_mul(PRIME);
        let forged_a = [0u64, a1, a2, 1000];
        let forged_b = [0u64, b1, b2, 1000];
        assert_ne!(forged_a, forged_b);
        assert_eq!(fnv(&forged_a), fnv(&forged_b), "forgery must collide");
        // The independent confirm checksum separates them.
        let (ca, cb) = (confirm_words(forged_a), confirm_words(forged_b));
        assert_ne!(ca, cb, "confirm checksum must separate the forgery");

        // Cache layer: two structurally different matrices whose full
        // PlanKey (adversarially) coincides must never share a plan.
        // The keyed entry point injects the forged situation — a real
        // `CsrMatrix` pair with colliding *valid* row pointers cannot be
        // constructed, which is part of the defense in depth, but the
        // cache must not rely on it.
        let cache = PlanCache::<f64>::new(CacheConfig::default());
        let ma = gen::random_uniform::<f64>(120, 120, 1, 4, 5);
        let mb = gen::random_uniform::<f64>(120, 120, 2, 6, 6);
        assert_ne!(
            PatternFingerprint::of(&ma),
            PatternFingerprint::of(&mb),
            "distinct test matrices"
        );
        let shared_key = (StructureKey::of(&ma), PlanConfig::default().cache_key());
        let p_a = cache
            .get_or_build_keyed(shared_key, ca, || compile(&ma))
            .unwrap();
        let p_b = cache
            .get_or_build_keyed(shared_key, cb, || compile(&mb))
            .unwrap();
        assert!(
            !Arc::ptr_eq(&p_a, &p_b),
            "colliding key reused the wrong plan"
        );
        assert_eq!(
            p_b.fingerprint(),
            &PatternFingerprint::of(&mb),
            "the second lookup must get a plan for its own matrix"
        );
        assert_eq!(cache.stats().collisions, 1);
        // And the replacement is a normal entry: same confirm hits now.
        let p_b2 = cache
            .get_or_build_keyed(shared_key, cb, || compile(&mb))
            .unwrap();
        assert!(Arc::ptr_eq(&p_b, &p_b2));
    }

    /// `a` with every column index rotated by `shift` (mod `n_cols`) and
    /// rows re-sorted: the same `row_ptr`, a different `col_idx`.
    fn rotate_columns(a: &CsrMatrix<f64>, shift: usize) -> CsrMatrix<f64> {
        let n = a.n_cols();
        let cols = a
            .col_idx()
            .iter()
            .map(|&c| ((c as usize + shift) % n) as u32)
            .collect();
        let mut b = CsrMatrix::from_parts(
            a.n_rows(),
            n,
            a.row_ptr().to_vec(),
            cols,
            a.values().to_vec(),
        )
        .unwrap();
        b.sort_rows();
        b
    }

    /// Two matrices sharing `row_ptr` but not `col_idx` key two entries:
    /// both build, neither is a collision, and alternating lookups hit.
    #[test]
    fn shared_row_ptr_different_columns_are_different_entries() {
        let cache = PlanCache::new(CacheConfig::default());
        let cfg = PlanConfig::default();
        let a = gen::banded::<f64>(1500, 3, 13);
        let b = rotate_columns(&a, 500);
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
        let (ia, ib) = (PlanIdentity::of(&a, &cfg), PlanIdentity::of(&b, &cfg));
        assert_ne!(ia.key, ib.key, "the key must cover col_idx");
        assert_ne!(
            ia.confirm, ib.confirm,
            "the confirm checksum must cover col_idx"
        );
        let pa = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        let pb = cache.get_or_build(&b, &cfg, || compile(&b)).unwrap();
        assert!(!Arc::ptr_eq(&pa, &pb));
        for _ in 0..3 {
            let ra = cache
                .get_or_build_keyed(ia.key, ia.confirm, || unreachable!())
                .unwrap();
            let rb = cache
                .get_or_build_keyed(ib.key, ib.confirm, || unreachable!())
                .unwrap();
            assert!(Arc::ptr_eq(&ra, &pa) && Arc::ptr_eq(&rb, &pb));
        }
        let s = cache.stats();
        assert_eq!((s.builds, s.collisions, s.hits), (2, 0, 6));
    }

    #[test]
    fn value_updates_keep_the_identity_and_structure_changes_do_not() {
        let cfg = PlanConfig::default();
        let a = gen::random_uniform::<f64>(200, 180, 1, 6, 4);
        let id = PlanIdentity::of(&a, &cfg);
        let mut refreshed = a.clone();
        refreshed.fill_values_with(|i| i as f64 * 0.5);
        assert_eq!(PlanIdentity::of(&refreshed, &cfg), id);
        let mut moved = a.col_idx().to_vec();
        let last = moved.len() - 1;
        moved[last] = (moved[last] + 1) % 180;
        let b = CsrMatrix::from_parts(200, 180, a.row_ptr().to_vec(), moved, a.values().to_vec())
            .unwrap();
        let idb = PlanIdentity::of(&b, &cfg);
        assert_ne!(idb.key, id.key);
        assert_ne!(idb.confirm, id.confirm);
    }

    /// The cost-aware satellite regression: an expensive-to-rebuild plan
    /// must survive a scan of cheap one-shot plans that would have
    /// flushed it under pure LRU.
    #[test]
    fn expensive_plan_survives_a_scan_of_cheap_one_shots() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        let cfg = PlanConfig::default();
        let pricey = gen::random_uniform::<f64>(400, 400, 2, 6, 42);
        // ~100 ms measured build vs sub-ms scans: orders of magnitude,
        // immune to compile-time noise.
        cache
            .get_or_build(&pricey, &cfg, || {
                std::thread::sleep(std::time::Duration::from_millis(100));
                compile(&pricey)
            })
            .unwrap();
        // A scan of cheap plans, each requested exactly once and never
        // again. Pure LRU would evict the (now oldest) expensive entry
        // on the second scan insert; cost-aware eviction must keep it
        // and churn the cheap entries among themselves.
        let scan: Vec<_> = (0..5)
            .map(|seed| gen::random_uniform::<f64>(60 + seed, 60, 1, 3, seed as u64))
            .collect();
        for m in &scan {
            cache.get_or_build(m, &cfg, || compile(m)).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().evictions >= 4);
        // The expensive plan is still served from cache: no new build.
        let before = cache.stats().builds;
        cache
            .get_or_build(&pricey, &cfg, || compile(&pricey))
            .unwrap();
        assert_eq!(
            cache.stats().builds,
            before,
            "expensive plan was evicted by the cheap scan"
        );
    }

    #[test]
    fn swap_replaces_the_served_plan_without_a_rebuild() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 7);
        let incumbent_cfg = PlanConfig {
            pack: false,
            cache_block: false,
            specialize: false,
            ..PlanConfig::default()
        };
        let p1 = cache
            .get_or_build(&a, &incumbent_cfg, || {
                let strategy = Strategy {
                    binning: BinningScheme::Coarse { u: 10 },
                    kernels: vec![KernelId::Serial; 8],
                };
                SpmvPlan::compile_with(
                    &a,
                    strategy,
                    Box::new(NativeCpuBackend::new()),
                    incumbent_cfg,
                )
                .verify(&a)
                .map_err(|e| CacheError::Build(e.to_string()))
            })
            .unwrap();
        // Refine: a plan compiled with the gates open, published under
        // the incumbent's key.
        let refined = Arc::new(compile(&a).unwrap());
        refined.telemetry().record(1_000, 1);
        let id = PlanIdentity::of(&a, &incumbent_cfg);
        assert!(cache.swap(id.key, id.confirm, 5_000, Arc::clone(&refined)));
        // Future lookups for the *original* config now get the refined
        // plan, from cache, with its telemetry freshly zeroed.
        let before = cache.stats().builds;
        let p2 = cache
            .get_or_build(&a, &incumbent_cfg, || unreachable!("must be a hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&p2, &refined));
        assert!(!Arc::ptr_eq(&p2, &p1));
        assert_eq!(cache.stats().builds, before);
        assert_eq!(cache.stats().swaps, 1);
        assert_eq!(p2.telemetry().snapshot().executes, 0);
    }

    #[test]
    fn swap_refuses_to_race_an_in_flight_build() {
        let cache = PlanCache::<f64>::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(200, 200, 1, 4, 11);
        let cfg = PlanConfig::default();
        let id = PlanIdentity::of(&a, &cfg);
        let refined = Arc::new(compile(&a).unwrap());
        // While a build is in flight for the key, swap must decline.
        let swapped = std::thread::scope(|s| {
            let cache = &cache;
            let in_builder = Arc::new(std::sync::Barrier::new(2));
            let release = Arc::new(std::sync::Barrier::new(2));
            let b1 = Arc::clone(&in_builder);
            let r1 = Arc::clone(&release);
            let a_ref = &a;
            s.spawn(move || {
                cache
                    .get_or_build(a_ref, &cfg, || {
                        b1.wait();
                        r1.wait();
                        compile(a_ref)
                    })
                    .unwrap();
            });
            in_builder.wait();
            let swapped = cache.swap(id.key, id.confirm, 1, Arc::clone(&refined));
            release.wait();
            swapped
        });
        assert!(!swapped, "swap must not stomp an in-flight build");
        assert_eq!(cache.stats().swaps, 0);
    }

    #[test]
    fn for_each_ready_scans_every_ready_entry() {
        let cache = PlanCache::new(CacheConfig::default());
        let cfg = PlanConfig::default();
        let mats: Vec<_> = (1..=3)
            .map(|seed| gen::random_uniform::<f64>(150 + seed, 150, 1, 4, seed as u64))
            .collect();
        for m in &mats {
            cache.get_or_build(m, &cfg, || compile(m)).unwrap();
        }
        let mut seen = Vec::new();
        cache.for_each_ready(|key, confirm, plan| {
            assert_eq!(plan.fingerprint(), &key.0.pattern);
            seen.push((*key, confirm));
        });
        assert_eq!(seen.len(), 3);
        for m in &mats {
            let id = PlanIdentity::of(m, &cfg);
            assert!(seen.contains(&(id.key, id.confirm)));
        }
    }
}
