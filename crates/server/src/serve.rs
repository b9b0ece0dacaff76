//! Admission-queue serving: deficit round-robin fairness and SpMM
//! coalescing over the concurrent plan cache.
//!
//! The server accepts single-vector requests tagged `(tenant, matrix,
//! deadline)` and turns same-matrix requests into one SpMM launch: the
//! plan/execute split makes a `K`-column batch cost barely more than a
//! single `y = Ax` (the pattern walk amortizes across columns), so at
//! saturation a coalesced server clears the queue `~K×` faster than a
//! one-at-a-time loop. Batched results are **bit-for-bit** what the
//! standalone single-vector path produces (a repo-wide invariant of
//! `execute_batch`), so coalescing is invisible to tenants.
//!
//! Scheduling is two-level:
//!
//! 1. **Deficit round-robin across tenants.** Every backlogged tenant
//!    holds a deficit counter; dispatching a request costs one unit.
//!    When no backlogged tenant has deficit left, every backlogged
//!    tenant is topped up by [`ServeConfig::quantum`] — a new round.
//!    Among eligible tenants the dispatcher picks the one whose head
//!    request has the **earliest deadline** (ties: lowest tenant id),
//!    so fairness is long-run per-tenant throughput while short-run
//!    order respects urgency.
//! 2. **Same-matrix coalescing.** The selected request anchors a batch.
//!    The dispatcher then pulls *riders* — queued requests for the same
//!    matrix, from any tenant, each charged one deficit unit (possibly
//!    driving the counter negative, which the next quantum repays) —
//!    until the batch holds [`ServeConfig::max_batch`] columns or the
//!    anchor has waited [`ServeConfig::coalesce_window`] since arrival.
//!    The window bounds the latency cost of coalescing: an anchor never
//!    waits past `enqueued + coalesce_window` for company.
//!
//! The dispatcher's sleep/wake protocol — re-check the queue *after*
//! every dispatch and only then sleep, with the "going to sleep"
//! decision made atomically under the queue lock — is exactly the
//! `AdmissionModel` interleaving exhaustively checked in the analysis
//! crate (`spmv-lint`): an arrival can never slip between "batch
//! dispatched" and "dispatcher asleep" and be stranded.
//!
//! The data path around the kernel is kept to what the kernel needs:
//!
//! * **Plan identity is fixed at registration.** [`SpmvServer::
//!   register_matrix`] computes the matrix's [`PlanIdentity`] (a cache
//!   key over `row_ptr` *and* `col_idx`, plus an independent confirm
//!   checksum) once, and every batch looks its plan up by that stored
//!   identity in O(1). Two registered matrices that share `row_ptr` but
//!   not `col_idx` hold two cache entries.
//! * **`K = 1` is zero-copy.** A lone request runs the single-vector
//!   kernel from its own `x` straight into its response vector.
//! * **`K > 1` transposes once each way.** The batch's inputs are
//!   gathered in one pass into an `x` block the dispatcher owns and
//!   reuses, the SpMM writes a reused `y` block, and `y` is split into
//!   the `K` responses in one row-tiled pass.
//! * **Responses move.** [`Ticket::wait`] takes the response out of its
//!   slot rather than cloning it.
//!
//! Value refreshes ride the `values_id` mechanism: [`SpmvServer::
//! update_values`] swaps the registered matrix for a value-updated
//! clone (same structure and plan identity, new id), and cached plans
//! re-gather their packed value slabs lazily on next execute — no plan
//! rebuild, no cache invalidation. The clone is built with no registry
//! lock held, so dispatches never wait behind a large refresh.

use crate::cache::{CacheConfig, CacheError, CacheStats, PlanCache, PlanIdentity, PlanKey};
use crate::refine::{
    classify_plan, feature_row, learner_schema, probe_candidate, RefineConfig, RefineCounters,
    RefineMode, RefineScheduler, RefineStats, CLASS_INCUMBENT, CLASS_REFINED,
};
use spmv_autotune::{NativeCpuBackend, PlanConfig, SpmvPlan, Strategy};
use spmv_ml::{IncrementalLearner, OnlineConfig, RetrainOutcome};
use spmv_parallel::{Clock, MonotonicClock};
use spmv_sparse::{CsrMatrix, DenseBlock, Scalar};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant identity; fairness is accounted per tenant.
pub type TenantId = u32;

/// Registered-matrix identity; coalescing groups by matrix.
pub type MatrixId = u64;

/// Why a request (or a registry call) failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request names a matrix that was never registered.
    UnknownMatrix(MatrixId),
    /// The request vector length does not match the matrix width.
    DimensionMismatch {
        matrix: MatrixId,
        expected: usize,
        got: usize,
    },
    /// Plan compile/verify failed (shared by every request that joined
    /// the build).
    Plan(String),
    /// The batched launch itself failed.
    Exec(String),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix(id) => write!(f, "unknown matrix id {id}"),
            ServeError::DimensionMismatch {
                matrix,
                expected,
                got,
            } => write!(
                f,
                "matrix {matrix} expects a length-{expected} vector, got {got}"
            ),
            ServeError::Plan(msg) => write!(f, "plan build failed: {msg}"),
            ServeError::Exec(msg) => write!(f, "batched execute failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving knobs. Defaults suit a latency-sensitive multi-tenant mix;
/// `max_batch: 1` plus a zero window degrades to a one-at-a-time
/// baseline server (the bench's control arm).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum SpMM batch width; a full batch dispatches immediately.
    pub max_batch: usize,
    /// How long an anchor request may wait (from its arrival) for
    /// same-matrix riders before the batch dispatches anyway.
    pub coalesce_window: Duration,
    /// Deficit round-robin top-up per round: how many requests a
    /// backlogged tenant may dispatch before yielding the round.
    pub quantum: u32,
    /// Worker threads for the execution backend (0 = backend default).
    pub workers: usize,
    /// Plan cache sizing.
    pub cache: CacheConfig,
    /// Configuration every served plan is compiled with (part of the
    /// cache key).
    pub plan: PlanConfig,
    /// Online refinement knobs; defaults come from the environment
    /// (`SPMV_REFINE` and friends, off when unset), so a deployment
    /// can turn the loop on without touching code.
    pub refine: RefineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            coalesce_window: Duration::from_micros(200),
            quantum: 4,
            workers: 0,
            cache: CacheConfig::default(),
            plan: PlanConfig::default(),
            refine: RefineConfig::from_env(),
        }
    }
}

/// A completed request: the result column plus how it was served.
#[derive(Clone, Debug)]
pub struct Response<T> {
    /// `y = A x` for this request's vector — bit-for-bit equal to a
    /// standalone single-vector execute through the same plan.
    pub y: Vec<T>,
    /// Width of the SpMM batch this request rode in (1 = unbatched).
    pub batch_k: usize,
    /// When the batch's launch finished.
    pub completed: Instant,
}

struct TicketInner<T> {
    slot: Mutex<Option<Result<Response<T>, ServeError>>>,
    cv: Condvar,
}

impl<T> TicketInner<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, r: Result<Response<T>, ServeError>) {
        let mut slot = self.slot.lock().unwrap();
        *slot = Some(r);
        self.cv.notify_all();
    }
}

/// Handle for one admitted request; [`wait`](Ticket::wait) blocks until
/// the batch it rides in completes.
pub struct Ticket<T> {
    inner: Arc<TicketInner<T>>,
}

impl<T> Ticket<T> {
    /// Block until the request is served (or failed). The response moves
    /// out of the ticket's slot: the ticket is consumed, so nothing else
    /// can read it.
    pub fn wait(self) -> Result<Response<T>, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.inner.cv.wait(slot).unwrap();
        }
    }
}

struct Pending<T> {
    matrix: MatrixId,
    x: Vec<T>,
    deadline: Instant,
    enqueued: Instant,
    ticket: Arc<TicketInner<T>>,
}

struct QueueState<T> {
    queues: HashMap<TenantId, VecDeque<Pending<T>>>,
    deficits: HashMap<TenantId, i64>,
    shutdown: bool,
}

impl<T> QueueState<T> {
    fn total_queued(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// DRR tenant selection: among backlogged tenants with deficit
    /// remaining, the one whose head request has the earliest deadline
    /// (tie: lowest tenant id). Refills every backlogged tenant's
    /// deficit by `quantum` when none is eligible — a new round.
    fn select_tenant(&mut self, quantum: i64) -> TenantId {
        loop {
            let pick = self
                .queues
                .iter()
                .filter(|(t, q)| !q.is_empty() && self.deficits[*t] > 0)
                .min_by_key(|(t, q)| (q.front().unwrap().deadline, **t))
                .map(|(t, _)| *t);
            if let Some(t) = pick {
                return t;
            }
            let backlogged: Vec<TenantId> = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(t, _)| *t)
                .collect();
            debug_assert!(!backlogged.is_empty(), "select_tenant on empty queues");
            for t in backlogged {
                *self.deficits.entry(t).or_insert(0) += quantum;
            }
        }
    }

    /// Pull queued same-matrix requests into `batch` (from any tenant,
    /// any queue position — requests are independent, so out-of-order
    /// completion within a tenant is observable only as lower latency).
    /// Each rider is charged one deficit unit; the counter may go
    /// negative and is repaid by future quanta.
    fn pull_riders(&mut self, matrix: MatrixId, batch: &mut Vec<Pending<T>>, max_batch: usize) {
        if batch.len() >= max_batch {
            return;
        }
        let mut tenants: Vec<TenantId> = self.queues.keys().copied().collect();
        tenants.sort_unstable();
        for t in tenants {
            let queue = self.queues.get_mut(&t).unwrap();
            let mut i = 0;
            while i < queue.len() && batch.len() < max_batch {
                if queue[i].matrix == matrix {
                    batch.push(queue.remove(i).unwrap());
                    *self.deficits.entry(t).or_insert(0) -= 1;
                } else {
                    i += 1;
                }
            }
            if batch.len() >= max_batch {
                return;
            }
        }
    }
}

/// A registry entry. Immutable once published: a value refresh or a
/// re-registration swaps in a new `Arc`, so a dispatch that already holds
/// the old one finishes on a consistent matrix.
struct Registered<T: Scalar> {
    matrix: CsrMatrix<T>,
    strategy: Strategy,
    /// The matrix's plan identity under the server's plan configuration,
    /// computed once at registration (value refreshes keep it).
    identity: PlanIdentity,
}

struct Inner<T: Scalar> {
    config: ServeConfig,
    registry: RwLock<HashMap<MatrixId, Arc<Registered<T>>>>,
    cache: PlanCache<T>,
    queue: Mutex<QueueState<T>>,
    arrivals: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    /// `occupancy[k-1]` counts batches dispatched with width `k`.
    occupancy: Vec<AtomicU64>,
    /// Background-refinement counters (worker increments).
    refine: RefineCounters,
    /// Stop flag + wakeup for the refinement worker. Separate from the
    /// dispatcher's queue condvar: refinement paces itself on
    /// `scan_interval`, not on arrivals.
    refine_stop: Mutex<bool>,
    refine_halt: Condvar,
}

/// Snapshot of serving counters ([`SpmvServer::stats`]).
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// SpMM batches dispatched.
    pub batches: u64,
    /// Batch-width histogram: `occupancy[k-1]` = batches of width `k`.
    pub occupancy: Vec<u64>,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Online-refinement counters (zero when `SPMV_REFINE` is off).
    pub refine: RefineStats,
}

impl ServeStats {
    /// Mean columns per dispatched batch (1.0 = no coalescing won).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let served: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        served as f64 / self.batches as f64
    }
}

/// Multi-tenant SpMV server: matrix registry, plan cache, admission
/// queue, and one dispatcher thread. See the module docs for the
/// scheduling contract.
pub struct SpmvServer<T: Scalar> {
    inner: Arc<Inner<T>>,
    dispatcher: Option<JoinHandle<()>>,
    refiner: Option<JoinHandle<()>>,
}

impl<T: Scalar> SpmvServer<T> {
    /// Start a server (spawns the dispatcher thread, plus the
    /// refinement worker when [`RefineConfig::mode`] is not `Off`).
    pub fn start(config: ServeConfig) -> Self {
        let max_batch = config.max_batch.max(1);
        let config = ServeConfig {
            max_batch,
            quantum: config.quantum.max(1),
            ..config
        };
        let cache = PlanCache::new(config.cache);
        let inner = Arc::new(Inner {
            occupancy: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            config,
            registry: RwLock::new(HashMap::new()),
            cache,
            queue: Mutex::new(QueueState {
                queues: HashMap::new(),
                deficits: HashMap::new(),
                shutdown: false,
            }),
            arrivals: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            refine: RefineCounters::default(),
            refine_stop: Mutex::new(false),
            refine_halt: Condvar::new(),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("spmv-serve-dispatch".into())
            .spawn(move || dispatcher_loop(worker))
            .expect("spawn dispatcher");
        let refiner = (inner.config.refine.mode != RefineMode::Off).then(|| {
            let worker = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("spmv-serve-refine".into())
                .spawn(move || refiner_loop(worker))
                .expect("spawn refiner")
        });
        Self {
            inner,
            dispatcher: Some(dispatcher),
            refiner,
        }
    }

    /// Register (or replace) a matrix under `id`. Requests may name it
    /// immediately; its plan is built on first use and cached by
    /// structure (`row_ptr` and `col_idx`), so replacing a matrix with
    /// an identical structure keeps the cached plan warm. The plan
    /// identity is computed here, once, in O(m + nnz) with no lock held.
    pub fn register_matrix(&self, id: MatrixId, a: CsrMatrix<T>, strategy: Strategy) {
        let identity = PlanIdentity::of(&a, &self.inner.config.plan);
        let entry = Arc::new(Registered {
            matrix: a,
            strategy,
            identity,
        });
        self.inner.registry.write().unwrap().insert(id, entry);
    }

    /// Refresh the numeric values of a registered matrix (same
    /// structure, same plan identity). Cached plans are *not*
    /// invalidated: the swapped-in clone carries a fresh `values_id`,
    /// and packed value slabs re-gather lazily on the next execute.
    ///
    /// The clone is built with no registry lock held, so dispatches never
    /// wait behind it. It is published only if the entry still holds the
    /// matrix it was cloned from; if a concurrent
    /// [`register_matrix`](Self::register_matrix) replaced it meanwhile,
    /// the refresh is redone on the new matrix rather than resurrecting
    /// the old structure.
    pub fn update_values(
        &self,
        id: MatrixId,
        mut f: impl FnMut(usize) -> T,
    ) -> Result<(), ServeError> {
        loop {
            let current = {
                let reg = self.inner.registry.read().unwrap();
                Arc::clone(reg.get(&id).ok_or(ServeError::UnknownMatrix(id))?)
            };
            let mut matrix = current.matrix.clone();
            matrix.fill_values_with(&mut f);
            let refreshed = Arc::new(Registered {
                matrix,
                strategy: current.strategy.clone(),
                identity: current.identity,
            });
            let mut reg = self.inner.registry.write().unwrap();
            match reg.get_mut(&id) {
                Some(entry) if Arc::ptr_eq(entry, &current) => {
                    *entry = refreshed;
                    return Ok(());
                }
                Some(_) => continue,
                None => return Err(ServeError::UnknownMatrix(id)),
            }
        }
    }

    /// Admit a request: `y = A_matrix · x` for `tenant`, scheduled no
    /// later than its DRR turn and preferentially by `deadline`.
    /// Validation (matrix known, dimensions right) happens here, so a
    /// ticket always resolves with an execution outcome.
    pub fn submit(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        x: Vec<T>,
        deadline: Instant,
    ) -> Result<Ticket<T>, ServeError> {
        let expected = {
            let reg = self.inner.registry.read().unwrap();
            reg.get(&matrix)
                .ok_or(ServeError::UnknownMatrix(matrix))?
                .matrix
                .n_cols()
        };
        if x.len() != expected {
            return Err(ServeError::DimensionMismatch {
                matrix,
                expected,
                got: x.len(),
            });
        }
        let ticket = Arc::new(TicketInner::new());
        {
            let mut q = self.inner.queue.lock().unwrap();
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            q.deficits.entry(tenant).or_insert(0);
            q.queues.entry(tenant).or_default().push_back(Pending {
                matrix,
                x,
                deadline,
                enqueued: Instant::now(),
                ticket: Arc::clone(&ticket),
            });
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            // Wake the dispatcher: a new arrival can complete a batch
            // or end an idle sleep. (Never lost: the dispatcher only
            // sleeps while holding this lock — the AdmissionModel
            // invariant.)
            self.inner.arrivals.notify_all();
        }
        Ok(Ticket { inner: ticket })
    }

    /// Serving counters (dispatch side quiesced = exact).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            occupancy: self
                .inner
                .occupancy
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cache: self.inner.cache.stats(),
            refine: self.inner.refine.snapshot(),
        }
    }

    /// Stop admitting, drain every queued request, and join the worker
    /// threads. Tickets submitted before the call all resolve.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        self.join_workers();
    }

    fn begin_shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.shutdown = true;
            self.inner.arrivals.notify_all();
        }
        let mut stop = self.inner.refine_stop.lock().unwrap();
        *stop = true;
        self.inner.refine_halt.notify_all();
    }

    fn join_workers(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.refiner.take() {
            let _ = h.join();
        }
    }
}

impl<T: Scalar> Drop for SpmvServer<T> {
    fn drop(&mut self) {
        if self.dispatcher.is_some() || self.refiner.is_some() {
            self.begin_shutdown();
            self.join_workers();
        }
    }
}

/// The dispatcher: wait for work → select anchor by DRR/EDF → coalesce
/// riders within the window → execute the batch with no queue lock held
/// → loop (re-checking the queue *before* the next sleep, so a request
/// that arrived during the execute is picked up immediately).
fn dispatcher_loop<T: Scalar>(inner: Arc<Inner<T>>) {
    let mut blocks = BatchBlocks::new();
    loop {
        let (matrix, batch) = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if q.total_queued() > 0 {
                    break;
                }
                if q.shutdown {
                    return;
                }
                // Sleep decision is made while holding the queue lock;
                // submit() can't enqueue-and-notify in the gap. This is
                // the atomicity the AdmissionModel proves necessary.
                q = inner.arrivals.wait(q).unwrap();
            }
            let quantum = i64::from(inner.config.quantum);
            let tenant = q.select_tenant(quantum);
            let anchor = q.queues.get_mut(&tenant).unwrap().pop_front().unwrap();
            *q.deficits.entry(tenant).or_insert(0) -= 1;
            let matrix = anchor.matrix;
            let window_ends = anchor.enqueued + inner.config.coalesce_window;
            let mut batch = vec![anchor];
            loop {
                q.pull_riders(matrix, &mut batch, inner.config.max_batch);
                if batch.len() >= inner.config.max_batch || q.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                let (guard, _timeout) = inner.arrivals.wait_timeout(q, window_ends - now).unwrap();
                q = guard;
            }
            (matrix, batch)
        };
        let k = batch.len();
        serve_batch(&inner, &mut blocks, matrix, batch);
        blocks.retire(k > 1);
    }
}

/// The dispatcher's `x` and `y` blocks for `K > 1` batches, reused
/// across batches: they grow to the largest batch shape served and are
/// reshaped in place below it, so a warm batch allocates only its K
/// response vectors.
///
/// What they retain is bounded by recent traffic, not by the largest
/// matrix ever served: every [`RELEASE_WINDOW`] batches (of any width),
/// a block holding more than four times the largest size any batch of
/// that window needed shrinks to that size. A matrix that is served in
/// batches keeps its blocks — up to `max_batch × (n_cols + n_rows)`
/// elements — and a replaced or idle one gives them back within a
/// window.
struct BatchBlocks<T> {
    x: DenseBlock<T>,
    y: DenseBlock<T>,
    /// Largest `x` and `y` element counts used in the current window.
    peak: (usize, usize),
    /// Batches served in the current window.
    batches: u32,
}

/// Batches per [`BatchBlocks`] release window.
const RELEASE_WINDOW: u32 = 64;

impl<T: Scalar> BatchBlocks<T> {
    fn new() -> Self {
        Self {
            x: DenseBlock::zeros(0, 0),
            y: DenseBlock::zeros(0, 0),
            peak: (0, 0),
            batches: 0,
        }
    }

    /// Count one batch (`used` is true when it ran through the blocks)
    /// and, at the end of a window, release what the window left idle.
    fn retire(&mut self, used: bool) {
        if used {
            self.peak.0 = self.peak.0.max(self.x.as_slice().len());
            self.peak.1 = self.peak.1.max(self.y.as_slice().len());
        }
        self.batches += 1;
        if self.batches < RELEASE_WINDOW {
            return;
        }
        for (block, peak) in [(&mut self.x, self.peak.0), (&mut self.y, self.peak.1)] {
            if block.capacity() > 4 * peak {
                block.shrink_to(peak);
            }
        }
        self.peak = (0, 0);
        self.batches = 0;
    }
}

fn fail_all<T>(batch: Vec<Pending<T>>, err: ServeError) {
    for p in batch {
        p.ticket.resolve(Err(err.clone()));
    }
}

/// Execute one coalesced batch and resolve its tickets. Runs with no
/// queue lock held; the plan comes from the cache by the identity stored
/// at registration (single-flight cold, O(1) warm).
///
/// A `K = 1` batch runs the single-vector kernel from the request's own
/// `x` straight into its response vector: no block, no copy. A `K > 1`
/// batch gathers the inputs into the reused `x` block in one pass, runs
/// the SpMM into the reused `y` block, and splits `y` into the `K`
/// responses in one pass. Either way each response is bit-for-bit the
/// standalone single-vector execute (a repo-wide invariant of
/// `execute_batch`).
fn serve_batch<T: Scalar>(
    inner: &Inner<T>,
    blocks: &mut BatchBlocks<T>,
    matrix: MatrixId,
    batch: Vec<Pending<T>>,
) {
    let k = batch.len();
    debug_assert!(k >= 1);
    inner.batches.fetch_add(1, Ordering::Relaxed);
    inner.occupancy[(k - 1).min(inner.occupancy.len() - 1)].fetch_add(1, Ordering::Relaxed);

    let registered = inner.registry.read().unwrap().get(&matrix).cloned();
    let Some(reg) = registered else {
        // Registration is validated at submit; a replaced-away matrix
        // between submit and dispatch still fails cleanly.
        fail_all(batch, ServeError::UnknownMatrix(matrix));
        return;
    };

    let a = &reg.matrix;
    let plan = inner
        .cache
        .get_or_build_keyed(reg.identity.key, reg.identity.confirm, || {
            let backend = if inner.config.workers > 0 {
                NativeCpuBackend::new().with_workers(inner.config.workers)
            } else {
                NativeCpuBackend::new()
            };
            SpmvPlan::compile_with(
                a,
                reg.strategy.clone(),
                Box::new(backend),
                inner.config.plan,
            )
            .verify(a)
            .map_err(|e| CacheError::Build(e.to_string()))
        });
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            fail_all(batch, ServeError::Plan(e.to_string()));
            return;
        }
    };

    let ys = if k == 1 {
        let mut y = vec![T::ZERO; a.n_rows()];
        plan.execute_unchecked(a, &batch[0].x, &mut y)
            .map(|_| vec![y])
    } else {
        let xs: Vec<&[T]> = batch.iter().map(|p| p.x.as_slice()).collect();
        blocks.x.gather_columns(&xs);
        blocks.y.reshape(a.n_rows(), k);
        plan.execute_batch_unchecked(a, &blocks.x, &mut blocks.y)
            .map(|_| blocks.y.split_columns())
    };
    match ys {
        Ok(ys) => {
            let completed = Instant::now();
            // Count before resolving: a ticket-holder reading stats()
            // right after wait() must see its own completion.
            inner.completed.fetch_add(k as u64, Ordering::Relaxed);
            for (p, y) in batch.into_iter().zip(ys) {
                p.ticket.resolve(Ok(Response {
                    y,
                    batch_k: k,
                    completed,
                }));
            }
        }
        Err(e) => fail_all(batch, ServeError::Exec(e.to_string())),
    }
}

/// The background refinement worker: every `scan_interval`, scan the
/// cache's Ready plans, classify each against its telemetry, and — in
/// `auto` mode — build, A/B-probe, and publish the suggested
/// configuration when it measures faster. Runs at the cadence of
/// [`RefineConfig::scan_interval`] with hysteresis per plan, entirely
/// off the request path: the only shared state it writes is the cache
/// slot (via [`PlanCache::swap`]) and its own counters.
///
/// Every completed A/B also feeds the incremental learner; after
/// [`RefineConfig::retrain_every`] observations it refits the rule-set
/// behind the lint gate (see [`crate::refine`] module docs).
fn refiner_loop<T: Scalar>(inner: Arc<Inner<T>>) {
    let cfg = inner.config.refine;
    let clock = MonotonicClock;
    let mut sched: RefineScheduler<PlanKey> = RefineScheduler::new();
    let (attrs, classes) = learner_schema();
    let mut learner = IncrementalLearner::new(attrs, classes, OnlineConfig::default());
    let mut since_retrain = 0usize;
    loop {
        {
            let stop = inner.refine_stop.lock().unwrap();
            if *stop {
                return;
            }
            let (stop, _timeout) = inner
                .refine_halt
                .wait_timeout(stop, cfg.scan_interval)
                .unwrap();
            if *stop {
                return;
            }
        }
        inner.refine.scans.fetch_add(1, Ordering::Relaxed);

        // Collect outside the scan: for_each_ready holds shard read
        // locks, and acting on a plan re-enters the cache.
        let mut ready: Vec<(PlanKey, u64, Arc<spmv_autotune::VerifiedPlan<T>>)> = Vec::new();
        inner
            .cache
            .for_each_ready(|key, confirm, plan| ready.push((*key, confirm, Arc::clone(plan))));

        for (key, confirm, plan) in ready {
            let (_bottleneck, Some(suggestion)) = classify_plan(&plan, &cfg.adapt) else {
                continue;
            };
            inner.refine.eligible.fetch_add(1, Ordering::Relaxed);
            let now = clock.now_ns();
            if !sched.ready(&key, now, cfg.hysteresis_ns) {
                inner
                    .refine
                    .hysteresis_skips
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if cfg.mode == RefineMode::Observe {
                sched.record(&key, now);
                inner.refine.observed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Find the live matrix this plan serves by the identity stored
            // at registration: same key *and* same confirm checksum, the
            // exact pair the cache itself trusts. O(1) per entry.
            let matched = {
                let reg = inner.registry.read().unwrap();
                reg.values()
                    .find(|r| r.identity.key == key && r.identity.confirm == confirm)
                    .cloned()
            };
            let Some(r) = matched else {
                // Unregistered since caching; the entry will age out.
                continue;
            };
            sched.record(&key, now);
            match probe_candidate(&r.matrix, &plan, suggestion, inner.config.workers, &cfg) {
                Ok(report) => {
                    inner.refine.built.fetch_add(1, Ordering::Relaxed);
                    let label = if report.improved {
                        CLASS_REFINED
                    } else {
                        CLASS_INCUMBENT
                    };
                    learner.observe(&feature_row(plan.plan().features()), label);
                    inner
                        .refine
                        .learner_observations
                        .fetch_add(1, Ordering::Relaxed);
                    since_retrain += 1;
                    if since_retrain >= cfg.retrain_every.max(1) {
                        since_retrain = 0;
                        match learner.retrain_incremental() {
                            RetrainOutcome::Accepted { .. } => {
                                inner
                                    .refine
                                    .learner_retrains
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            RetrainOutcome::RejectedByLinter { .. } => {
                                inner
                                    .refine
                                    .learner_rejections
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            RetrainOutcome::TooFewExamples { .. } => {}
                        }
                    }
                    let published = report.improved
                        && inner
                            .cache
                            .swap(key, confirm, report.build_ns, report.candidate);
                    if published {
                        inner.refine.swapped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        inner.refine.kept.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    inner.refine.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_autotune::{BinningScheme, KernelId};
    use spmv_sparse::gen;

    fn strategy() -> Strategy {
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        }
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn round_trip_matches_direct_execute() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(400, 380, 1, 6, 11);
        let x: Vec<f64> = (0..380).map(|i| (i % 13) as f64 * 0.25 - 1.0).collect();
        let mut expect = vec![0.0; 400];
        SpmvPlan::compile_with(
            &a,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(&a)
        .unwrap()
        .execute(&a, &x, &mut expect)
        .unwrap();

        server.register_matrix(7, a, strategy());
        let resp = server
            .submit(0, 7, x, far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.y, expect, "served response must be bit-for-bit");
        server.shutdown();
    }

    #[test]
    fn submit_validates_matrix_and_dimensions() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(50, 40, 1, 3, 2);
        server.register_matrix(1, a, strategy());
        assert_eq!(
            server
                .submit(0, 99, vec![0.0; 40], far_deadline())
                .err()
                .unwrap(),
            ServeError::UnknownMatrix(99)
        );
        assert_eq!(
            server
                .submit(0, 1, vec![0.0; 41], far_deadline())
                .err()
                .unwrap(),
            ServeError::DimensionMismatch {
                matrix: 1,
                expected: 40,
                got: 41
            }
        );
    }

    #[test]
    fn same_matrix_requests_coalesce_into_one_batch() {
        // A wide window plus exactly max_batch requests: the anchor
        // waits, riders join, and the full batch dispatches early.
        let server = SpmvServer::start(ServeConfig {
            max_batch: 8,
            coalesce_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 3);
        server.register_matrix(1, a, strategy());
        // Warm the plan so the first dispatch doesn't spend its window
        // compiling.
        server
            .submit(0, 1, vec![1.0; 300], far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        let tickets: Vec<_> = (0..8)
            .map(|t| {
                server
                    .submit(t, 1, vec![t as f64; 300], far_deadline())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert!(r.batch_k >= 1);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 9);
        assert!(
            stats.occupancy.iter().skip(1).any(|&c| c > 0),
            "no coalescing at all under a 5s window: {:?}",
            stats.occupancy
        );
        assert_eq!(stats.cache.builds, 1, "one matrix, one plan build");
        server.shutdown();
    }

    #[test]
    fn drr_prefers_earliest_deadline_and_refills_rounds() {
        let now = Instant::now();
        let pending = |matrix: MatrixId, deadline: Instant| Pending::<f64> {
            matrix,
            x: vec![],
            deadline,
            enqueued: now,
            ticket: Arc::new(TicketInner::new()),
        };
        let mut q = QueueState {
            queues: HashMap::new(),
            deficits: HashMap::new(),
            shutdown: false,
        };
        let late = now + Duration::from_millis(50);
        let soon = now + Duration::from_millis(5);
        q.queues.entry(3).or_default().push_back(pending(1, late));
        q.queues.entry(7).or_default().push_back(pending(1, soon));
        q.deficits.insert(3, 0);
        q.deficits.insert(7, 0);
        // Both start exhausted: selection refills both (one round) and
        // picks the earlier deadline.
        assert_eq!(q.select_tenant(2), 7);
        assert_eq!(q.deficits[&3], 2);
        assert_eq!(q.deficits[&7], 2);
        // Exhaust tenant 7's deficit: tenant 3 wins despite the later
        // deadline — that's the fairness half.
        *q.deficits.get_mut(&7).unwrap() = 0;
        assert_eq!(q.select_tenant(2), 3);
        // Equal deadlines tie-break on the lower tenant id.
        q.queues.entry(2).or_default().push_back(pending(1, late));
        q.deficits.insert(2, 1);
        assert_eq!(q.select_tenant(2), 2);
    }

    #[test]
    fn riders_are_charged_deficit_and_capped_at_max_batch() {
        let now = Instant::now();
        let mut q = QueueState {
            queues: HashMap::new(),
            deficits: HashMap::new(),
            shutdown: false,
        };
        for t in 0..3u32 {
            for _ in 0..4 {
                q.queues.entry(t).or_default().push_back(Pending::<f64> {
                    matrix: 1,
                    x: vec![],
                    deadline: now,
                    enqueued: now,
                    ticket: Arc::new(TicketInner::new()),
                });
            }
            q.deficits.insert(t, 1);
        }
        let mut batch = Vec::new();
        q.pull_riders(1, &mut batch, 8);
        assert_eq!(batch.len(), 8);
        assert_eq!(q.total_queued(), 4);
        // Tenants 0 and 1 each contributed 4 riders (charged below
        // zero); tenant 2 untouched.
        assert_eq!(q.deficits[&0], -3);
        assert_eq!(q.deficits[&1], -3);
        assert_eq!(q.deficits[&2], 1);
    }

    #[test]
    fn batch_blocks_release_what_a_window_left_idle() {
        let mut blocks = BatchBlocks::<f64>::new();
        let batch = |blocks: &mut BatchBlocks<f64>, rows: usize, k: usize| {
            blocks.x.gather_columns(&vec![vec![1.0; rows]; k]);
            blocks.y.reshape(rows, k);
            blocks.retire(true);
        };
        let big = 10_000 * 8;
        batch(&mut blocks, 10_000, 8);
        // The rest of the first window: small batches and K = 1 ones.
        for i in 1..RELEASE_WINDOW {
            if i % 2 == 0 {
                batch(&mut blocks, 100, 2);
            } else {
                blocks.retire(false);
            }
        }
        // The window that used the big shape keeps it.
        assert!(blocks.x.capacity() >= big && blocks.y.capacity() >= big);
        for _ in 0..RELEASE_WINDOW {
            batch(&mut blocks, 100, 2);
        }
        // A window of small batches only gives it back.
        assert!(blocks.x.capacity() < big / 4 && blocks.y.capacity() < big / 4);
        assert_eq!(blocks.y.as_slice().len(), 200);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let server = SpmvServer::start(ServeConfig {
            coalesce_window: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let a = gen::random_uniform::<f64>(200, 200, 1, 4, 5);
        server.register_matrix(1, a, strategy());
        let tickets: Vec<_> = (0..12)
            .map(|t| {
                server
                    .submit(t % 3, 1, vec![1.0 + t as f64; 200], far_deadline())
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for t in tickets {
            t.wait().expect("shutdown must drain, not drop, requests");
        }
    }

    /// The online-refinement satellite: with the loop forced hot
    /// (`min_speedup: 0.0` publishes any verified candidate, zero
    /// hysteresis, 1 ms scans), a mispredicted forced-CSR plan on a
    /// banded matrix must get refined *while requests are in flight*,
    /// and every response before, across, and after the swap must be
    /// bit-for-bit the forced-CSR reference.
    #[test]
    fn live_refinement_swap_keeps_responses_bit_for_bit() {
        let plan_cfg = PlanConfig {
            pack: false,
            cache_block: false,
            specialize: false,
            ..PlanConfig::default()
        };
        let server = SpmvServer::start(ServeConfig {
            plan: plan_cfg,
            refine: RefineConfig {
                mode: RefineMode::Auto,
                min_speedup: 0.0,
                hysteresis_ns: 0,
                scan_interval: Duration::from_millis(1),
                ..RefineConfig::default()
            },
            ..ServeConfig::default()
        });
        let a = gen::banded::<f64>(2_000, 3, 2);
        let x: Vec<f64> = (0..a.n_cols())
            .map(|i| (i % 17) as f64 * 0.5 - 4.0)
            .collect();
        let mut expect = vec![0.0; a.n_rows()];
        SpmvPlan::compile_with(&a, strategy(), Box::new(NativeCpuBackend::new()), plan_cfg)
            .verify(&a)
            .unwrap()
            .execute(&a, &x, &mut expect)
            .unwrap();
        server.register_matrix(1, a, strategy());

        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            // A few tenants at once, so executes overlap the refiner's
            // probe/swap window.
            let tickets: Vec<_> = (0..4)
                .map(|t| server.submit(t, 1, x.clone(), far_deadline()).unwrap())
                .collect();
            for t in tickets {
                let r = t.wait().unwrap();
                assert_eq!(r.y, expect, "response changed across refinement");
            }
            let s = server.stats();
            if s.refine.swapped >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "refiner never published: {:?}",
                s.refine
            );
        }
        // Served from the refined plan now; still bit-for-bit.
        for _ in 0..4 {
            let r = server
                .submit(0, 1, x.clone(), far_deadline())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.y, expect);
        }
        let s = server.stats();
        assert!(s.refine.built >= 1, "no candidate was ever built");
        assert_eq!(
            s.cache.swaps, s.refine.swapped,
            "every publish must go through the cache swap point"
        );
        server.shutdown();
    }

    #[test]
    fn observe_mode_counts_divergence_but_never_builds() {
        let plan_cfg = PlanConfig {
            pack: false,
            cache_block: false,
            specialize: false,
            ..PlanConfig::default()
        };
        let server = SpmvServer::start(ServeConfig {
            plan: plan_cfg,
            refine: RefineConfig {
                mode: RefineMode::Observe,
                hysteresis_ns: 0,
                scan_interval: Duration::from_millis(1),
                ..RefineConfig::default()
            },
            ..ServeConfig::default()
        });
        let a = gen::banded::<f64>(2_000, 3, 2);
        let x = vec![1.0; a.n_cols()];
        server.register_matrix(1, a, strategy());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            server
                .submit(0, 1, x.clone(), far_deadline())
                .unwrap()
                .wait()
                .unwrap();
            let s = server.stats();
            if s.refine.observed >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "observe mode never classified: {:?}",
                s.refine
            );
        }
        let s = server.stats();
        assert_eq!(s.refine.built, 0, "observe mode must not compile");
        assert_eq!(s.refine.swapped, 0);
        assert_eq!(s.cache.swaps, 0);
        server.shutdown();
    }

    /// `update_values` clones outside the registry lock and publishes
    /// only over the entry it cloned. A re-registration with a different
    /// structure that lands while the refresh is filling its clone must
    /// win: the refresh is redone on the new matrix, never published as a
    /// stale-structure clone of the old one. The refresh closure itself
    /// parks on a barrier to force that interleaving.
    #[test]
    fn update_values_racing_register_never_resurrects_the_old_structure() {
        use std::sync::Barrier;
        let refresh = |i: usize| (i % 7) as f64 - 3.0;
        let old = gen::random_uniform::<f64>(400, 300, 1, 6, 21);
        let mut new = gen::random_uniform::<f64>(300, 300, 2, 9, 22);
        new.fill_values_with(refresh);
        let server = SpmvServer::<f64>::start(ServeConfig::default());
        server.register_matrix(1, old.clone(), strategy());
        let (filling, registered) = (Barrier::new(2), Barrier::new(2));
        let mut calls = 0usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                server
                    .update_values(1, |i| {
                        if calls == 0 {
                            filling.wait();
                            registered.wait();
                        }
                        calls += 1;
                        refresh(i)
                    })
                    .unwrap();
            });
            filling.wait();
            server.register_matrix(1, new.clone(), strategy());
            registered.wait();
        });
        // The old clone was filled, refused, and the refresh redone on
        // the new matrix.
        assert_eq!(calls, old.nnz() + new.nnz());
        let reg = server.inner.registry.read().unwrap();
        let entry = &reg[&1];
        assert_eq!(
            entry.identity,
            PlanIdentity::of(&new, &server.inner.config.plan)
        );
        assert_eq!(entry.matrix.row_ptr(), new.row_ptr());
        assert_eq!(entry.matrix.col_idx(), new.col_idx());
        assert_eq!(entry.matrix.values(), new.values());
        drop(reg);
        server.shutdown();
    }

    #[test]
    fn value_refresh_is_visible_without_plan_rebuild() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(250, 250, 1, 5, 8);
        server.register_matrix(1, a.clone(), strategy());
        let x = vec![1.0; 250];
        let before = server
            .submit(0, 1, x.clone(), far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        server.update_values(1, |i| (i % 7) as f64 - 3.0).unwrap();
        let after = server
            .submit(0, 1, x.clone(), far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        assert_ne!(before.y, after.y, "new values must be served");
        // Same pattern ⇒ same plan: no rebuild happened.
        let stats = server.stats();
        assert_eq!(stats.cache.builds, 1);
        // And the refreshed result matches a from-scratch execute on the
        // refreshed matrix.
        let mut refreshed = a;
        refreshed.fill_values_with(|i| (i % 7) as f64 - 3.0);
        let mut expect = vec![0.0; 250];
        SpmvPlan::compile_with(
            &refreshed,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(&refreshed)
        .unwrap()
        .execute(&refreshed, &x, &mut expect)
        .unwrap();
        assert_eq!(after.y, expect);
        server.shutdown();
    }
}
