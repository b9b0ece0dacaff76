//! # spmv-serve — multi-tenant SpMV serving layer
//!
//! Everything below this crate answers *one* query shape — `y = A x`
//! for a registered sparse matrix — but a serving process answers it
//! for many tenants against a shared pool of matrices, where the two
//! dominant costs are ones a single-shot CLI never sees:
//!
//! * **Plan compilation amortization.** Building and verifying a plan
//!   costs orders of magnitude more than executing it. The
//!   [`cache::PlanCache`] keys verified plans by matrix structure
//!   (`row_ptr` and `col_idx`) + frozen
//!   [`PlanConfig`](spmv_autotune::PlanConfig), dedups concurrent builds
//!   (single-flight), serves hits without an exclusive lock, and
//!   confirms every key match with an independent structure checksum so
//!   a hash collision can never smuggle the wrong plan to a tenant. The
//!   server computes each matrix's identity once, at registration.
//! * **Memory-traffic amortization.** `K` requests against the same
//!   matrix as one SpMM batch walk the pattern once instead of `K`
//!   times. The [`serve::SpmvServer`] admission queue coalesces
//!   same-matrix requests (bounded by `max_batch` and a per-anchor
//!   `coalesce_window`) while a deficit-round-robin scheduler with
//!   earliest-deadline tie-breaks keeps tenants fair. Batched responses
//!   are bit-for-bit identical to standalone single-vector executes.
//!
//! * **Measured-feedback refinement.** Compile-time plan selection is
//!   a prediction; the serving process can check it. The
//!   [`refine`] module watches each cached plan's execute telemetry,
//!   classifies divergence from the traffic model into a bottleneck,
//!   and (under `SPMV_REFINE=auto`) compiles the suggested fix in the
//!   background, A/B-times it against the incumbent, and publishes it
//!   via [`cache::PlanCache::swap`] only when it measures faster —
//!   with bit-for-bit identical responses across the swap.
//!
//! The dispatcher's lost-wakeup-free sleep protocol is exhaustively
//! model-checked by `AdmissionModel` in the analysis crate; the
//! refiner's publish protocol (verify *before* swap, never racing a
//! builder) is checked the same way by `RefineModel`.

pub mod cache;
pub mod refine;
pub mod serve;

pub use cache::{CacheConfig, CacheError, CacheStats, PlanCache, PlanIdentity, PlanKey};
pub use refine::{
    classify_plan, probe_candidate, ProbeReport, RefineConfig, RefineError, RefineMode,
    RefineScheduler, RefineStats,
};
pub use serve::{
    MatrixId, Response, ServeConfig, ServeError, ServeStats, SpmvServer, TenantId, Ticket,
};
