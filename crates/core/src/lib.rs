//! # spmv-autotune
//!
//! The paper's primary contribution: an input-aware auto-tuning framework
//! for CSR-based SpMV that (1) groups rows of similar workload into bins
//! via a coarse-grained "virtual row" scheme with tunable granularity `U`,
//! (2) selects, per bin, the best of nine SpMV kernels with different
//! thread organisations, and (3) learns both decisions offline with a
//! C5.0-style decision-tree model so new matrices get a strategy in one
//! prediction pass.
//!
//! Layout mirrors §III of the paper:
//!
//! * [`binning`] — Algorithm 2 (workload collection + coarse binning) and
//!   the alternative schemes §III-B mentions (fine-grained, hybrid,
//!   single-bin) plus the inter-bin scheme of the CSR-Adaptive baseline;
//! * [`kernels`] — Algorithms 3–5: `Kernel-Serial`, `Kernel-SubvectorX`
//!   (X ∈ {2,4,8,16,32,64,128}) and `Kernel-Vector`, each executing
//!   functionally while tracing its memory/ALU/LDS behaviour on the
//!   simulated APU, plus native CPU implementations;
//! * [`baseline`] — the CSR-Adaptive SpMV of Greathouse & Daga (SC'14),
//!   the paper's state-of-the-art comparison (Figure 7);
//! * [`tuner`] — the exhaustive oracle search over (U, kernel-per-bin);
//! * [`training`] — the two-stage dataset construction and model fitting
//!   (§III-C);
//! * [`framework`] — the runtime: features → predicted strategy →
//!   binning → per-bin kernel launches ([`AutoSpmv`]);
//! * [`exec`] — execution backends behind one [`ExecBackend`] trait:
//!   the simulated GPU and the native multithreaded CPU pool;
//! * [`plan`] — the plan/execute split: [`SpmvPlan`] freezes features,
//!   strategy and expanded bin row lists once per sparsity pattern so
//!   iterative solvers pay no per-call tuning or allocation;
//! * [`verify`] — the write-set disjointness checker: proves a plan's
//!   dispatch table writes every output row exactly once, producing a
//!   [`VerifiedPlan`] whose `execute_unchecked` drops the per-call
//!   O(m) fingerprint scan;
//! * [`solve`] — level-scheduled sparse triangular solves and the SymGS
//!   sweep behind the same plan/verify split: a dependency-order prover
//!   ([`verify::check_solve_schedule`]) certifies the barrier-stepped
//!   schedule and mints a [`VerifiedSolvePlan`], bit-for-bit identical
//!   to the sequential references at every worker count.
//!
//! ## Quick start
//!
//! ```
//! use spmv_autotune::prelude::*;
//! use spmv_sparse::gen;
//!
//! // An irregular matrix: many short rows, a few long ones.
//! let a = gen::mixture::<f32>(
//!     2_000, 2_000,
//!     &[gen::RowRegime::new(1, 4, 0.8), gen::RowRegime::new(100, 300, 0.2)],
//!     true, 7,
//! );
//! let v = vec![1.0f32; a.n_cols()];
//!
//! let device = GpuDevice::kaveri();
//! let tuned = Tuner::new(device.clone()).tune(&a);
//! let mut u = vec![0.0f32; a.n_rows()];
//! let stats = run_strategy(&device, &a, &tuned.strategy, &v, &mut u);
//! assert!(stats.cycles > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adapt;
pub mod baseline;
pub mod binning;
pub mod exec;
pub mod framework;
pub mod kernels;
pub mod model_io;
pub mod plan;
pub mod solve;
pub mod strategy;
pub mod telemetry;
pub mod training;
pub mod tuner;
pub mod verify;

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::adapt::{classify, suggest, AdaptConfig, Bottleneck};
    pub use crate::baseline::CsrAdaptive;
    pub use crate::binning::{BinningScheme, Bins};
    pub use crate::exec::{ExecBackend, LaunchCost, NativeCpuBackend, PlanParts, SimGpuBackend};
    pub use crate::framework::{run_hetero, run_single_kernel, run_strategy, AutoSpmv};
    pub use crate::kernels::{KernelId, ALL_KERNELS};
    pub use crate::model_io::{load_model_file, save_model_file};
    pub use crate::plan::{
        confirm_words, rhs_blocks, BinDispatch, BinFormat, BinPayload, IndexPolicy,
        PatternFingerprint, PlanConfig, PlanConfigKey, PlanError, ShardedTiles, SpmvPlan,
        StructureKey, Tile, TrafficStats, VerifiedPlan,
    };
    pub use crate::solve::{
        SolveConfig, SolveError, SolvePlan, SolveStep, SymgsPlan, VerifiedSolvePlan,
    };
    pub use crate::strategy::Strategy;
    pub use crate::telemetry::{PlanTelemetry, TelemetrySnapshot};
    pub use crate::training::{TrainedModel, Trainer, TrainingReport};
    pub use crate::tuner::{FormatSearch, TunedFormat, TunedStrategy, Tuner, TunerConfig};
    pub use crate::verify::{
        check_dispatch, check_payloads, check_rhs_blocks, check_shards, check_solve_schedule,
        VerifyError,
    };
    pub use spmv_gpusim::{GpuDevice, LaunchStats};
    pub use spmv_sparse::DenseBlock;
}

pub use prelude::*;
