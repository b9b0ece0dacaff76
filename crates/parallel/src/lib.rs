//! # spmv-parallel
//!
//! A small, dependency-light data-parallel substrate: the CPU analogue of
//! the paper's OpenCL work-group machinery. The CPU-native SpMV kernels
//! run on this, and the GPU *simulator* uses it to cost work-groups
//! concurrently.
//!
//! Two layers are provided:
//!
//! * [`parallel_for`]-style free functions built on `std::thread::scope`
//!   that operate on borrowed data with dynamic (atomic-counter) chunk
//!   scheduling — the moral equivalent of a `#pragma omp parallel for
//!   schedule(dynamic)`;
//! * a persistent [`pool::ThreadPool`] for `'static` jobs, so repeated
//!   small launches (one per bin, as the framework issues) don't pay
//!   thread spawn/join each time;
//! * a fused single-scope dispatcher ([`fused_for_each`]) that runs a
//!   whole precompiled tile queue in one parallel region, so multi-bin
//!   plans pay one join instead of one barrier per bin;
//! * a topology/placement layer ([`topology`]) naming how many workers
//!   run and how work queues map onto worker groups, and a sharded
//!   dispatcher ([`sharded_for_each_scratch`]) that drains per-shard
//!   queues home-first with ring-order cross-shard stealing;
//! * a barrier-stepped dispatcher ([`stepped_for_each`]) for
//!   dependency-carrying schedules (level-set triangular solves): one
//!   worker team marches through barrier-separated steps, so step
//!   `s + 1` reads what step `s` wrote without a spawn/join per level.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod fused;
pub mod partition;
pub mod pool;
pub mod scope;
pub mod shard;
pub mod step;
pub mod topology;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use fused::{fused_for_each, fused_for_each_scratch, fused_for_each_with};
pub use partition::{chunk_ranges, Chunk};
pub use pool::ThreadPool;
pub use scope::{
    hardware_threads, machine_threads, num_threads, parallel_for, parallel_map_collect,
    parallel_reduce,
};
pub use shard::sharded_for_each_scratch;
pub use step::stepped_for_each;
pub use topology::{parse_placement, Placement, PlacementError, PlacementPolicy, Topology};
