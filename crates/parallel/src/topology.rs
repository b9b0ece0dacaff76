//! Topology detection and worker placement policies.
//!
//! The execution layer used to know exactly one number: the process-wide
//! thread count capping [`crate::scope::num_threads`].
//! That is enough for a flat pool but says nothing about *where* work
//! should live — on a multi-socket or core-clustered part, threads that
//! share a cache level should share a work queue, and threads that do
//! not should prefer their own. This module names that structure:
//!
//! * [`Topology`] — what the machine offers (worker count, group count);
//! * [`PlacementPolicy`] — what the user asked for (`flat`, `grouped:G`,
//!   `pinned:N`), generalizing the old thread-count cap;
//! * [`Placement`] — the resolved decision: how many workers run and how
//!   many shards (per-group work queues) plans should be cut into.
//!
//! `SPMV_PLACEMENT` is the one placement variable. A malformed value is
//! a loud warning (once per process) and falls back to
//! [`PlacementPolicy::Flat`], so a typo is never silently identical to
//! unset. The retired `SPMV_THREADS` alias is no longer read; setting it
//! warns once and names `SPMV_PLACEMENT=pinned:N`, so no worker count
//! changes silently. `SPMV_NUM_THREADS` is not a placement: it sets the
//! hardware budget ([`Topology::cores`]) placements resolve against.

use crate::scope::hardware_threads;
use std::sync::OnceLock;

/// What the machine offers: the frozen process thread count and the
/// number of worker groups (core clusters / sockets) placement may
/// model. Detection has no portable std API for cache or socket
/// structure, so `groups` defaults to 1; `SPMV_PLACEMENT=grouped:G`
/// overrides it explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Worker threads available to the process (the raw hardware budget:
    /// `SPMV_NUM_THREADS` or the machine's available parallelism).
    pub cores: usize,
    /// Worker groups sharing a cache level (1 when unknown).
    pub groups: usize,
}

impl Topology {
    /// Detect the process topology: the raw hardware thread budget, one
    /// group. Deliberately *not* [`crate::scope::num_threads`] — that is
    /// the placement-resolved worker count, which is derived from this
    /// ceiling (the other direction would be circular).
    pub fn detect() -> Self {
        Self {
            cores: hardware_threads().max(1),
            groups: 1,
        }
    }

    /// A synthetic topology for tests and sweeps.
    pub fn synthetic(cores: usize, groups: usize) -> Self {
        Self {
            cores: cores.max(1),
            groups: groups.max(1),
        }
    }
}

/// How workers and work queues should be laid out, generalizing the old
/// thread-count cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// All workers share one flat queue — the pre-sharding behaviour and
    /// the default.
    Flat,
    /// Workers are split into `G` groups; plans are cut into `G` shards
    /// and each worker drains its group's shard before crossing groups.
    Grouped(usize),
    /// Exactly `N` workers, each the home of its own shard — maximal
    /// queue locality.
    PinnedCount(usize),
}

/// A malformed `SPMV_PLACEMENT` value: what did not parse. Surfaced as a one-shot warning by
/// [`Placement::from_env`] so a typo is never silently identical to
/// unset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementError {
    /// The value that did not parse.
    pub value: String,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPMV_PLACEMENT={:?} is not a valid placement (expected \"flat\", \
             \"grouped:G\" or \"pinned:N\"); falling back to flat",
            self.value
        )
    }
}

impl std::error::Error for PlacementError {}

/// Parse an `SPMV_PLACEMENT` value: `flat`, `grouped:G`, or `pinned:N`
/// (`G`, `N` positive integers). Pure, so the grammar is unit-testable
/// without touching the process environment.
pub fn parse_placement(raw: &str) -> Result<PlacementPolicy, PlacementError> {
    let err = || PlacementError {
        value: raw.to_string(),
    };
    let s = raw.trim();
    if s.eq_ignore_ascii_case("flat") {
        return Ok(PlacementPolicy::Flat);
    }
    let positive = |v: &str| v.trim().parse::<usize>().ok().filter(|&n| n > 0);
    if let Some((head, tail)) = s.split_once(':') {
        let n = positive(tail).ok_or_else(err)?;
        return match head.trim().to_ascii_lowercase().as_str() {
            "grouped" => Ok(PlacementPolicy::Grouped(n)),
            "pinned" => Ok(PlacementPolicy::PinnedCount(n)),
            _ => Err(err()),
        };
    }
    Err(err())
}

/// A resolved placement: the policy that produced it, the worker count
/// parallel regions should use, and the shard count plans should be cut
/// into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The policy this placement was resolved from.
    pub policy: PlacementPolicy,
    /// Workers parallel regions run with (≥ 1, capped at the topology).
    pub workers: usize,
    /// Shards plans should partition their tile queues into (≥ 1;
    /// 1 means unsharded — the flat queue).
    pub shards: usize,
}

impl Placement {
    /// Resolve `policy` against `topo`:
    ///
    /// * `Flat` → all cores, one shard (the pre-sharding layout);
    /// * `Grouped(g)` → all cores, `g` shards (capped at the core count —
    ///   more groups than workers would leave permanent remote queues);
    /// * `PinnedCount(n)` → `min(n, cores)` workers, `n` shards (not
    ///   capped: a plan cut for more shards than this machine has workers
    ///   still executes correctly via cross-shard stealing, and stays
    ///   balanced if it ever runs where `n` workers exist).
    pub fn resolve(policy: PlacementPolicy, topo: Topology) -> Self {
        let (workers, shards) = match policy {
            PlacementPolicy::Flat => (topo.cores, 1),
            PlacementPolicy::Grouped(g) => (topo.cores, g.clamp(1, topo.cores)),
            PlacementPolicy::PinnedCount(n) => (n.clamp(1, topo.cores), n.max(1)),
        };
        Self {
            policy,
            workers,
            shards,
        }
    }

    /// The process placement: `SPMV_PLACEMENT` if set, else
    /// [`PlacementPolicy::Flat`] — resolved against the detected
    /// [`Topology`]. A malformed value warns on stderr **once per
    /// process** (see [`PlacementError`]) and falls back to `Flat`; a
    /// set `SPMV_THREADS`, no longer read, also warns once. Unset
    /// variables stay silent.
    ///
    /// This is the **single entry point** for topology resolution:
    /// [`crate::scope::num_threads`] (and through it every flat parallel
    /// loop, the worker team's size, and the benches) returns
    /// `from_env().workers`, so no two layers of one process can observe
    /// different thread counts from the same environment.
    ///
    /// Cached after first use — plan compilation consults this, and
    /// re-parsing the environment per compile would put syscalls on a
    /// warm path.
    pub fn from_env() -> Self {
        static CACHED: OnceLock<Placement> = OnceLock::new();
        *CACHED.get_or_init(|| {
            if std::env::var_os("SPMV_THREADS").is_some() {
                eprintln!(
                    "warning: SPMV_THREADS is no longer read; \
                     use SPMV_PLACEMENT=pinned:N to fix the worker count"
                );
            }
            let policy = match env_policy() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("warning: {e}");
                    PlacementPolicy::Flat
                }
            };
            Self::resolve(policy, Topology::detect())
        })
    }
}

/// The raw environment lookup behind [`Placement::from_env`]:
/// `SPMV_PLACEMENT`, unset (or blank) is `Flat`.
fn env_policy() -> Result<PlacementPolicy, PlacementError> {
    match std::env::var("SPMV_PLACEMENT") {
        Ok(raw) if !raw.trim().is_empty() => parse_placement(&raw),
        _ => Ok(PlacementPolicy::Flat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_grammar_accepts_the_documented_forms() {
        assert_eq!(parse_placement("flat"), Ok(PlacementPolicy::Flat));
        assert_eq!(parse_placement(" Flat "), Ok(PlacementPolicy::Flat));
        assert_eq!(
            parse_placement("grouped:2"),
            Ok(PlacementPolicy::Grouped(2))
        );
        assert_eq!(
            parse_placement("pinned:8"),
            Ok(PlacementPolicy::PinnedCount(8))
        );
        assert_eq!(
            parse_placement("GROUPED: 4 "),
            Ok(PlacementPolicy::Grouped(4))
        );
    }

    #[test]
    fn placement_grammar_rejects_garbage_with_the_offending_value() {
        for bad in ["", "fast", "grouped", "grouped:0", "grouped:x", "pinned:-1"] {
            let e = parse_placement(bad).unwrap_err();
            assert_eq!(e.value, bad);
            assert!(e.to_string().starts_with("SPMV_PLACEMENT="));
            assert!(e.to_string().contains("falling back to flat"));
        }
    }

    #[test]
    fn resolve_maps_policies_to_worker_and_shard_counts() {
        let topo = Topology::synthetic(8, 1);
        let flat = Placement::resolve(PlacementPolicy::Flat, topo);
        assert_eq!((flat.workers, flat.shards), (8, 1));
        let grouped = Placement::resolve(PlacementPolicy::Grouped(2), topo);
        assert_eq!((grouped.workers, grouped.shards), (8, 2));
        let over_grouped = Placement::resolve(PlacementPolicy::Grouped(32), topo);
        assert_eq!((over_grouped.workers, over_grouped.shards), (8, 8));
        let pinned = Placement::resolve(PlacementPolicy::PinnedCount(3), topo);
        assert_eq!((pinned.workers, pinned.shards), (3, 3));
        // More pinned workers than cores: workers clamp, shards do not —
        // the plan cut survives moving to a bigger machine.
        let over = Placement::resolve(PlacementPolicy::PinnedCount(16), topo);
        assert_eq!((over.workers, over.shards), (8, 16));
    }

    #[test]
    fn detect_is_consistent_with_num_threads() {
        // One topology per process: the free-function worker count IS
        // the resolved placement's, and never exceeds the hardware
        // budget detection reports.
        let t = Topology::detect();
        assert!(t.cores >= 1);
        assert_eq!(t.groups, 1);
        let p = Placement::from_env();
        assert_eq!(crate::scope::num_threads(), p.workers);
        assert!(p.workers <= t.cores);
    }
}
