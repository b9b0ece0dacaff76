//! Serving-equivalence suite: every coalesced response must be
//! **bit-for-bit** identical to a standalone single-vector `execute`
//! through an identically-configured plan — across tenants, backend
//! worker counts {1, 2, 4}, and partial batch widths K ∈ {1, 3, 5, 8}.
//!
//! The test never asserts *how* requests were batched (that is a
//! timing outcome); it asserts that however they were batched, the
//! tenant cannot tell. Occupancy accounting (`Σ k·occupancy[k-1] =
//! completed`) is checked as a bookkeeping invariant.

use spmv_autotune::{
    BinningScheme, KernelId, NativeCpuBackend, PlanConfig, SpmvPlan, Strategy, VerifiedPlan,
};
use spmv_serve::{ServeConfig, SpmvServer};
use spmv_sparse::{gen, CsrMatrix};
use std::time::{Duration, Instant};

fn strategy() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

fn standalone_plan(a: &CsrMatrix<f64>, workers: usize) -> VerifiedPlan<f64> {
    SpmvPlan::compile_with(
        a,
        strategy(),
        Box::new(NativeCpuBackend::new().with_workers(workers)),
        PlanConfig::default(),
    )
    .verify(a)
    .expect("standalone plan must verify")
}

/// A deterministic request vector: varied magnitudes and signs so
/// accumulation-order differences would actually show up in the bits.
fn request_vector(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let v = ((i.wrapping_mul(2654435761) ^ salt.wrapping_mul(40503)) % 1000) as f64;
            (v - 500.0) / 64.0
        })
        .collect()
}

/// Submit `k` requests (mixed tenants, two matrices) against a server
/// with `workers` backend threads; every response must equal the
/// standalone execute bit-for-bit.
fn run_case(workers: usize, k: usize) {
    let a1 = gen::random_uniform::<f64>(600, 550, 1, 9, 42);
    let a2 = gen::random_uniform::<f64>(450, 550, 2, 14, 43);
    let plan1 = standalone_plan(&a1, workers);
    let plan2 = standalone_plan(&a2, workers);

    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(120),
        workers,
        ..ServeConfig::default()
    });
    server.register_matrix(1, a1.clone(), strategy());
    server.register_matrix(2, a2.clone(), strategy());

    // Warm both plans so the measured phase coalesces instead of
    // compiling inside the window.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (mid, a) in [(1u64, &a1), (2u64, &a2)] {
        server
            .submit(0, mid, vec![1.0; a.n_cols()], deadline)
            .unwrap()
            .wait()
            .unwrap();
    }

    let tickets: Vec<_> = (0..k)
        .map(|i| {
            let tenant = (i % 3) as u32;
            let mid = 1 + (i % 2) as u64;
            let n = if mid == 1 { a1.n_cols() } else { a2.n_cols() };
            let x = request_vector(n, workers * 1000 + i);
            (
                i,
                mid,
                x.clone(),
                server.submit(tenant, mid, x, deadline).unwrap(),
            )
        })
        .collect();

    for (i, mid, x, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        let (a, plan) = if mid == 1 {
            (&a1, &plan1)
        } else {
            (&a2, &plan2)
        };
        let mut expect = vec![0.0; a.n_rows()];
        plan.execute(a, &x, &mut expect).unwrap();
        assert_eq!(
            resp.y, expect,
            "workers {workers}, K {k}: request {i} (matrix {mid}, rode a \
             {}-wide batch) diverges from the standalone execute",
            resp.batch_k
        );
        assert!((1..=8).contains(&resp.batch_k));
    }

    let stats = server.stats();
    assert_eq!(stats.completed, (k + 2) as u64);
    let by_occupancy: u64 = stats
        .occupancy
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 + 1) * c)
        .sum();
    assert_eq!(
        by_occupancy, stats.completed,
        "occupancy histogram must account for every served request"
    );
    // Two matrices, one configuration each: exactly two plan builds,
    // everything after is a confirmed cache hit.
    assert_eq!(stats.cache.builds, 2);
    assert_eq!(stats.cache.collisions, 0);
    server.shutdown();
}

#[test]
fn coalesced_equals_standalone_one_worker() {
    for k in [1usize, 3, 5, 8] {
        run_case(1, k);
    }
}

#[test]
fn coalesced_equals_standalone_two_workers() {
    for k in [1usize, 3, 5, 8] {
        run_case(2, k);
    }
}

#[test]
fn coalesced_equals_standalone_four_workers() {
    for k in [1usize, 3, 5, 8] {
        run_case(4, k);
    }
}

/// Saturation-shaped traffic: far more requests than batch slots, all
/// for one matrix, from rotating tenants. Every response still equals
/// the standalone execute, and coalescing must actually engage (with a
/// wide window and 32 queued requests, at least one batch is > 1 wide).
#[test]
fn backlog_coalesces_and_stays_bit_for_bit() {
    let a = gen::random_uniform::<f64>(500, 500, 1, 7, 77);
    let plan = standalone_plan(&a, 2);
    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(60),
        workers: 2,
        ..ServeConfig::default()
    });
    server.register_matrix(9, a.clone(), strategy());
    let deadline = Instant::now() + Duration::from_secs(60);
    server
        .submit(0, 9, vec![1.0; 500], deadline)
        .unwrap()
        .wait()
        .unwrap();

    let tickets: Vec<_> = (0..32)
        .map(|i| {
            let x = request_vector(500, i);
            (
                x.clone(),
                server.submit(i as u32 % 4, 9, x, deadline).unwrap(),
            )
        })
        .collect();
    let mut widths = Vec::new();
    for (x, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        let mut expect = vec![0.0; 500];
        plan.execute(&a, &x, &mut expect).unwrap();
        assert_eq!(resp.y, expect);
        widths.push(resp.batch_k);
    }
    assert!(
        widths.iter().any(|&w| w > 1),
        "32 queued same-matrix requests never coalesced: {widths:?}"
    );
    server.shutdown();
}

/// The reused-buffer data path: batches of every width K ∈ {1, …, 8},
/// cycling through a tall, a gappy and a wide matrix, so the
/// dispatcher's `x` and `y` blocks grow and shrink in both dimensions
/// between consecutive batches (K = 1 skips them entirely). The gappy
/// matrix has empty rows and follows the taller one, so its batches
/// reuse a `y` block still holding the tall matrix's results: a batched
/// kernel that skipped an empty row would leave a stale value there.
/// Every response is bit-for-bit the standalone execute.
#[test]
fn mixed_widths_alternating_tall_and_wide_stay_bit_for_bit() {
    let tall = gen::random_uniform::<f64>(2_000, 150, 1, 6, 51);
    let gappy = gen::random_uniform::<f64>(1_800, 150, 0, 2, 53);
    let wide = gen::random_uniform::<f64>(120, 1_700, 4, 30, 52);
    assert!(
        (0..gappy.n_rows())
            .filter(|&i| gappy.row_nnz(i) == 0)
            .count()
            > 100,
        "the gappy matrix must have empty rows"
    );
    let mats = [tall, gappy, wide];
    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(40),
        workers: 2,
        ..ServeConfig::default()
    });
    for (m, a) in mats.iter().enumerate() {
        server.register_matrix(1 + m as u64, a.clone(), strategy());
    }
    let plans: Vec<_> = mats.iter().map(|a| standalone_plan(a, 2)).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut widths = Vec::new();
    for (step, k) in [1usize, 8, 3, 7, 2, 6, 1, 5, 4, 8, 1]
        .into_iter()
        .enumerate()
    {
        for (m, a) in mats.iter().enumerate() {
            let tickets: Vec<_> = (0..k)
                .map(|i| {
                    let x = request_vector(a.n_cols(), step * 100 + m * 10 + i);
                    let t = server.submit(i as u32 % 3, 1 + m as u64, x.clone(), deadline);
                    (x, t.unwrap())
                })
                .collect();
            for (x, ticket) in tickets {
                let resp = ticket.wait().unwrap();
                let mut expect = vec![0.0; a.n_rows()];
                plans[m].execute(a, &x, &mut expect).unwrap();
                assert_eq!(
                    resp.y, expect,
                    "step {step}, matrix {m}, K {k}: a {}-wide batch diverges",
                    resp.batch_k
                );
                widths.push(resp.batch_k);
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.cache.builds, 3);
    assert_eq!(stats.cache.collisions, 0);
    assert!(widths.contains(&1), "no K = 1 batch: {widths:?}");
    assert!(
        widths.iter().filter(|&&w| w > 1).count() > widths.len() / 2,
        "requests submitted together rarely coalesced: {widths:?}"
    );
    server.shutdown();
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

/// Two registered matrices that share `row_ptr` but not `col_idx` (a
/// banded matrix and its column rotation) must never share a plan: the
/// structure key covers `col_idx`. Every response equals that matrix's
/// own standalone execute; after warm-up there are two builds, no
/// collisions, and alternating between the two rebuilds nothing.
#[test]
fn shared_row_ptr_matrices_get_their_own_plans() {
    let banded = gen::banded::<f64>(1500, 3, 13);
    let rotated = rotate_columns(&banded, 500);
    assert_eq!(banded.row_ptr(), rotated.row_ptr());
    assert_ne!(banded.col_idx(), rotated.col_idx());
    let server = SpmvServer::start(ServeConfig::default());
    server.register_matrix(1, banded.clone(), strategy());
    server.register_matrix(2, rotated.clone(), strategy());
    let plans = [standalone_plan(&banded, 1), standalone_plan(&rotated, 1)];
    let deadline = Instant::now() + Duration::from_secs(60);
    let serve_and_check = |round: usize| {
        for (m, a) in [&banded, &rotated].into_iter().enumerate() {
            let x = request_vector(a.n_cols(), round * 2 + m);
            let resp = server
                .submit(0, 1 + m as u64, x.clone(), deadline)
                .unwrap()
                .wait()
                .unwrap();
            let mut expect = vec![0.0; a.n_rows()];
            plans[m].execute(a, &x, &mut expect).unwrap();
            assert_eq!(resp.y, expect, "round {round}: matrix {m} got another plan");
        }
    };
    serve_and_check(0);
    let warm = server.stats().cache;
    assert_eq!((warm.builds, warm.collisions), (2, 0));
    for round in 1..=6 {
        serve_and_check(round);
    }
    let after = server.stats().cache;
    assert_eq!(
        (after.builds, after.collisions),
        (2, 0),
        "alternation rebuilt"
    );
    assert_eq!(after.hits, warm.hits + 12);
    server.shutdown();
}
