//! Plans executed through the persistent worker team from the
//! situations real callers create: two threads executing different plans
//! at once (one gets the team, the other runs inline), a plan executed
//! inside another parallel region (a nested region), and a sharded plan
//! whose first-touch pass and ring stealing run on the team. Every
//! output is compared bit-for-bit with the sequential CSR reference.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::CsrMatrix;

fn irregular(m: usize, seed: u64) -> CsrMatrix<f64> {
    gen::mixture(
        m,
        m + 200,
        &[
            RowRegime::new(1, 3, 0.5),
            RowRegime::new(8, 40, 0.35),
            RowRegime::new(150, 300, 0.15),
        ],
        true,
        seed,
    )
}

fn verified(a: &CsrMatrix<f64>, config: PlanConfig) -> VerifiedPlan<f64> {
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Serial; 8],
    };
    SpmvPlan::compile_with(a, strategy, Box::new(NativeCpuBackend::new()), config)
        .verify(a)
        .unwrap()
}

fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed + 5) % 19) as f64) - 9.0)
        .collect()
}

fn assert_bit_for_bit(plan: &VerifiedPlan<f64>, a: &CsrMatrix<f64>, seed: u64) {
    let v = probe_vector(a.n_cols(), seed);
    let mut u = vec![f64::NAN; a.n_rows()];
    plan.execute_unchecked(a, &v, &mut u).unwrap();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    assert!(
        u.iter()
            .zip(&reference)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "seed {seed}: plan output differs from spmv_seq"
    );
}

fn small_tiles() -> PlanConfig {
    PlanConfig {
        tile_nnz: 1 << 11,
        ..PlanConfig::default()
    }
}

#[test]
fn two_callers_on_different_plans_stay_bit_for_bit() {
    let a = irregular(900, 3);
    let b = irregular(1_300, 8);
    let pa = verified(&a, small_tiles());
    let pb = verified(
        &b,
        PlanConfig {
            shards: 2,
            ..small_tiles()
        },
    );
    std::thread::scope(|s| {
        s.spawn(|| (0..150).for_each(|i| assert_bit_for_bit(&pa, &a, i)));
        s.spawn(|| (0..150).for_each(|i| assert_bit_for_bit(&pb, &b, i)));
    });
}

#[test]
fn a_plan_inside_a_parallel_region_stays_bit_for_bit() {
    let a = irregular(700, 5);
    let plan = verified(&a, small_tiles());
    spmv_parallel::fused_for_each(8, |t| assert_bit_for_bit(&plan, &a, t as u64));
}

#[test]
fn sharded_first_touch_runs_on_the_team_bit_for_bit() {
    let a = irregular(1_100, 13);
    for shards in [2, 3, 7] {
        // A fresh plan per shard count, so each one runs its first-touch
        // pass; the later executes drain home-first with ring stealing.
        let plan = verified(
            &a,
            PlanConfig {
                shards,
                ..small_tiles()
            },
        );
        assert!(plan.plan().sharded().is_some());
        for seed in 0..20 {
            assert_bit_for_bit(&plan, &a, seed);
        }
    }
}
