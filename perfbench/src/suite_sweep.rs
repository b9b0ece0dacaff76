//! `suite_sweep`: the 16 Table II analogues planned through the paper's
//! deployment path, then timed sweeps of one single-vector
//! `execute_unchecked` per matrix and, separately, one K = 8
//! `execute_batch_unchecked` per matrix. Every output is compared bit
//! for bit with `spmv_seq`. The traced run ends with the PageRank
//! probe of [`crate::pagerank`].

use crate::common::{self, bits_eq, secs, Report, Rng, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use spmv_autotune::prelude::*;
use spmv_sparse::CsrMatrix;
use std::time::Instant;

const K: usize = 8;
const SETUP_REPS: usize = 5;
const TINY_MATRICES: [&str; 4] = ["cryg10000", "whitaker3_dual", "bfly", "dictionary28"];

struct Case {
    name: &'static str,
    a: CsrMatrix<f32>,
    x: Vec<f32>,
    y_ref: Vec<f32>,
    xb: DenseBlock<f32>,
    /// spmv_seq of each column of `xb`, as a K-wide block.
    yb_ref: DenseBlock<f32>,
}

/// Plan every matrix; returns the plans and the chain's total seconds.
fn setup(
    model: &TrainedModel,
    cases: &[Case],
    tr: &mut Tracer,
) -> Result<(Vec<VerifiedPlan<f32>>, f64), String> {
    let t = Instant::now();
    let plans = cases
        .iter()
        .map(|c| common::plan_chain(model, &c.a, tr, c.name))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((plans, secs(t)))
}

/// One timed sweep of single-vector executes; returns its seconds and
/// the seconds of each matrix's execute.
fn sweep_single(
    cases: &[Case],
    plans: &[VerifiedPlan<f32>],
    ys: &mut [Vec<f32>],
    tr: &mut Tracer,
    report: &mut Report,
) -> (f64, Vec<f64>) {
    let mut each = Vec::with_capacity(cases.len());
    let t = Instant::now();
    for ((c, p), y) in cases.iter().zip(plans).zip(ys.iter_mut()) {
        let tc = Instant::now();
        let r = tr.span("plan.execute", c.name, || {
            p.execute_unchecked(&c.a, &c.x, y)
        });
        each.push(secs(tc));
        if r.is_err() {
            report.check(false, || {
                format!("{}: execute_unchecked error {r:?}", c.name)
            });
        }
    }
    let dt = secs(t);
    for (c, y) in cases.iter().zip(ys.iter()) {
        report.check(bits_eq(y, &c.y_ref), || {
            format!("{}: execute_unchecked differs from spmv_seq", c.name)
        });
    }
    (dt, each)
}

/// One timed sweep of K = 8 batched executes; returns its seconds.
fn sweep_batch(
    cases: &[Case],
    plans: &[VerifiedPlan<f32>],
    ys: &mut [DenseBlock<f32>],
    tr: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let t = Instant::now();
    for ((c, p), y) in cases.iter().zip(plans).zip(ys.iter_mut()) {
        let r = tr.span("plan.spmm8", c.name, || {
            p.execute_batch_unchecked(&c.a, &c.xb, y)
        });
        if r.is_err() {
            report.check(false, || format!("{}: execute_batch error {r:?}", c.name));
        }
    }
    let dt = secs(t);
    for (c, y) in cases.iter().zip(ys.iter()) {
        let ok = bits_eq(y.as_slice(), c.yb_ref.as_slice());
        report.check(ok, || {
            format!(
                "{}: a K = 8 column differs from its single-vector result",
                c.name
            )
        });
    }
    dt
}

/// Run the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let mut triad = 0.0;
    if cfg.trace {
        triad = common::triad_gbs(common::triad_array_bytes(cfg.tiny), 5);
        report.set("memory.triad_gbs", triad);
    }
    let model = common::load_model();
    let mut cases = Vec::new();
    for (i, m) in spmv_sparse::suite::suite().into_iter().enumerate() {
        if cfg.tiny && !TINY_MATRICES.contains(&m.name) {
            continue;
        }
        let a = m.generate();
        let mut rng = Rng::new(cfg.seed, i as u64);
        let x = rng.vector(a.n_cols());
        let y_ref = a.spmv_seq_alloc(&x).map_err(|e| e.to_string())?;
        let cols: Vec<Vec<f32>> = (0..K).map(|_| rng.vector(a.n_cols())).collect();
        let ys = cols
            .iter()
            .map(|c| a.spmv_seq_alloc(c).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let xb = DenseBlock::from_columns(&cols);
        let yb_ref = DenseBlock::from_columns(&ys);
        cases.push(Case {
            name: m.name,
            a,
            x,
            y_ref,
            xb,
            yb_ref,
        });
    }
    let flops: f64 = cases.iter().map(|c| 2.0 * c.a.nnz() as f64).sum();

    // Set-up: the predict → compile → verify chain over all matrices.
    // The first runs here; an untraced run repeats it at even steps of
    // the timed window, so its median samples the host over the whole
    // run rather than over a few seconds.
    let mut untraced = Tracer::new(false);
    let (mut plans, s) = setup(&model, &cases, &mut untraced)?;
    let mut setup_s = vec![s];
    let mut tr = Tracer::new(cfg.trace);
    if cfg.trace {
        plans.clear();
        let (p, s) = setup(&model, &cases, &mut tr)?;
        // One more untraced set-up, so the traced one sits between two.
        drop(p);
        let (p, after) = setup(&model, &cases, &mut untraced)?;
        plans = p;
        setup_s.push(after);
        report.set(
            "trace.overhead_setup_s",
            common::setup_overhead_s(&tr, s, &setup_s),
        );
        common::setup_layer_metrics(&tr, report);
    }

    // Each K = 8 column through the single-vector path equals spmv_seq,
    // so a matching batch column equals the single-vector result.
    for (c, p) in cases.iter().zip(&plans) {
        for j in 0..K {
            let mut y = vec![0.0f32; c.a.n_rows()];
            let ok = p.execute_unchecked(&c.a, &c.xb.column(j), &mut y).is_ok()
                && bits_eq(&y, &c.yb_ref.column(j));
            report.check(ok, || {
                format!("{}: column {j} single-vector result", c.name)
            });
        }
    }

    let mut ys: Vec<Vec<f32>> = cases.iter().map(|c| vec![0.0; c.a.n_rows()]).collect();
    let mut yb: Vec<DenseBlock<f32>> = cases
        .iter()
        .map(|c| DenseBlock::zeros(c.a.n_rows(), K))
        .collect();
    for _ in 0..2 {
        sweep_single(&cases, &plans, &mut ys, &mut untraced, report);
        sweep_batch(&cases, &plans, &mut yb, &mut untraced, report);
    }
    // Timed window: single and batched sweeps alternate; a traced run
    // alternates traced and untraced pairs to measure the overhead.
    let (mut single, mut batch, mut single_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_matrix: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let t0 = Instant::now();
    let mut round = 0usize;
    while secs(t0) < cfg.seconds || single.is_empty() {
        let due = setup_s.len() as f64 * cfg.seconds / SETUP_REPS as f64;
        if !cfg.trace && setup_s.len() < SETUP_REPS && secs(t0) >= due {
            plans.clear();
            let (p, s) = setup(&model, &cases, &mut untraced)?;
            plans = p;
            setup_s.push(s);
            sweep_single(&cases, &plans, &mut ys, &mut untraced, report);
            sweep_batch(&cases, &plans, &mut yb, &mut untraced, report);
        }
        let traced = cfg.trace && round % 2 == 1;
        let t: &mut Tracer = if traced { &mut tr } else { &mut untraced };
        let (s, each) = sweep_single(&cases, &plans, &mut ys, t, report);
        let b = sweep_batch(&cases, &plans, &mut yb, t, report);
        if traced {
            single_traced.push(s * 1e3);
        } else {
            single.push(s * 1e3);
            batch.push(b);
            for (v, e) in per_matrix.iter_mut().zip(each) {
                v.push(e);
            }
        }
        round += 1;
    }

    let p50 = median(&single);
    println!(
        "suite_sweep ({} matrices, {:.3e} flops per sweep):",
        cases.len(),
        flops
    );
    common::print_setup(&setup_s);
    common::print_timing("sweep_ms (p50_ms)", "ms", &single);
    // Every matrix weighs the same here, while the sweep time is
    // dominated by the largest ones.
    let log_sum: f64 = cases
        .iter()
        .zip(&per_matrix)
        .map(|(c, t)| (2.0 * c.a.nnz() as f64 / median(t) / 1e9).ln())
        .sum();
    let gflops = (log_sum / cases.len() as f64).exp();
    let spmm8 = K as f64 * flops / median(&batch) / 1e9;
    println!(
        "  spmv_gflops: {:.4} GFLOP/s (sweep flops / median sweep time)",
        flops / (p50 / 1e3) / 1e9
    );
    println!("  gflops: {gflops:.4} GFLOP/s (geometric mean of the per-matrix rates)");
    println!(
        "  spmm8_gflops: {spmm8:.4} GFLOP/s (median of {} K = 8 sweeps)",
        batch.len()
    );
    report.set("setup_s", median(&setup_s));
    report.set("p50_ms", p50);
    report.set("gflops", gflops);
    report.set("spmm8_gflops", spmm8);

    if cfg.trace {
        report.set("trace.overhead_p50_ms", median(&single_traced) - p50);
        for (c, p) in cases.iter().zip(&plans) {
            let exec_ns = median(&tr.durations("plan.execute", Some(c.name)));
            let spmm_ns = median(&tr.durations("plan.spmm8", Some(c.name)));
            let bpn = p.plan().traffic().total_bytes_per_nnz();
            let gbs = bpn * c.a.nnz() as f64 / exec_ns;
            report.set(format!("plan.execute_us.{}", c.name), exec_ns / 1e3);
            report.set(format!("plan.spmm8_us.{}", c.name), spmm_ns / 1e3);
            report.set(format!("plan.bytes_per_nnz.{}", c.name), bpn);
            report.set(format!("plan.gbs.{}", c.name), gbs);
            report.set(format!("plan.roof_frac.{}", c.name), gbs / triad);
        }
        let mut seq = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            for (c, y) in cases.iter().zip(ys.iter_mut()) {
                c.a.spmv_seq(&c.x, y).map_err(|e| e.to_string())?;
            }
            seq.push(flops / secs(t) / 1e9);
        }
        report.set("baseline.seq_gflops", median(&seq));
        crate::print_trace_summary(&tr);
        drop((plans, cases, ys, yb));
        crate::pagerank::layers(cfg, triad, report)?;
    }
    Ok(())
}
