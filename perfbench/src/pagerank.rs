//! PageRank power iteration over the transposed, out-degree-normalised
//! europe_osm analogue at 0.18× real scale, as a traced probe inside
//! `suite_sweep`'s traced run. It times the layers only a
//! time-to-solution user reaches: the checked `VerifiedPlan::execute`
//! with its per-call O(m) pattern guard, the client's rank update, and
//! compressed index lanes on an operand larger than the LLC.
//!
//! It is not a gated workload: its end-to-end times streamed from DRAM
//! moved by a third with the shared host's slow periods, past any bound
//! the gate allows (see `GLOSSARY.md`). The final ranks and the
//! iteration count must equal a run driven by `spmv_seq`.

use crate::common::{self, bits_eq, secs, Report, RunConfig};
use crate::stats::median;
use crate::trace::Tracer;
use spmv_sparse::CsrMatrix;
use std::time::Instant;

const DAMPING: f32 = 0.85;
const TOLERANCE: f32 = 1e-6;
const MAX_ITERS: usize = 1000;

/// The column-stochastic transition matrix `Pᵀ` of a road graph.
fn transition(gx: usize, gy: usize, seed: u64) -> CsrMatrix<f32> {
    let graph = spmv_sparse::gen::road_network::<f32>(gx, gy, 0.53, seed);
    let out_degree: Vec<f32> = (0..graph.n_rows())
        .map(|i| graph.row_nnz(i).max(1) as f32)
        .collect();
    let mut pt = graph.transpose();
    drop(graph);
    let cols: Vec<u32> = pt.col_idx().to_vec();
    for (v, &c) in pt.values_mut().iter_mut().zip(&cols) {
        *v = 1.0 / out_degree[c as usize];
    }
    pt
}

/// One power-iteration solve; `spmv` computes `next = Pᵀ·rank`. Returns
/// the ranks and the iteration count (`None` if the tolerance was not
/// met).
fn solve(
    n: usize,
    tr: &mut Tracer,
    mut spmv: impl FnMut(&mut Tracer, &[f32], &mut [f32]) -> Result<(), String>,
) -> Result<(Vec<f32>, Option<usize>), String> {
    let mut rank = vec![1.0f32 / n as f32; n];
    let mut next = vec![0.0f32; n];
    let teleport = (1.0 - DAMPING) / n as f32;
    for it in 1..=MAX_ITERS {
        spmv(tr, &rank, &mut next)?;
        let delta = tr.span("pagerank.update", "", || {
            let mut delta = 0.0f32;
            for (r, &nx) in rank.iter_mut().zip(&next) {
                let new = teleport + DAMPING * nx;
                delta += (new - *r).abs();
                *r = new;
            }
            delta
        });
        if delta < TOLERANCE {
            return Ok((rank, Some(it)));
        }
    }
    Ok((rank, None))
}

/// Run the traced probe and report the `pagerank.*` metrics; `triad` is
/// the run's measured bandwidth roof in GB/s.
pub fn layers(cfg: &RunConfig, triad: f64, report: &mut Report) -> Result<(), String> {
    let side = if cfg.tiny { 200 } else { 3000 };
    let pt = transition(side, side, cfg.seed);
    let n = pt.n_rows();
    let mut untraced = Tracer::new(false);
    let t = Instant::now();
    let plan = common::plan_chain(&common::load_model(), &pt, &mut untraced, "pagerank")?;
    let setup_s = secs(t);

    // Reference: the same iteration driven by single-thread spmv_seq.
    let (ref_rank, ref_iters) = solve(n, &mut untraced, |_, r, nx| {
        pt.spmv_seq(r, nx).map_err(|e| e.to_string())
    })?;
    let ref_iters = ref_iters.ok_or("reference PageRank did not converge")?;

    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let (rank, iters) = solve(n, &mut tr, |t, r, nx| {
        t.span("pagerank.execute", "", || plan.execute(&pt, r, nx))
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let solve_s = secs(t);
    report.check(
        iters == Some(ref_iters) && bits_eq(&rank, &ref_rank),
        || format!("PageRank: {iters:?} iterations vs {ref_iters} with spmv_seq, or ranks differ"),
    );

    // The per-call guard: checked minus unchecked execute, alternated on
    // the same plan and input; both must equal spmv_seq.
    let mut y_ref = vec![0.0f32; n];
    pt.spmv_seq(&ref_rank, &mut y_ref)
        .map_err(|e| e.to_string())?;
    let mut y = vec![0.0f32; n];
    let (mut chk, mut unchk) = (Vec::new(), Vec::new());
    for _ in 0..if cfg.tiny { 3 } else { 7 } {
        y.fill(0.0);
        let t = Instant::now();
        let a = plan.execute(&pt, &ref_rank, &mut y).is_ok();
        chk.push(secs(t) * 1e3);
        let a = a && bits_eq(&y, &y_ref);
        y.fill(0.0);
        let t = Instant::now();
        let b = plan.execute_unchecked(&pt, &ref_rank, &mut y).is_ok();
        unchk.push(secs(t) * 1e3);
        let b = b && bits_eq(&y, &y_ref);
        report.check(a && b, || {
            "PageRank guard probe differs from spmv_seq".into()
        });
    }

    let exec = tr.durations("pagerank.execute", None);
    let kernel_ms = median(&unchk);
    let bytes = plan.plan().traffic().total_bytes_per_nnz() * pt.nnz() as f64;
    let gbs = bytes / (kernel_ms / 1e3) / 1e9;
    println!(
        "pagerank probe: {n} rows, {} nnz; set-up {setup_s:.4} s, traced solve {solve_s:.4} s, {ref_iters} iterations",
        pt.nnz()
    );
    report.set("pagerank.iterations", ref_iters as f64);
    report.set("pagerank.execute_ms", median(&exec) / 1e6);
    report.set("pagerank.guard_ms", median(&chk) - kernel_ms);
    report.set(
        "pagerank.update_ms",
        median(&tr.durations("pagerank.update", None)) / 1e6,
    );
    report.set(
        "pagerank.spmv_share",
        exec.iter().sum::<f64>() / 1e9 / solve_s,
    );
    report.set("pagerank.gbs", gbs);
    report.set("pagerank.roof_frac", gbs / triad);
    crate::print_trace_summary(&tr);
    Ok(())
}
