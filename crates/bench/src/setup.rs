//! Shared experiment setup: suite loading, model training, env knobs.

use spmv_autotune::model_io::{load_model_file, save_model_file};
use spmv_autotune::prelude::*;
use spmv_autotune::training::TrainerConfig;
use spmv_sparse::corpus::CorpusConfig;
use spmv_sparse::suite::{suite, SuiteMatrix};
use spmv_sparse::CsrMatrix;
use std::path::PathBuf;
use std::time::Instant;

/// Read a `usize` knob from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The thread sweep every throughput report runs: powers of two up to
/// the process thread cap, plus the cap itself — `{1, 2, 4, …, N}`.
/// Scaling efficiency at each point is measured against the 1-thread
/// entry, which is always present.
pub fn sweep_threads() -> Vec<usize> {
    let cap = spmv_parallel::num_threads().max(1);
    let mut sweep = Vec::new();
    let mut t = 1usize;
    while t < cap {
        sweep.push(t);
        t *= 2;
    }
    sweep.push(cap);
    sweep
}

/// `gflops(t) / (t · gflops(1))`: the fraction of perfect linear scaling
/// a multi-thread point achieves. 0 when the baseline is degenerate.
pub fn scaling_efficiency(threads: usize, gflops: f64, gflops_1: f64) -> f64 {
    if gflops_1 <= 0.0 || threads == 0 {
        return 0.0;
    }
    gflops / (threads as f64 * gflops_1)
}

/// Wall seconds for `iters` calls of `f`: two warm-up calls (page in
/// slabs, populate value caches), then the best of three repetitions —
/// the minimum is the standard robust estimator for throughput on a
/// machine with background noise.
pub fn time_loop(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// GFLOP/s of `iters` SpMVs over `nnz` non-zeros (2 flops each) taking
/// `secs` in total. 0 when no time was measured.
pub fn gflops(nnz: usize, iters: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    2.0 * nnz as f64 * iters as f64 / secs / 1e9
}

/// Escape `s` for embedding in a JSON string literal (the bench names
/// carry no control characters, so quotes and backslashes suffice).
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A generated suite matrix with its metadata.
pub struct SuiteCase {
    /// Table II metadata.
    pub meta: SuiteMatrix,
    /// The generated analogue.
    pub matrix: CsrMatrix<f32>,
}

/// Generate all 16 Table II analogues (prints progress — generation of
/// the largest entries takes a few seconds).
pub fn load_suite() -> Vec<SuiteCase> {
    suite()
        .into_iter()
        .map(|meta| {
            eprintln!("  generating {} …", meta.name);
            let matrix = meta.generate();
            SuiteCase { meta, matrix }
        })
        .collect()
}

fn model_cache_path() -> PathBuf {
    std::env::var("SPMV_MODEL_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/spmv-model.txt"))
}

/// Train (or load from the on-disk cache) the two-stage model used by
/// the prediction-driven experiments. `SPMV_CORPUS_COUNT` overrides the
/// corpus size; the cache lives at `SPMV_MODEL_CACHE`
/// (default `target/spmv-model.txt`) and is keyed implicitly by being
/// deleted when you want a retrain. Returns the training report only
/// when training actually ran.
pub fn train_or_load_model(device: &GpuDevice) -> (TrainedModel, Option<TrainingReport>) {
    let path = model_cache_path();
    if path.exists() {
        match load_model_file(&path) {
            Ok(m) => {
                eprintln!("loaded cached model from {}", path.display());
                return (m, None);
            }
            Err(e) => eprintln!("cache at {} unreadable ({e}); retraining", path.display()),
        }
    }
    let count = env_usize("SPMV_CORPUS_COUNT", 300);
    let config = TrainerConfig {
        corpus: CorpusConfig {
            count,
            min_rows: 500,
            max_rows: 4_000,
            seed: 0x5eed_c0de,
        },
        ..Default::default()
    };
    eprintln!("training two-stage model on {count} corpus matrices …");
    let t0 = std::time::Instant::now();
    let (model, report) = Trainer::with_config(device.clone(), config).train();
    eprintln!("  trained in {:.1?}", t0.elapsed());
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match save_model_file(&model, &path) {
        Ok(()) => eprintln!("  cached model at {}", path.display()),
        Err(e) => eprintln!("  could not cache model: {e}"),
    }
    (model, Some(report))
}

/// Back-compat alias used by binaries that always want a report: trains
/// fresh when the cache was hit but no report is available.
pub fn train_default_model(device: &GpuDevice) -> (TrainedModel, TrainingReport) {
    match train_or_load_model(device) {
        (m, Some(r)) => (m, r),
        (m, None) => {
            // Cache hit: synthesise an empty-ish report by re-evaluating
            // is wasteful; instead tell the caller to delete the cache.
            eprintln!(
                "note: model came from cache; error rates below reflect a fresh quick training"
            );
            drop(m);
            let _ = std::fs::remove_file(model_cache_path());
            match train_or_load_model(device) {
                (m, Some(r)) => (m, r),
                _ => unreachable!("training after cache removal yields a report"),
            }
        }
    }
}
