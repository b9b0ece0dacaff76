//! Pieces every workload shares: run options, a seeded generator, the
//! paper's planning chain, bit-exact comparison, the result report, the
//! machine record and the STREAM-triad bandwidth probe.

use crate::stats;
use crate::trace::Tracer;
use spmv_autotune::binning::bin_matrix;
use spmv_autotune::prelude::*;
use spmv_sparse::{CsrMatrix, FeatureSet, MatrixFeatures};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: every input the program receives derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Small inputs and short windows, for the benchmark's own tests.
    pub tiny: bool,
}

/// SplitMix64: a small, seedable generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector entry in `[0.1, 1.0)`, bounded away from zero like the
    /// repository's generators.
    pub fn value(&mut self) -> f32 {
        (0.1 + 0.9 * self.unit()) as f32
    }

    /// `n` vector entries.
    pub fn vector(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.value()).collect()
    }

    /// Exponential variate with mean 1.
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// The committed two-stage model the paper deploys (`models/tiny.txt`).
pub fn load_model() -> TrainedModel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../models/tiny.txt");
    load_model_file(&path).unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()))
}

/// The paper's deployment path for one matrix: predict the strategy,
/// compile the plan on the native CPU backend, verify it. When tracing,
/// feature extraction and binning are also called on their own (the
/// compile performs both internally) so their cost can be separated out.
pub fn plan_chain(
    model: &TrainedModel,
    a: &CsrMatrix<f32>,
    tr: &mut Tracer,
    key: &str,
) -> Result<VerifiedPlan<f32>, String> {
    if tr.enabled() {
        tr.span("features.extract", key, || {
            std::hint::black_box(MatrixFeatures::extract(a, FeatureSet::TableI))
        });
    }
    let strategy = tr.span("training.predict", key, || model.predict_strategy(a));
    if tr.enabled() {
        tr.span("binning.bin", key, || {
            std::hint::black_box(bin_matrix(a, strategy.binning))
        });
    }
    let plan = tr.span("plan.compile", key, || {
        SpmvPlan::compile_with(
            a,
            strategy,
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
    });
    tr.span("verify.verify", key, || plan.verify(a))
        .map_err(|e| format!("{key}: verify failed: {e}"))
}

/// Tracing overhead of a set-up chain: the traced chain's seconds minus
/// the untraced median, less the standalone extract and bin probes the
/// traced chain adds (their work is not tracing cost).
pub fn setup_overhead_s(tr: &Tracer, traced_s: f64, untraced: &[f64]) -> f64 {
    let probes_ns: f64 = ["features.extract", "binning.bin"]
        .iter()
        .flat_map(|name| tr.durations(name, None))
        .sum();
    traced_s - probes_ns / 1e9 - stats::median(untraced)
}

/// Milliseconds per layer of the set-up chain, summed over its spans.
pub fn setup_layer_metrics(tr: &Tracer, report: &mut Report) {
    let total = |name| tr.durations(name, None).iter().sum::<f64>() / 1e6;
    let extract = total("features.extract");
    let bin = total("binning.bin");
    let compile = total("plan.compile");
    report.set("features.extract_ms", extract);
    report.set("training.predict_ms", total("training.predict"));
    report.set("binning.bin_ms", bin);
    report.set("plan.compile_ms", compile);
    report.set("plan.pack_ms", compile - extract - bin);
    report.set("verify.verify_ms", total("verify.verify"));
}

/// Bit-for-bit equality of two result vectors.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The result of one run: metric values and operation counts.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Operations attempted (each one's output checked).
    pub attempted: u64,
    /// Operations that failed: a wrong output, a refused submit or an
    /// error result.
    pub failed: u64,
}

impl Report {
    /// Set a metric's value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }

    /// The JSON result line for the metrics in `names` (name, unit).
    pub fn json(&self, names: &[(String, &'static str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Print a timing's median, tail and spread with its sample count.
pub fn print_timing(name: &str, unit: &str, values: &[f64]) {
    let t = stats::tail(values);
    let (q1, q3) = stats::quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "  {name}: median {:.4} {unit}, p{} {:.4} {unit}, IQR [{q1:.4}, {q3:.4}] = {:.3} of median, min {min:.4} (n = {})",
        stats::median(values),
        t.pct,
        t.value,
        stats::iqr_share(values),
        t.n
    );
}

/// Print the set-up repetitions and their median.
pub fn print_setup(values: &[f64]) {
    let reps: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!(
        "  setup_s: median {:.4} s of [{}]",
        stats::median(values),
        reps.join(", ")
    );
}

/// Last-level cache size in bytes, from sysfs (0 when unknown).
pub fn llc_bytes() -> usize {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(dirs) = std::fs::read_dir(base) else {
        return 0;
    };
    let mut best = (0u32, 0usize);
    for d in dirs.flatten() {
        let read = |f: &str| std::fs::read_to_string(d.path().join(f)).unwrap_or_default();
        let level: u32 = read("level").trim().parse().unwrap_or(0);
        let size = read("size");
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().unwrap_or(0) * 1024 * 1024,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Bytes per triad array: four times the last-level cache (at least
/// 64 MiB; 4 MiB in tiny mode).
pub fn triad_array_bytes(tiny: bool) -> usize {
    if tiny {
        4 << 20
    } else {
        (4 * llc_bytes()).max(64 << 20)
    }
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(c) = std::fs::read_to_string(root.join(".git").join(reference)) {
        return c.trim().to_string();
    }
    let packed = std::fs::read_to_string(root.join(".git/packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Print the machine and set-up record every result carries.
pub fn print_machine(cfg: &RunConfig, workload: &str) {
    println!(
        "# perfbench {workload}: seed {} seconds {} trace {} tiny {}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.tiny
    );
    println!(
        "# machine: nproc {} pool_workers {} llc_bytes {} triad_array_bytes {} commit {}",
        spmv_parallel::machine_threads(),
        spmv_parallel::num_threads(),
        llc_bytes(),
        triad_array_bytes(cfg.tiny),
        commit()
    );
    println!(
        "# thread sweeps omitted: {} hardware threads; the executor runs at the default placement",
        spmv_parallel::machine_threads()
    );
}

/// STREAM triad `a = b + s·c` over `f64` arrays of `array_bytes` each,
/// split across the executor's worker count; median GB/s of `reps`
/// passes, counting 24 bytes per element (two reads, one write).
pub fn triad_gbs(array_bytes: usize, reps: usize) -> f64 {
    let n = array_bytes / 8;
    let workers = spmv_parallel::num_threads().max(1);
    let chunk = n.div_ceil(workers);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    // First touch from the workers that will stream each chunk.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        rates.push(24.0 * n as f64 / secs(t) / 1e9);
    }
    std::hint::black_box(&a);
    stats::median(&rates)
}
