//! The metric names the benchmark reports, with units. They must match
//! `BENCHMARK.json` exactly (a test checks it); `GLOSSARY.md` defines
//! each one.

/// The Table II analogues, in suite order (per-matrix kernel metrics).
pub fn suite_names() -> Vec<&'static str> {
    spmv_sparse::suite::suite().iter().map(|m| m.name).collect()
}

/// The two served matrices: the hot, tall one and the cold, wide one.
pub const SERVED: [&str; 2] = ["roadNet-CA", "crankseg_2"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("gflops", "GFLOP/s"),
    ("spmm8_gflops", "GFLOP/s"),
];

/// End-to-end metrics as owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Per-layer metrics, reported by every traced run. A layer the
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: &str, u: &'static str| v.push((n.to_string(), u));
    for (n, u) in [
        ("features.extract_ms", "ms"),
        ("training.predict_ms", "ms"),
        ("binning.bin_ms", "ms"),
        ("plan.compile_ms", "ms"),
        ("plan.pack_ms", "ms"),
        ("verify.verify_ms", "ms"),
        ("memory.triad_gbs", "GB/s"),
        ("baseline.seq_gflops", "GFLOP/s"),
    ] {
        push(n, u);
    }
    for m in suite_names() {
        push(&format!("plan.execute_us.{m}"), "us");
        push(&format!("plan.spmm8_us.{m}"), "us");
        push(&format!("plan.bytes_per_nnz.{m}"), "B/nnz");
        push(&format!("plan.gbs.{m}"), "GB/s");
        push(&format!("plan.roof_frac.{m}"), "ratio");
    }
    for (n, u) in [
        ("pagerank.iterations", "count"),
        ("pagerank.execute_ms", "ms"),
        ("pagerank.guard_ms", "ms"),
        ("pagerank.update_ms", "ms"),
        ("pagerank.spmv_share", "ratio"),
        ("pagerank.gbs", "GB/s"),
        ("pagerank.roof_frac", "ratio"),
        ("serve.submit_us", "us"),
        ("serve.gen_late_ms", "ms"),
        ("serve.batches", "count"),
        ("serve.occupancy_mean", "count"),
        ("cache.hit_rate", "ratio"),
        ("cache.builds", "count"),
    ] {
        push(n, u);
    }
    for m in SERVED {
        push(&format!("cache.lookup_us.{m}"), "us");
        push(&format!("dense_block.gather_us.{m}"), "us");
        push(&format!("plan.spmm_us.{m}"), "us");
        push(&format!("dense_block.scatter_us.{m}"), "us");
    }
    for (n, u) in [
        ("serve.wait_ms", "ms"),
        ("serve.update_values_ms", "ms"),
        ("serve.failed", "count"),
        ("trace.overhead_setup_s", "s"),
        ("trace.overhead_p50_ms", "ms"),
    ] {
        push(n, u);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `key` in `BENCHMARK.json`, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                    let rest = &entry[at..];
                    let rest = &rest[rest.find('"').expect("value") + 1..];
                    rest[..rest.find('"').expect("value end")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json_and_fit_the_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(end_to_end()));
        assert_eq!(listed(&json, "per_layer"), own(per_layer()));
        let mut all: Vec<String> = end_to_end().into_iter().map(|(n, _)| n).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(per_layer().len() <= 128);
        for n in &all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
