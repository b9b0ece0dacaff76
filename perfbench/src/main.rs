//! The SpMV benchmark: one command runs one workload and prints every
//! metric by name with its unit, then a JSON result as the last line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_sweep|serve_mixed --seed N \
//!     --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and the
//! tracing overhead. `GLOSSARY.md` defines every metric.

mod common;
mod metrics;
mod pagerank;
mod serve_mixed;
mod stats;
mod suite_sweep;
mod trace;

use common::{Report, RunConfig};
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["suite_sweep", "serve_mixed"];

/// Print where traced time went: per span name, count, total and self.
pub fn print_trace_summary(tr: &Tracer) {
    println!("  trace summary (span: count, total ms, self ms):");
    for (name, (count, total, own)) in tr.summary() {
        println!(
            "    {name}: {count}, {:.3}, {:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Parse the command line into a workload name and run options.
fn parse(args: &[String]) -> (String, RunConfig) {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            cfg.tiny = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => cfg.seed = v,
                Err(_) => bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => cfg.seconds = v,
                _ => bad(),
            },
            "--trace" => match value.as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => bad(),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, cfg)
}

/// Run one workload and return its report.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "suite_sweep" => suite_sweep::run(cfg, &mut report)?,
        "serve_mixed" => serve_mixed::run(cfg, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = parse(&args);
    common::print_machine(&cfg, &workload);
    let report = match run(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    let names = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "# operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", report.json(&names));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Report {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.3,
            trace,
            tiny: true,
        };
        let r = run(workload, &cfg).expect("workload runs");
        assert!(r.attempted > 0, "{workload}: nothing checked");
        assert_eq!(r.failed, 0, "{workload}: failed operations");
        r
    }

    fn assert_all_set(r: &Report, names: &[(String, &str)], workload: &str) {
        for (n, _) in names {
            assert!(r.get(n).is_some(), "{workload}: {n} not reported");
        }
    }

    #[test]
    fn every_workload_reports_all_end_to_end_metrics_in_tiny_mode() {
        for w in WORKLOADS {
            let r = tiny(w, false);
            assert_all_set(&r, &metrics::end_to_end(), w);
            for (n, _) in metrics::end_to_end() {
                let v = r.get(&n).unwrap();
                assert!(v > 0.0, "{w}: {n} = {v}");
            }
        }
    }

    #[test]
    fn traced_runs_report_their_layers_and_exact_counts() {
        let s1 = tiny("suite_sweep", true);
        assert!(s1.get("plan.execute_us.cryg10000").unwrap() > 0.0);
        assert!(s1.get("memory.triad_gbs").unwrap() > 0.0);
        assert!(s1.get("trace.overhead_setup_s").is_some());
        assert!(s1.get("pagerank.guard_ms").is_some());
        let s2 = tiny("suite_sweep", true);
        assert!(s1.get("pagerank.iterations").unwrap() > 1.0);
        assert_eq!(s1.get("pagerank.iterations"), s2.get("pagerank.iterations"));
        let v = tiny("serve_mixed", true);
        assert_eq!(v.get("cache.builds"), Some(2.0));
        assert_eq!(v.get("serve.failed"), Some(0.0));
        assert!(v.get("plan.spmm_us.roadNet-CA").unwrap() > 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("setup_s", 0.5);
        let line = r.json(&metrics::end_to_end());
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn arguments_parse() {
        let args: Vec<String> = [
            "--workload",
            "serve_mixed",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (w, cfg) = parse(&args);
        assert_eq!(w, "serve_mixed");
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.tiny),
            (3, 10.0, true, false)
        );
    }
}
