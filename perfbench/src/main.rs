//! The vsync benchmark of record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of wall-clock time, checks every output against
//! what the load generator sent (or a property virtual synchrony promises), and prints one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
//! are the end-to-end ones, measured on the stock runtimes; with `--trace 1` they are the
//! per-layer ones, from a traced run (see `trace.rs` and the README).

mod check;
mod layers;
mod sim;
mod stats;
mod threaded;
mod trace;

use stats::{result_line, Metrics};
use threaded::Load;

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

const WORKLOADS: [&str; 4] = [
    "paced-multicast",
    "saturated-multicast",
    "sim-replicated-service",
    "sim-membership-churn",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (seed, secs, tr) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "paced-multicast" => threaded::run(Load::Paced, seed, secs, tr),
        "saturated-multicast" => threaded::run(Load::Saturated, seed, secs, tr),
        "sim-replicated-service" => sim::run_service(seed, secs, tr),
        "sim-membership-churn" => sim::run_churn(seed, secs, tr),
        _ => unreachable!("workload names are validated by parse"),
    };
    if tr {
        // Spans go next to the build output, which every checkout already ignores.
        let path = std::path::PathBuf::from(".bench_build")
            .join("perfbench-trace")
            .join(format!("{}-seed{seed}.tsv", args.workload));
        match trace::write_spans(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values listed in `section` of BENCHMARK.json (up to section `next`).
    fn declared(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = next.map_or(json.len(), |n| {
            start
                + json[start..]
                    .find(&format!("\"{n}\""))
                    .expect("next section present")
        });
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let workloads = declared(&json, "workloads", Some("end_to_end"));
        assert_eq!(workloads, WORKLOADS);
        let e2e = declared(&json, "end_to_end", Some("per_layer"));
        let layers = declared(&json, "per_layer", None);
        for (w, want) in [(false, &e2e), (true, &layers)]
            .iter()
            .flat_map(|(t, want)| WORKLOADS.iter().map(move |w| ((*w, *t), *want)))
        {
            let out = match w.0 {
                "paced-multicast" => threaded::run(Load::Paced, 3, 1, w.1),
                "saturated-multicast" => threaded::run(Load::Saturated, 3, 1, w.1),
                "sim-replicated-service" => sim::run_service(3, 1, w.1),
                _ => sim::run_churn(3, 1, w.1),
            };
            assert!(out.correct, "{w:?} failed its checks");
            let mut got: Vec<String> = out.metrics.0.iter().map(|m| m.name.clone()).collect();
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{w:?}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        assert!(args("--workload paced-multicast --seed 3 --seconds 5 --trace 1").is_ok());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload paced-multicast --trace 2").is_err());
        assert!(args("--workload paced-multicast --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
