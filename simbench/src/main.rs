//! simbench — host-time benchmark of the mindgap simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path simbench/Cargo.toml -- --fingerprints --seed N
//! ```
//!
//! The product is the simulator, so every time here is host wall time;
//! simulated statistics are the model's output, pinned as a correctness
//! check and never timed. `--trace 0` reports the end-to-end metrics of
//! one workload, `--trace 1` the per-layer metrics and the reconciliation
//! (see README.md). Each metric prints as `name value unit`; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every output check passed.
//!
//! `--fingerprints` prints the golden-table lines of every unprobed
//! workload for `--seed` (see `golden/e2e_fingerprints.txt`).

mod calib;
mod check;
mod e2e;
mod heap;
mod layers;
mod reconcile;
mod workloads;

use std::process::ExitCode;

use check::{fingerprint, Checker};
use systems::ServerSystem;
use workloads::{Workload, ASSEMBLIES, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: String, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        fingerprints: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--fingerprints" {
            args.fingerprints = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.fingerprints {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The metric names a run reports, in order: the end-to-end metrics, or
/// with `trace` the per-layer ones. `BENCHMARK.json` lists the same.
fn declared(trace: bool) -> Vec<String> {
    if !trace {
        let mut names: Vec<String> = ASSEMBLIES
            .iter()
            .map(|a| format!("{a}.ns_per_req"))
            .collect();
        names.extend(["setup_s".to_string(), "peak_heap_mib".to_string()]);
        return names;
    }
    let mut names: Vec<String> = layers::NAMES.iter().map(|n| n.to_string()).collect();
    for a in ASSEMBLIES {
        names.extend(
            reconcile::ops(a)
                .iter()
                .map(|op| format!("{a}.ops_per_req.{}", op.name)),
        );
        names.extend(reconcile::SUMMARY.iter().map(|s| format!("{a}.{s}")));
    }
    names
}

/// Print the golden-table lines of every unprobed workload for `seed`.
fn print_fingerprints(seed: u64) {
    for w in WORKLOADS.iter().filter(|w| !w.probed) {
        for sys in w.assemblies() {
            let m = sys.run(w.spec(seed), w.probe());
            println!("{seed} {} {} {:016x}", w.name, sys.name(), fingerprint(&m));
        }
    }
}

fn json(correct: bool, chk: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value fails the run anyway.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.attempted,
        chk.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.fingerprints {
        print_fingerprints(args.seed);
        return ExitCode::SUCCESS;
    }
    let w = args.workload.expect("checked by parse_args");
    let mut chk = Checker::default();
    let metrics = if args.trace {
        e2e::traced(w, args.seed, args.seconds, &mut chk)
    } else {
        e2e::timed(w, args.seed, args.seconds, &mut chk)
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    chk.check(names == declared(args.trace), || {
        "the metrics reported differ from the declared list".into()
    });
    let finite = metrics.iter().all(|m| m.value.is_finite());
    chk.check(finite, || "a metric is not a finite number".into());
    let correct = chk.failed == 0;
    for m in &metrics {
        println!("{:<48} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(correct, &chk, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one array section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside simbench/");
        let start = text
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_runs_report() {
        assert_eq!(listed("end_to_end"), declared(false));
        assert_eq!(listed("per_layer"), declared(true));
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads"), names);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fig6-tiny --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("fig6-tiny"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload fig6-tiny --trace 2",
            "--workload fig6-tiny --seconds 0",
            "--workload fig6-tiny --seed -1",
            "--workload fig6-tiny --seed",
            "--workload fig6-tiny --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
