//! `mindgap` — command-line front end for the simulation.
//!
//! ```text
//! mindgap <system> [options]
//!
//! systems:
//!   offload    Shinjuku-Offload (dispatcher on the SmartNIC)   [default]
//!   shinjuku   vanilla Shinjuku (dispatcher on a host core)
//!   rss        IX-style RSS run-to-completion
//!   stealing   ZygOS-style RSS + work stealing
//!   flowdir    MICA-style Flow Director
//!   erss       Elastic RSS (us-scale core provisioning)
//!   ideal      Shinjuku-Offload on the ideal NIC (ASIC + coherent memory)
//!
//! options:
//!   --rps N            offered load, requests/second        [300000]
//!   --dist SPEC        fixed:<dur> | bimodal | exp:<dur> |
//!                      lognormal:<dur>:<sigma> | pareto:<dur>:<alpha>:<cap>
//!                                                           [bimodal]
//!   --workers N        worker cores                         [4]
//!   --cap N            outstanding requests per worker      [4]
//!   --slice DUR|off    preemption time slice                [10us]
//!   --body N           request body bytes                   [64]
//!   --measure-ms N     measurement window, milliseconds     [50]
//!   --seed N           RNG seed                             [1]
//!
//! durations: 500ns, 5us, 10ms, 1s
//! ```

use mindgap::nicsched::{params, NicProfile};
use mindgap::sim::SimDuration;
use mindgap::systems::baseline::{BaselineConfig, BaselineKind};
use mindgap::systems::offload::OffloadConfig;
use mindgap::systems::shinjuku::ShinjukuConfig;
use mindgap::systems::{ProbeConfig, ServerSystem};
use mindgap::workload::{RunMetrics, ServiceDist, WorkloadSpec};

fn usage() -> ! {
    eprint!("{}", USAGE);
    std::process::exit(2);
}

/// `--help` or `-h` anywhere on the command line asks for the usage.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

const USAGE: &str = "\
usage: mindgap <system> [options]

systems: offload (default) | shinjuku | rss | stealing | flowdir | erss | ideal

options:
  --rps N            offered load, requests/second        [300000]
  --dist SPEC        fixed:<dur> | bimodal | exp:<dur> |
                     lognormal:<dur>:<sigma> | pareto:<dur>:<alpha>:<cap>
                                                          [bimodal]
  --workers N        worker cores                         [4]
  --cap N            outstanding requests per worker      [4]
  --slice DUR|off    preemption time slice                [10us]
  --body N           request body bytes                   [64]
  --measure-ms N     measurement window, milliseconds     [50]
  --seed N           RNG seed                             [1]

durations: 500ns, 5us, 10ms, 1s
";

/// Parse a human duration: `500ns`, `2.56us`, `10ms`, `1s`.
fn parse_duration(s: &str) -> Option<SimDuration> {
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let v: f64 = num.parse().ok()?;
    if v < 0.0 {
        return None;
    }
    let ns = match unit {
        "ns" => v,
        "us" => v * 1e3,
        "ms" => v * 1e6,
        "s" => v * 1e9,
        _ => return None,
    };
    Some(SimDuration::from_nanos(ns.round() as u64))
}

/// Parse a distribution spec (see usage).
fn parse_dist(s: &str) -> Option<ServiceDist> {
    let mut parts = s.split(':');
    let kind = parts.next()?;
    let dist = match kind {
        "bimodal" => ServiceDist::paper_bimodal(),
        "fixed" => ServiceDist::Fixed(parse_duration(parts.next()?)?),
        "exp" => ServiceDist::Exponential {
            mean: parse_duration(parts.next()?)?,
        },
        "lognormal" => ServiceDist::Lognormal {
            mean: parse_duration(parts.next()?)?,
            sigma: parts.next()?.parse().ok()?,
        },
        "pareto" => ServiceDist::Pareto {
            scale: parse_duration(parts.next()?)?,
            alpha: parts.next()?.parse().ok()?,
            cap: parse_duration(parts.next()?)?,
        },
        _ => return None,
    };
    parts.next().is_none().then_some(dist)
}

struct Options {
    system: String,
    rps: f64,
    dist: ServiceDist,
    workers: usize,
    cap: u32,
    slice: Option<SimDuration>,
    body: u16,
    measure_ms: u64,
    seed: u64,
}

fn parse_args(args: &[String]) -> Option<Options> {
    let mut opts = Options {
        system: "offload".into(),
        rps: 300_000.0,
        dist: ServiceDist::paper_bimodal(),
        workers: 4,
        cap: 4,
        slice: Some(params::TIME_SLICE),
        body: 64,
        measure_ms: 50,
        seed: 1,
    };
    let mut it = args.iter();
    let mut system_set = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rps" => opts.rps = it.next()?.parse().ok().filter(|v| *v > 0.0)?,
            "--dist" => opts.dist = parse_dist(it.next()?)?,
            "--workers" => opts.workers = it.next()?.parse().ok().filter(|v| *v > 0)?,
            "--cap" => opts.cap = it.next()?.parse().ok().filter(|v| *v > 0)?,
            "--slice" => {
                let v = it.next()?;
                opts.slice = if v == "off" {
                    None
                } else {
                    Some(parse_duration(v)?)
                };
            }
            "--body" => opts.body = it.next()?.parse().ok()?,
            "--measure-ms" => opts.measure_ms = it.next()?.parse().ok().filter(|v| *v > 0)?,
            "--seed" => opts.seed = it.next()?.parse().ok()?,
            s if !s.starts_with('-') && !system_set => {
                opts.system = s.to_string();
                system_set = true;
            }
            _ => return None,
        }
    }
    Some(opts)
}

fn run(opts: &Options) -> Option<RunMetrics> {
    let spec = WorkloadSpec {
        offered_rps: opts.rps,
        dist: opts.dist,
        body_len: opts.body,
        warmup: SimDuration::from_millis(5),
        measure: SimDuration::from_millis(opts.measure_ms),
        seed: opts.seed,
    };
    let m = match opts.system.as_str() {
        "offload" => OffloadConfig {
            time_slice: opts.slice,
            ..OffloadConfig::paper(opts.workers, opts.cap)
        }
        .run(spec, ProbeConfig::disabled()),
        "ideal" => OffloadConfig {
            time_slice: opts.slice,
            profile: NicProfile::ideal(),
            ..OffloadConfig::paper(opts.workers, opts.cap)
        }
        .run(spec, ProbeConfig::disabled()),
        "shinjuku" => ShinjukuConfig {
            workers: opts.workers,
            time_slice: opts.slice,
            ..ShinjukuConfig::paper(opts.workers)
        }
        .run(spec, ProbeConfig::disabled()),
        "rss" => BaselineConfig {
            workers: opts.workers,
            kind: BaselineKind::Rss,
        }
        .run(spec, ProbeConfig::disabled()),
        "stealing" => BaselineConfig {
            workers: opts.workers,
            kind: BaselineKind::RssStealing,
        }
        .run(spec, ProbeConfig::disabled()),
        "flowdir" => BaselineConfig {
            workers: opts.workers,
            kind: BaselineKind::FlowDirector,
        }
        .run(spec, ProbeConfig::disabled()),
        "erss" => BaselineConfig {
            workers: opts.workers,
            kind: BaselineKind::ElasticRss,
        }
        .run(spec, ProbeConfig::disabled()),
        _ => return None,
    };
    Some(m)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        print!("{}", USAGE);
        return;
    }
    let Some(opts) = parse_args(&args) else {
        usage()
    };
    let Some(m) = run(&opts) else { usage() };

    println!("system    {}", opts.system);
    println!("workload  {} at {:.0} req/s", opts.dist.label(), opts.rps);
    println!(
        "config    {} workers, cap {}, slice {}",
        opts.workers,
        opts.cap,
        opts.slice
            .map(|s| s.to_string())
            .unwrap_or_else(|| "off".into())
    );
    println!();
    println!("completed            {:>12}", m.completed);
    println!("achieved throughput  {:>12.0} req/s", m.achieved_rps);
    println!("median latency       {:>12}", m.p50);
    println!("p99 latency          {:>12}", m.p99);
    println!("p99.9 latency        {:>12}", m.p999);
    println!("p99 (short class)    {:>12}", m.p99_short);
    println!("p99 (long class)     {:>12}", m.p99_long);
    println!("preemptions          {:>12}", m.preemptions);
    println!("drops                {:>12}", m.dropped);
    println!(
        "worker utilization   {:>11.1}%",
        m.worker_utilization * 100.0
    );
    if m.saturated(0.05) {
        println!("\nNOTE: the system is saturated at this offered load.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("500ns"), Some(SimDuration::from_nanos(500)));
        assert_eq!(
            parse_duration("2.56us"),
            Some(SimDuration::from_nanos(2_560))
        );
        assert_eq!(parse_duration("10ms"), Some(SimDuration::from_millis(10)));
        assert_eq!(parse_duration("1s"), Some(SimDuration::from_secs(1)));
        assert_eq!(parse_duration("10"), None);
        assert_eq!(parse_duration("xyz"), None);
        assert_eq!(parse_duration("-5us"), None);
    }

    #[test]
    fn dists_parse() {
        assert_eq!(parse_dist("bimodal"), Some(ServiceDist::paper_bimodal()));
        assert_eq!(
            parse_dist("fixed:5us"),
            Some(ServiceDist::Fixed(SimDuration::from_micros(5)))
        );
        assert!(matches!(
            parse_dist("exp:10us"),
            Some(ServiceDist::Exponential { .. })
        ));
        assert!(matches!(
            parse_dist("lognormal:10us:2"),
            Some(ServiceDist::Lognormal { .. })
        ));
        assert!(matches!(
            parse_dist("pareto:1us:1.5:1ms"),
            Some(ServiceDist::Pareto { .. })
        ));
        assert_eq!(parse_dist("fixed"), None);
        assert_eq!(parse_dist("nope:1us"), None);
        assert_eq!(parse_dist("fixed:5us:extra"), None);
    }

    #[test]
    fn args_parse_with_defaults() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.system, "offload");
        assert_eq!(opts.workers, 4);

        let opts = parse_args(&[
            "shinjuku".into(),
            "--rps".into(),
            "100000".into(),
            "--slice".into(),
            "off".into(),
            "--workers".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(opts.system, "shinjuku");
        assert_eq!(opts.rps, 100_000.0);
        assert_eq!(opts.slice, None);
        assert_eq!(opts.workers, 3);
    }

    #[test]
    fn bad_args_rejected() {
        assert!(parse_args(&["--rps".into(), "abc".into()]).is_none());
        assert!(parse_args(&["--bogus".into()]).is_none());
        assert!(parse_args(&["--workers".into(), "0".into()]).is_none());
        // Help is not a bad argument: main prints the usage and exits 0.
        assert!(wants_help(&["-h".into()]));
        assert!(wants_help(&["rss".into(), "--help".into()]));
        assert!(!wants_help(&["--bogus".into()]));
    }

    #[test]
    fn every_system_name_runs() {
        for system in [
            "offload", "shinjuku", "rss", "stealing", "flowdir", "erss", "ideal",
        ] {
            let opts = Options {
                system: system.into(),
                rps: 50_000.0,
                dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
                workers: 2,
                cap: 2,
                slice: None,
                body: 64,
                measure_ms: 5,
                seed: 1,
            };
            let m = run(&opts).unwrap_or_else(|| panic!("{system} must run"));
            assert!(m.completed > 0, "{system}");
        }
        assert!(run(&Options {
            system: "unknown".into(),
            rps: 1.0,
            dist: ServiceDist::paper_bimodal(),
            workers: 1,
            cap: 1,
            slice: None,
            body: 0,
            measure_ms: 1,
            seed: 1,
        })
        .is_none());
    }
}
