//! Per-request timeline tracing: watch individual requests cross every
//! stage of a server assembly, and see the paper's feedback gap as a
//! measured idle interval rather than an inferred one.
//!
//! ```text
//! trace [system] [rps] [--json] [--policy <spec>]
//! ```
//!
//! `system` is one of `offload` (default), `shinjuku`, `rss`, `rpcvalet`,
//! `multi`; `rps` the offered load (default 200000). `--json` emits the
//! timelines as a JSON array instead of tables. `--policy` swaps the
//! scheduler on policy-capable assemblies (registry grammar, e.g.
//! `srpt` or `edf:deadline=50us`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nicsched::PolicySpec;
use sim_core::{ProbeConfig, SimDuration, SimTime, TraceEvent};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ServerSystem, SystemConfig};
use workload::{ServiceDist, WorkloadSpec};

/// How many requests to show in table mode.
const SHOWN: usize = 8;

fn system_by_name(name: &str) -> Option<SystemConfig> {
    Some(match name {
        "offload" => SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        "shinjuku" => SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        "rss" => SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        "rpcvalet" => SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        "multi" => SystemConfig::Shinjuku(ShinjukuConfig {
            groups: 2,
            workers: 2,
            time_slice: None,
            policy: PolicySpec::FCFS,
        }),
        _ => return None,
    })
}

/// Swap the scheduling policy on assemblies that have one; baselines and
/// RPCValet are policy-oblivious and pass through unchanged.
fn with_policy(sys: SystemConfig, policy: PolicySpec) -> SystemConfig {
    match sys {
        SystemConfig::Offload(mut c) => {
            c.policy = policy;
            SystemConfig::Offload(c)
        }
        SystemConfig::Shinjuku(mut c) => {
            c.policy = policy;
            SystemConfig::Shinjuku(c)
        }
        other => other,
    }
}

/// Group the flat event stream into per-request timelines, preserving
/// event order within each request.
fn timelines(trace: &[TraceEvent]) -> BTreeMap<u64, Vec<&TraceEvent>> {
    let mut by_req: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in trace {
        by_req.entry(ev.req).or_default().push(ev);
    }
    by_req
}

fn render_tables(by_req: &BTreeMap<u64, Vec<&TraceEvent>>) -> String {
    let mut out = String::new();
    for (req, events) in by_req.iter().take(SHOWN) {
        let t0 = events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
        let _ = writeln!(out, "request {req}");
        let mut prev = t0;
        for ev in events {
            let _ = writeln!(
                out,
                "  {:>12}  +{:>10}  {}",
                ev.at.to_string(),
                ev.at.saturating_duration_since(prev).to_string(),
                ev.stage
            );
            prev = ev.at;
        }
        let total = prev.saturating_duration_since(t0);
        let _ = writeln!(
            out,
            "  {:>12}   {:>10}  total sojourn",
            "",
            total.to_string()
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(by_req: &BTreeMap<u64, Vec<&TraceEvent>>) -> String {
    let mut out = String::from("[");
    let mut first_req = true;
    for (req, events) in by_req {
        if !first_req {
            out.push(',');
        }
        first_req = false;
        let _ = write!(out, "{{\"req\":{req},\"events\":[");
        let mut first_ev = true;
        for ev in events {
            if !first_ev {
                out.push(',');
            }
            first_ev = false;
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"at_ns\":{}}}",
                json_escape(ev.stage),
                ev.at.as_nanos()
            );
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut sys = args
        .iter()
        .find_map(|a| system_by_name(a))
        .unwrap_or(SystemConfig::Offload(OffloadConfig::paper(4, 4)));
    if let Some(spec) = experiments::sweep::policy_from_args(&args) {
        sys = with_policy(sys, spec);
    }
    let rps = args
        .iter()
        .find_map(|a| a.parse::<f64>().ok())
        .unwrap_or(200_000.0);

    let spec = WorkloadSpec {
        offered_rps: rps,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup: SimDuration::ZERO,
        measure: SimDuration::from_millis(2),
        seed: 7,
    };
    let m = sys.run(spec, ProbeConfig::with_trace(65_536));
    let stages = m.stages.expect("probed run always reports stages");
    let by_req = timelines(&stages.trace);

    if json {
        println!("{}", render_json(&by_req));
        return;
    }

    println!("# {} @ {:.0} rps, seed {}\n", sys.name(), rps, spec.seed);
    println!("{stages}");
    if stages.trace_dropped > 0 {
        println!(
            "(trace buffer full: {} later events dropped; raise the capacity for longer runs)\n",
            stages.trace_dropped
        );
    }
    println!(
        "## per-request timelines (first {SHOWN} of {})\n",
        by_req.len()
    );
    println!("{}", render_tables(&by_req));
    if let Some(gap) = stages.hop("worker.idle_gap") {
        println!(
            "## the feedback gap, measured\n\
             workers sat idle waiting for the scheduler to notice them {} times;\n\
             mean idle gap {} (p99 {}) — the interval the paper argues a\n\
             NIC-resident scheduler with fresh core feedback can close.",
            gap.count, gap.mean, gap.p99
        );
    }
    println!(
        "\nclient view: mean {} p99 {} over {} completed requests",
        m.mean, m.p99, m.completed
    );
}
