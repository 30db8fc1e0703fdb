//! The `policies` sweep: every shipped scheduling policy crossed with the
//! paper's Figure 2/3 workloads on every assembly.
//!
//! §5.1(4) argues a NIC-resident scheduler should expose *programmable*
//! policies. `nicsched::PolicySpec` names each shipped policy with its
//! parameters; this experiment is the corresponding sweep driver: each
//! policy runs the bimodal Figure 2 workload and
//! the saturating fixed-1 µs Figure 3 workload through the three
//! policy-capable assemblies (Shinjuku-Offload, host Shinjuku,
//! multi-dispatcher Shinjuku). The policy-oblivious designs (RSS baseline
//! and RPCValet) run once per workload as controls — the line a policy
//! has to beat without a central queue to act on.
//!
//! Cells are independent seeded simulations fanned over the sweep pool,
//! so rows are byte-identical at any `--jobs` value.

use nicsched::PolicySpec;
use sim_core::{ProbeConfig, SimDuration};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ServerSystem, SystemConfig};
use workload::{RunMetrics, ServiceDist, WorkloadSpec};

use crate::figures::Scale;
use crate::report::csv_field;

/// One cell of the policy sweep.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Spec of the policy under test (`-` for the
    /// policy-oblivious controls).
    pub policy: String,
    /// System label (from [`ServerSystem::name`]).
    pub system: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Offered load of the workload point.
    pub offered_rps: f64,
    /// Achieved throughput.
    pub achieved_rps: f64,
    /// Median sojourn.
    pub p50: SimDuration,
    /// p99 sojourn.
    pub p99: SimDuration,
    /// p99 sojourn of the short class (the bimodal story's casualty).
    pub p99_short: SimDuration,
    /// Completed requests.
    pub completed: u64,
    /// Worker preemptions (policies hand out per-dispatch slice grants).
    pub preemptions: u64,
}

/// The specs the sweep exercises — every name in
/// [`PolicySpec::NAMES`], with parameters spelled out where the defaults
/// would be degenerate.
pub fn sweep_specs() -> Vec<PolicySpec> {
    [
        "fcfs",
        "cfcfs",
        "dfcfs",
        "srf",
        "srpt",
        "edf:deadline=50us",
        "class-priority:cutoff=10us",
        "wfq:w=4,1,1",
    ]
    .iter()
    .map(|s| PolicySpec::parse(s).expect("sweep spec must parse"))
    .collect()
}

/// The two workload points: the Figure 2 bimodal mix at moderate load
/// (tail story) and the Figure 3 fixed-1 µs saturating point (throughput
/// story).
fn workloads(scale: Scale) -> Vec<(&'static str, WorkloadSpec)> {
    let mut fig2 = scale.spec_seeded(350_000.0, ServiceDist::paper_bimodal(), 7);
    let mut fig3 = scale.spec_seeded(
        2_500_000.0,
        ServiceDist::Fixed(SimDuration::from_micros(1)),
        7,
    );
    if scale == Scale::Quick {
        // The smoke grid is ~50 cells; keep each one short.
        fig2.measure = SimDuration::from_millis(8);
        fig3.measure = SimDuration::from_millis(4);
    }
    vec![("fig2-bimodal", fig2), ("fig3-fixed-1us", fig3)]
}

/// The three assemblies with a pluggable central queue, under `policy`.
fn capable(policy: PolicySpec) -> Vec<SystemConfig> {
    vec![
        SystemConfig::Offload(OffloadConfig {
            policy,
            ..OffloadConfig::paper(4, 4)
        }),
        SystemConfig::Shinjuku(ShinjukuConfig {
            policy,
            ..ShinjukuConfig::paper(4)
        }),
        SystemConfig::Shinjuku(ShinjukuConfig {
            policy,
            ..ShinjukuConfig::split(10, 2)
        }),
    ]
}

/// The policy-oblivious controls: no central queue, nothing to plug in.
fn controls() -> Vec<SystemConfig> {
    vec![
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
    ]
}

fn row_from(
    policy: String,
    system: &'static str,
    workload: &'static str,
    m: &RunMetrics,
) -> PolicyRow {
    PolicyRow {
        policy,
        system,
        workload,
        offered_rps: m.offered_rps,
        achieved_rps: m.achieved_rps,
        p50: m.p50,
        p99: m.p99,
        p99_short: m.p99_short,
        completed: m.completed,
        preemptions: m.preemptions,
    }
}

/// Run the full policy × workload × assembly grid. Rows come back in
/// grid order (workload-major, then policy, then assembly, controls
/// last per workload) regardless of the worker count.
pub fn run(scale: Scale) -> Vec<PolicyRow> {
    let mut cells: Vec<(String, SystemConfig, &'static str, WorkloadSpec)> = Vec::new();
    for (wname, wspec) in workloads(scale) {
        for policy in sweep_specs() {
            for sys in capable(policy) {
                cells.push((policy.to_string(), sys, wname, wspec));
            }
        }
        for sys in controls() {
            cells.push(("-".to_string(), sys, wname, wspec));
        }
    }
    crate::sweep::par_map(&cells, |(policy, sys, wname, wspec)| {
        let m = sys.run(*wspec, ProbeConfig::disabled());
        row_from(policy.clone(), sys.name(), wname, &m)
    })
}

/// Render rows as an aligned table, one block per workload.
pub fn table(rows: &[PolicyRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut current = "";
    for r in rows {
        if r.workload != current {
            current = r.workload;
            let _ = writeln!(
                out,
                "\n## policies — {} @ {:.0} rps\n{:<28} {:<16} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8}",
                r.workload,
                r.offered_rps,
                "policy",
                "system",
                "achieved",
                "p50",
                "p99",
                "p99_short",
                "completed",
                "preempt"
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:<16} {:>12.0} {:>10} {:>10} {:>10} {:>9} {:>8}",
            r.policy,
            r.system,
            r.achieved_rps,
            r.p50.to_string(),
            r.p99.to_string(),
            r.p99_short.to_string(),
            r.completed,
            r.preemptions
        );
    }
    out
}

/// Render rows as a JSON array (stable key order, no external
/// serializer; CI diffs this across `--jobs` values).
pub fn json(rows: &[PolicyRow]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"policy\":\"{}\",\"system\":\"{}\",\"workload\":\"{}\",\"offered_rps\":{},\"achieved_rps\":{:.3},\"p50_ns\":{},\"p99_ns\":{},\"p99_short_ns\":{},\"completed\":{},\"preemptions\":{}}}",
            r.policy,
            r.system,
            r.workload,
            r.offered_rps,
            r.achieved_rps,
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p99_short.as_nanos(),
            r.completed,
            r.preemptions
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Persist rows as CSV next to the figure outputs; returns the path.
/// Policy specs carry commas (`wfq:w=4,1,1`), so the column is quoted.
pub fn write_csv(rows: &[PolicyRow], dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write;
    let mut out = String::from(
        "workload,system,policy,offered_rps,achieved_rps,p50_us,p99_us,p99_short_us,completed,preemptions\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.0},{:.0},{:.3},{:.3},{:.3},{},{}",
            r.workload,
            r.system,
            csv_field(&r.policy),
            r.offered_rps,
            r.achieved_rps,
            r.p50.as_nanos() as f64 / 1e3,
            r.p99.as_nanos() as f64 / 1e3,
            r.p99_short.as_nanos() as f64 / 1e3,
            r.completed,
            r.preemptions
        );
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join("policies.csv");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sweep_covers_every_policy_and_every_assembly() {
        let rows = run(Scale::Quick);
        let policies: BTreeSet<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        let systems: BTreeSet<&str> = rows.iter().map(|r| r.system).collect();
        let workloads: BTreeSet<&str> = rows.iter().map(|r| r.workload).collect();
        assert!(
            policies.len() >= 7, // 8 specs + the "-" control marker
            "expected every policy in the sweep: {policies:?}"
        );
        for must in [
            "fcfs",
            "cfcfs",
            "dfcfs",
            "srpt",
            "edf:deadline=50us",
            "wfq:w=4,1,1",
        ] {
            assert!(policies.contains(must), "{must} missing: {policies:?}");
        }
        assert_eq!(
            systems.len(),
            5,
            "all five assemblies must appear: {systems:?}"
        );
        assert_eq!(workloads.len(), 2, "{workloads:?}");
        let names: Vec<&str> = sweep_specs().iter().map(PolicySpec::name).collect();
        assert_eq!(names, PolicySpec::NAMES, "one sweep spec per policy");
        for r in &rows {
            assert!(
                r.completed > 0,
                "{}/{}/{} completed nothing",
                r.workload,
                r.system,
                r.policy
            );
        }
        // Informed policies act: srpt must hand out preemption grants on
        // the bimodal mix once it has learned the short/long split.
        let srpt_bimodal: u64 = rows
            .iter()
            .filter(|r| r.policy == "srpt" && r.workload == "fig2-bimodal")
            .map(|r| r.preemptions)
            .sum();
        assert!(srpt_bimodal > 0, "srpt never preempted on the bimodal mix");
    }

    #[test]
    fn rows_are_byte_identical_at_any_job_count() {
        // The satellite guarantee behind CI's `--jobs` diff: every
        // policy's cells are independent seeded sims, so the
        // fan-out width cannot perturb a single byte of output.
        crate::sweep::set_jobs(1);
        let serial = json(&run(Scale::Quick));
        crate::sweep::set_jobs(4);
        let parallel = json(&run(Scale::Quick));
        crate::sweep::set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn renderings_carry_every_row() {
        let rows = vec![
            row_from(
                "wfq:w=4,1,1".into(),
                "shinjuku",
                "fig2-bimodal",
                &test_metrics(),
            ),
            row_from("-".into(), "rss", "fig2-bimodal", &test_metrics()),
        ];
        let t = table(&rows);
        assert!(t.contains("wfq:w=4,1,1") && t.contains("rss"));
        let j = json(&rows);
        assert_eq!(j.matches("\"policy\"").count(), rows.len());
        let dir = std::env::temp_dir().join("mindgap-policies-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_csv(&rows, &dir).unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert!(
            csv.contains("\"wfq:w=4,1,1\""),
            "comma-bearing policy must be quoted: {csv}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_metrics() -> RunMetrics {
        RunMetrics {
            offered_rps: 1e5,
            achieved_rps: 1e5,
            p50: SimDuration::from_micros(5),
            p99: SimDuration::from_micros(20),
            p999: SimDuration::from_micros(40),
            p99_short: SimDuration::from_micros(18),
            p99_long: SimDuration::from_micros(40),
            mean: SimDuration::from_micros(7),
            completed: 100,
            dropped: 0,
            preemptions: 3,
            worker_utilization: 0.42,
            stages: None,
            faults: workload::FaultMetrics::default(),
        }
    }
}
