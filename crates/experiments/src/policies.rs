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
use workload::{ServiceDist, WorkloadSpec};

use crate::figures::Scale;
use crate::report::{col, Column, Format, Kind, Row};

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

/// Title of the policies table.
pub const TITLE: &str =
    "policies — every scheduling policy × the Fig. 2/3 workloads × every assembly";

impl Row for PolicyRow {
    /// The JSON leads with the policy, the CSV with the workload; the
    /// table follows the CSV.
    fn columns() -> Vec<Column<Self>> {
        use Format::*;
        use Kind::*;
        vec![
            col("policy", Text(|r: &Self| r.policy.clone())).only(&[Json]),
            col("workload", Text(|r: &Self| r.workload.into())).only(&[Table, Csv]),
            col("system", Text(|r| r.system.into())),
            col("workload", Text(|r: &Self| r.workload.into())).only(&[Json]),
            col("policy", Text(|r: &Self| r.policy.clone())).only(&[Table, Csv]),
            col("offered_rps", Load(|r| r.offered_rps)),
            col("achieved_rps", Rate(|r| r.achieved_rps)),
            col("p50", Duration(|r| r.p50)),
            col("p99", Duration(|r| r.p99)),
            col("p99_short", Duration(|r| r.p99_short)),
            col("completed", Int(|r| r.completed as i64)),
            col("preemptions", Int(|r| r.preemptions as i64)),
        ]
    }
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
        PolicyRow {
            policy: policy.clone(),
            system: sys.name(),
            workload: wname,
            offered_rps: m.offered_rps,
            achieved_rps: m.achieved_rps,
            p50: m.p50,
            p99: m.p99,
            p99_short: m.p99_short,
            completed: m.completed,
            preemptions: m.preemptions,
        }
    })
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
        let serial = crate::report::json(&run(Scale::Quick));
        crate::sweep::set_jobs(4);
        let parallel = crate::report::json(&run(Scale::Quick));
        crate::sweep::set_jobs(0);
        assert_eq!(serial, parallel);
    }
}
