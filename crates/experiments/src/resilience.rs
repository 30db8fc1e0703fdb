//! Resilience under injected faults: loss rate × fault type, per system.
//!
//! The paper's scheduling argument assumes requests arrive, run, and
//! answer; this experiment measures what each assembly does when they
//! don't. Every system runs the same workload under a grid of wire-loss
//! rates crossed with fault scenarios (loss only, a mid-run worker crash,
//! a feedback blackout), with the client retry policy on everywhere. Per
//! cell we report goodput (achieved over offered throughput), tail
//! latency, retry volume, drop decomposition, and — for the informed
//! dispatchers — the measured fallback time: how long the dispatcher ran
//! in degraded RSS-hash mode because its feedback was stale.
//!
//! Every run closes the request ledger: `launched = completed + abandoned
//! + still-open`, with lost/shed/stranded attempts itemised. A nonzero
//! `unaccounted` column is a bug, and the smoke binary asserts it is zero.

use sim_core::{ProbeConfig, SimDuration, SimTime};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ResilienceConfig, ServerSystem, StalenessPolicy, SystemConfig};
use workload::{RetryPolicy, RunMetrics, ServiceDist, WorkloadSpec};

use crate::figures::Scale;
use crate::report::{col, Column, Kind, Row};

use sim_core::FaultConfig;

/// Fault scenario applied on top of a wire-loss rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Random wire loss only.
    Loss,
    /// Wire loss plus one worker crashing 40% into the run.
    Crash,
    /// Wire loss plus a feedback blackout over the middle fifth of the
    /// run (informed dispatchers degrade to hashing; uninformed systems
    /// are unaffected by construction).
    Blackout,
}

impl Scenario {
    /// Stable label for tables and CSV.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Loss => "loss",
            Scenario::Crash => "loss+crash",
            Scenario::Blackout => "loss+blackout",
        }
    }

    fn faults(&self, loss: f64, horizon: SimTime) -> FaultConfig {
        let base = FaultConfig::default().with_wire_loss(loss);
        let h = horizon.as_nanos();
        match self {
            Scenario::Loss => base,
            Scenario::Crash => base.with_crash(1, SimTime::from_nanos(h * 2 / 5)),
            Scenario::Blackout => base.with_blackout(
                SimTime::from_nanos(h * 2 / 5),
                SimTime::from_nanos(h * 3 / 5),
            ),
        }
    }
}

/// One cell of the resilience grid.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// System label (from [`ServerSystem::name`]).
    pub system: &'static str,
    /// Fault scenario label.
    pub scenario: &'static str,
    /// Random wire-loss probability.
    pub loss: f64,
    /// Achieved over offered throughput
    /// ([`RunMetrics::goodput_ratio`]).
    pub goodput: f64,
    /// p99 sojourn of completed requests.
    pub p99: SimDuration,
    /// Client retransmissions.
    pub retries: u64,
    /// Requests the client gave up on after exhausting retries.
    pub abandoned: u64,
    /// Frames lost on the wire (both directions).
    pub link_lost: u64,
    /// Frames dropped at full NIC rings plus shed admissions.
    pub dropped: u64,
    /// Attempts stranded inside crashed workers.
    pub stranded: u64,
    /// Time the dispatcher spent in degraded (hash-fallback) mode.
    pub fallback: SimDuration,
    /// Request-ledger residue — must be zero.
    pub unaccounted: i64,
}

/// Title of the resilience table.
pub const TITLE: &str =
    "resilience — 250k rps paper bimodal: goodput / tail / recovery under injected faults";

impl Row for ResilienceRow {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("system", Text(|r| r.system.into())),
            col("scenario", Text(|r| r.scenario.into())),
            col("loss", Percent(|r| r.loss)),
            col("goodput", Ratio(6, |r| r.goodput)),
            col("p99", Duration(|r| r.p99)),
            col("retries", Int(|r| r.retries as i64)),
            col("abandoned", Int(|r| r.abandoned as i64)),
            col("link_lost", Int(|r| r.link_lost as i64)),
            col("dropped", Int(|r| r.dropped as i64)),
            col("stranded", Int(|r| r.stranded as i64)),
            col("fallback", Duration(|r| r.fallback)),
            col("unaccounted", Int(|r| r.unaccounted)),
        ]
    }
}

/// The five assemblies, with `policy` (FCFS when `None`) on every
/// policy-capable one.
fn systems_under_test(policy: Option<nicsched::PolicySpec>) -> Vec<SystemConfig> {
    let policy = policy.unwrap_or(nicsched::PolicySpec::FCFS);
    vec![
        SystemConfig::Offload(OffloadConfig {
            policy,
            ..OffloadConfig::paper(4, 4)
        }),
        SystemConfig::Shinjuku(ShinjukuConfig {
            policy,
            ..ShinjukuConfig::paper(4)
        }),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::Shinjuku(ShinjukuConfig {
            policy,
            ..ShinjukuConfig::split(10, 2)
        }),
    ]
}

fn spec_for(scale: Scale) -> WorkloadSpec {
    let (warmup, measure) = match scale {
        Scale::Quick => (SimDuration::from_millis(2), SimDuration::from_millis(10)),
        Scale::Full => (SimDuration::from_millis(5), SimDuration::from_millis(40)),
    };
    WorkloadSpec {
        offered_rps: 250_000.0,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup,
        measure,
        seed: 7,
    }
}

fn loss_rates(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.0, 0.01],
        Scale::Full => vec![0.0, 0.001, 0.01, 0.05],
    }
}

/// The resilience settings of one cell: `scenario` at `loss` over the run, with
/// client retries and the paper's staleness fallback on.
fn cell_config(spec: &WorkloadSpec, scenario: Scenario, loss: f64) -> ResilienceConfig {
    ResilienceConfig {
        faults: scenario.faults(loss, spec.horizon()),
        retry: Some(RetryPolicy::paper_default()),
        admission: nicsched::AdmissionPolicy::Open,
        fallback: Some(StalenessPolicy::paper_default()),
        ..ResilienceConfig::default()
    }
}

fn cell(sys: &SystemConfig, spec: WorkloadSpec, scenario: Scenario, loss: f64) -> ResilienceRow {
    let m = sys.run_resilient(
        spec,
        ProbeConfig::disabled(),
        cell_config(&spec, scenario, loss),
    );
    row_from(sys.name(), scenario, loss, &m)
}

fn row_from(system: &'static str, scenario: Scenario, loss: f64, m: &RunMetrics) -> ResilienceRow {
    let f = &m.faults;
    ResilienceRow {
        system,
        scenario: scenario.label(),
        loss,
        goodput: m.goodput_ratio(),
        p99: m.p99,
        retries: f.retries,
        abandoned: f.abandoned,
        link_lost: f.link_lost(),
        dropped: f.ring_dropped + f.shed,
        stranded: f.stranded,
        fallback: SimDuration::from_nanos(f.fallback_ns),
        unaccounted: f.unaccounted(),
    }
}

/// Run the full loss-rate × fault-type grid over every assembly, with an
/// optional scheduler-policy override (`--policy`) on every policy-capable
/// one. Cells are independent seeded runs, so the grid fans out over the
/// sweep pool (`--jobs`) with rows returned in grid order.
pub fn run(scale: Scale, policy: Option<nicsched::PolicySpec>) -> Vec<ResilienceRow> {
    let spec = spec_for(scale);
    let mut cells = Vec::new();
    for sys in systems_under_test(policy) {
        for scenario in [Scenario::Loss, Scenario::Crash, Scenario::Blackout] {
            for &loss in &loss_rates(scale) {
                cells.push((sys, scenario, loss));
            }
        }
    }
    crate::sweep::par_map(&cells, |&(sys, scenario, loss)| {
        cell(&sys, spec, scenario, loss)
    })
}

/// One loss+crash point per system with probing on — the CI smoke body.
/// Panics if any system leaks a request from its ledger. With
/// `invariants` (the "invcheck" pass) the runtime invariant checker also
/// audits engine causality, ring bounds and ledger conservation on every
/// event and panics with a violation report if the model misbehaves; the
/// rows must be bit-identical either way, and CI diffs the JSON.
pub fn smoke(invariants: bool) -> Vec<ResilienceRow> {
    let spec = spec_for(Scale::Quick);
    let mut rows = Vec::new();
    for sys in systems_under_test(None) {
        let mut res = cell_config(&spec, Scenario::Crash, 0.01);
        if invariants {
            res = res.with_invariants();
        }
        let m = sys.run_resilient(spec, ProbeConfig::enabled(), res);
        assert!(
            m.stages.is_some(),
            "{}: probed smoke run must report stages",
            sys.name()
        );
        let row = row_from(sys.name(), Scenario::Crash, 0.01, &m);
        assert_eq!(
            row.unaccounted,
            0,
            "{}: request ledger leaks under loss+crash: {:?}",
            sys.name(),
            m.faults
        );
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows_cover_every_system_and_close_ledgers() {
        let rows = smoke(false);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.unaccounted, 0, "{}: {r:?}", r.system);
            assert!(r.goodput > 0.5, "{}: goodput collapsed: {r:?}", r.system);
            assert!(r.retries > 0, "{}: 1% loss must force retries", r.system);
        }
        // The crash scenario must visibly strand work somewhere.
        assert!(rows.iter().any(|r| r.stranded > 0), "{rows:?}");
    }

    #[test]
    fn smoke_is_deterministic() {
        let a = crate::report::json(&smoke(false));
        let b = crate::report::json(&smoke(false));
        assert_eq!(a, b);
    }

    #[test]
    fn blackout_costs_the_informed_dispatcher_fallback_time() {
        let spec = spec_for(Scale::Quick);
        let sys = SystemConfig::Offload(OffloadConfig::paper(4, 4));
        let row = cell(&sys, spec, Scenario::Blackout, 0.0);
        assert_eq!(row.unaccounted, 0, "{row:?}");
        assert!(
            row.fallback > SimDuration::ZERO,
            "a feedback blackout must register measurable fallback time: {row:?}"
        );
        // The blackout spans a fifth of the run; fallback cannot exceed
        // the window by more than the detection+recovery hysteresis.
        let window = SimDuration::from_nanos(spec.horizon().as_nanos() / 5);
        assert!(
            row.fallback < window + SimDuration::from_millis(1),
            "fallback {} beyond blackout window {window}: {row:?}",
            row.fallback
        );
    }
}
