//! NIC-side failure recovery versus client-retry-only: suspicion window
//! × fault type × scheduling policy, on the offload assembly.
//!
//! The tentpole claim: because the dispatcher lives on the NIC and sees
//! every assignment and completion, it can detect a silent worker and
//! re-dispatch its orphaned requests in tens of microseconds — while a
//! client on the other side of the wire needs a full retransmission
//! timeout (200µs base, exponential backoff) to notice anything at all.
//! Per (policy, fault) cell this grid runs one *retry-only* arm (the
//! orphans' only way home is the client timer) against one *nic-recovery*
//! arm per suspicion window, at equal offered load and the same fault
//! schedule, and reports tail latency plus the full recovery ledger.
//!
//! Fault types:
//!
//! - `crash`: two of four workers die permanently, staggered mid-run.
//!   Their in-flight requests are gone; the only question is who notices
//!   first, the NIC's lease table or the client's timer.
//! - `stall`: a storm of transient per-worker stalls (GC pause, SMI)
//!   sweeps the pool until the end of the run, up to
//!   [`sim_core::MAX_FAULT_EVENTS`] of them. This is the false-positive
//!   gauntlet: a reclaimed request's zombie copy finishes anyway when the
//!   worker wakes, and the exactly-once filter must absorb it while the
//!   detector readmits the worker.
//!
//! Every row closes the request ledger, and the smoke body asserts the
//! headline result: NIC recovery strictly beats retry-only p99 for both
//! fault types.

use nicsched::{PolicySpec, RecoveryPolicy};
use sim_core::{FaultConfig, ProbeConfig, SimDuration, SimTime};
use systems::offload::OffloadConfig;
use systems::{ResilienceConfig, ServerSystem, SystemConfig};
use workload::{RetryPolicy, RunMetrics, ServiceDist, WorkloadSpec};

use crate::figures::Scale;
use crate::report::{col, Column, Kind, Row};

/// Fault type applied to the worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Two permanent worker crashes, staggered mid-run.
    Crash,
    /// A storm of transient stalls rotating across the pool.
    Stall,
}

impl Fault {
    /// Stable label for tables and CSV.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Crash => "crash",
            Fault::Stall => "stall",
        }
    }

    /// The fault schedule, scaled to the run horizon. Workers 1 and 3
    /// crash at 40% and 55% of the run; the stall storm is
    /// [`stall_storm`].
    fn schedule(&self, horizon: SimTime, workers: usize) -> FaultConfig {
        let h = horizon.as_nanos();
        match self {
            Fault::Crash => FaultConfig::default()
                .with_crash(1, SimTime::from_nanos(h * 2 / 5))
                .with_crash(3, SimTime::from_nanos(h * 11 / 20)),
            Fault::Stall => stall_storm(horizon, workers)
                .into_iter()
                .fold(FaultConfig::default(), |f, (w, start, end)| {
                    f.with_stall(w, start, end)
                }),
        }
    }
}

/// The stall storm's windows `(worker, start, end)`: one worker at a time
/// parked for 250µs, round-robin, from 30% of the run, until a stall would
/// reach the horizon or [`sim_core::MAX_FAULT_EVENTS`] stalls are
/// scheduled. The period is the larger of 400µs and the storm's span over
/// that cap, so a long run's storm lasts to its end. At `Scale::Quick`
/// (6 ms) that is 10 stalls, 400µs apart, ending at 5.65 ms. At
/// `Scale::Full` (22 ms) it is 16 stalls, 962.5µs apart, ending at
/// 21.2875 ms.
fn stall_storm(horizon: SimTime, workers: usize) -> Vec<(usize, SimTime, SimTime)> {
    let h = horizon.as_nanos();
    let first = h * 3 / 10;
    let stall = 250_000u64; // 250µs outage
    let gap = ((h - first) / sim_core::MAX_FAULT_EVENTS as u64).max(400_000); // storm period
    (0u64..)
        .map(|k| first + k * gap)
        .take_while(|&start| start + stall < h)
        .take(sim_core::MAX_FAULT_EVENTS)
        .enumerate()
        .map(|(i, start)| {
            let end = SimTime::from_nanos(start + stall);
            (i % workers, SimTime::from_nanos(start), end)
        })
        .collect()
}

/// One cell of the recovery grid.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Scheduling policy driving the dispatcher.
    pub policy: PolicySpec,
    /// Fault type label.
    pub fault: &'static str,
    /// Recovery arm: `"retry-only"` or `"nic-recovery"`.
    pub mode: &'static str,
    /// Suspicion window in µs (0 for the retry-only arm).
    pub window_us: u64,
    /// Achieved over offered throughput
    /// ([`RunMetrics::goodput_ratio`]).
    pub goodput: f64,
    /// p99 sojourn of completed requests.
    pub p99: SimDuration,
    /// Client retransmissions.
    pub retries: u64,
    /// Requests the client gave up on.
    pub abandoned: u64,
    /// Attempts stranded inside crashed workers.
    pub stranded: u64,
    /// Orphans reclaimed and re-dispatched by the NIC.
    pub recovered: u64,
    /// Zombie completions absorbed by the exactly-once filter.
    pub duplicates: u64,
    /// Lease expiries (worker suspicions).
    pub suspicions: u64,
    /// False-positive suspicions readmitted on late activity.
    pub readmissions: u64,
    /// Request-ledger residue — must be zero.
    pub unaccounted: i64,
}

/// Title of the recovery table.
pub const TITLE: &str =
    "recovery — 250k rps paper bimodal: NIC-side orphan re-dispatch vs client-retry-only";

impl Row for RecoveryRow {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("policy", Text(|r| r.policy.to_string())),
            col("fault", Text(|r| r.fault.into())),
            col("mode", Text(|r| r.mode.into())),
            col("window_us", Int(|r| r.window_us as i64)),
            col("goodput", Ratio(6, |r| r.goodput)),
            col("p99", Duration(|r| r.p99)),
            col("retries", Int(|r| r.retries as i64)),
            col("abandoned", Int(|r| r.abandoned as i64)),
            col("stranded", Int(|r| r.stranded as i64)),
            col("recovered", Int(|r| r.recovered as i64)),
            col("duplicates", Int(|r| r.duplicates as i64)),
            col("suspicions", Int(|r| r.suspicions as i64)),
            col("readmissions", Int(|r| r.readmissions as i64)),
            col("unaccounted", Int(|r| r.unaccounted)),
        ]
    }
}

const WORKERS: usize = 4;

fn spec_for(scale: Scale) -> WorkloadSpec {
    let (warmup, measure) = match scale {
        Scale::Quick => (SimDuration::from_millis(1), SimDuration::from_millis(5)),
        Scale::Full => (SimDuration::from_millis(2), SimDuration::from_millis(20)),
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

fn policies(scale: Scale) -> Vec<PolicySpec> {
    match scale {
        Scale::Quick => vec![PolicySpec::FCFS],
        Scale::Full => vec![PolicySpec::FCFS, PolicySpec::parse("srpt").expect("srpt")],
    }
}

fn windows(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![30],
        Scale::Full => vec![15, 30, 60],
    }
}

/// The two arms share everything — workload, seed, fault schedule, retry
/// policy — except the `recovery` field, set when `window_us` names a
/// suspicion window.
fn arm(spec: &WorkloadSpec, fault: Fault, window_us: Option<u64>) -> ResilienceConfig {
    let res = ResilienceConfig {
        faults: fault.schedule(spec.horizon(), WORKERS),
        retry: Some(RetryPolicy::paper_default()),
        ..ResilienceConfig::default()
    };
    match window_us {
        Some(us) => res.with_recovery(RecoveryPolicy::with_suspicion(SimDuration::from_micros(us))),
        None => res,
    }
}

fn cell(
    policy: PolicySpec,
    fault: Fault,
    window_us: Option<u64>,
    spec: WorkloadSpec,
) -> RecoveryRow {
    let sys = SystemConfig::Offload(OffloadConfig {
        policy,
        ..OffloadConfig::paper(WORKERS, 4)
    });
    let m = sys.run_resilient(spec, ProbeConfig::disabled(), arm(&spec, fault, window_us));
    row_from(policy, fault, window_us, &m)
}

fn row_from(
    policy: PolicySpec,
    fault: Fault,
    window_us: Option<u64>,
    m: &RunMetrics,
) -> RecoveryRow {
    let f = &m.faults;
    RecoveryRow {
        policy,
        fault: fault.label(),
        mode: if window_us.is_some() {
            "nic-recovery"
        } else {
            "retry-only"
        },
        window_us: window_us.unwrap_or(0),
        goodput: m.goodput_ratio(),
        p99: m.p99,
        retries: f.retries,
        abandoned: f.abandoned,
        stranded: f.stranded,
        recovered: f.recovered,
        duplicates: f.recovery_duplicates,
        suspicions: f.suspicions,
        readmissions: f.readmissions,
        unaccounted: f.unaccounted(),
    }
}

/// Run the suspicion-window × fault × policy grid; `policy` (`--policy`)
/// replaces the default policy list. Cells are independent seeded runs,
/// so the grid fans out over the sweep pool (`--jobs`) with rows returned
/// in grid order.
pub fn run(scale: Scale, policy: Option<PolicySpec>) -> Vec<RecoveryRow> {
    let spec = spec_for(scale);
    let policy_list = match policy {
        Some(p) => vec![p],
        None => policies(scale),
    };
    let mut cells: Vec<(PolicySpec, Fault, Option<u64>)> = Vec::new();
    for &p in &policy_list {
        for fault in [Fault::Crash, Fault::Stall] {
            cells.push((p, fault, None));
            for &w in &windows(scale) {
                cells.push((p, fault, Some(w)));
            }
        }
    }
    crate::sweep::par_map(&cells, |&(p, fault, w)| cell(p, fault, w, spec))
}

/// The deterministic CI body: fcfs, both fault types, retry-only versus
/// one 30µs nic-recovery arm. Asserts the ledgers close and the headline
/// result — NIC-side re-dispatch strictly beats client-retry-only p99 for
/// both fault types at equal offered load. With `invariants` the runtime
/// invariant checker audits every event; the rows must be bit-identical
/// either way — CI runs both and diffs.
pub fn smoke(invariants: bool) -> Vec<RecoveryRow> {
    let spec = spec_for(Scale::Quick);
    let mut rows = Vec::new();
    for fault in [Fault::Crash, Fault::Stall] {
        let mut pair = Vec::new();
        for window in [None, Some(30u64)] {
            let mut res = arm(&spec, fault, window);
            if invariants {
                res = res.with_invariants();
            }
            let sys = SystemConfig::Offload(OffloadConfig::paper(WORKERS, 4));
            let m = sys.run_resilient(spec, ProbeConfig::enabled(), res);
            let row = row_from(PolicySpec::FCFS, fault, window, &m);
            assert_eq!(
                row.unaccounted, 0,
                "{} {}: request ledger leaks: {:?}",
                row.fault, row.mode, m.faults
            );
            pair.push(row);
        }
        let (retry, nic) = (&pair[0], &pair[1]);
        assert!(
            nic.recovered > 0,
            "{}: nic arm never reclaimed an orphan: {nic:?}",
            fault.label()
        );
        assert!(
            nic.p99 < retry.p99,
            "{}: nic-recovery p99 {} must strictly beat retry-only p99 {}",
            fault.label(),
            nic.p99,
            retry.p99
        );
        rows.extend(pair);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_proves_the_headline_and_closes_ledgers() {
        let rows = smoke(false);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.unaccounted, 0, "{r:?}");
            assert!(r.goodput > 0.5, "goodput collapsed: {r:?}");
        }
        // The retry-only arms must show zero recovery activity.
        for r in rows.iter().filter(|r| r.mode == "retry-only") {
            assert_eq!((r.recovered, r.suspicions), (0, 0), "{r:?}");
        }
        // The stall arm must exercise the false-positive path: zombies
        // absorbed and workers readmitted.
        let stall_nic = rows
            .iter()
            .find(|r| r.fault == "stall" && r.mode == "nic-recovery")
            .expect("stall nic arm");
        assert!(stall_nic.readmissions > 0, "{stall_nic:?}");
    }

    #[test]
    fn stall_storm_runs_uncapped_at_quick_and_capped_at_full() {
        let cases = [(Scale::Quick, 10, 5_650_000), (Scale::Full, 16, 21_287_500)];
        for (scale, stalls, last_end_ns) in cases {
            let horizon = spec_for(scale).horizon();
            let storm = stall_storm(horizon, WORKERS);
            assert_eq!(storm.len(), stalls, "{scale:?}: stall count");
            assert!(stalls <= sim_core::MAX_FAULT_EVENTS, "{scale:?}: cap");
            let &(w, last_start, end) = storm.last().expect("a storm");
            assert_eq!(end, SimTime::from_nanos(last_end_ns), "{scale:?}: end");
            // The storm spans the run: one more period would carry a stall
            // past the horizon.
            let period = storm[1].1 - storm[0].1;
            let next_end = last_start + period + SimDuration::from_micros(250);
            assert!(next_end >= horizon, "{scale:?}: storm ends early");
            // The schedule holds these windows: the last stall is live
            // just before its end, and no worker stalls after it.
            let faults = Fault::Stall.schedule(horizon, WORKERS);
            let before = SimTime::from_nanos(end.as_nanos() - 1);
            assert_eq!(faults.worker_stalled_until(w, before), Some(end));
            for t in (end.as_nanos()..horizon.as_nanos()).step_by(50_000) {
                let t = SimTime::from_nanos(t);
                let down = (0..WORKERS).any(|w| faults.worker_down(w, t));
                assert!(!down, "{scale:?}: a worker stalls at {t}");
            }
        }
    }

    #[test]
    fn smoke_is_deterministic() {
        let a = crate::report::json(&smoke(false));
        let b = crate::report::json(&smoke(false));
        assert_eq!(a, b);
    }
}
