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
//!   sweeps the pool. This is the false-positive gauntlet: a reclaimed
//!   request's zombie copy finishes anyway when the worker wakes, and
//!   the exactly-once filter must absorb it while the detector readmits
//!   the worker.
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
use crate::report::csv_field;

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
    /// crash at 40% and 55% of the run; the stall storm parks one worker
    /// at a time for 250µs, round-robin, through the measure window.
    fn schedule(&self, horizon: SimTime, workers: usize) -> FaultConfig {
        let h = horizon.as_nanos();
        match self {
            Fault::Crash => FaultConfig::default()
                .with_crash(1, SimTime::from_nanos(h * 2 / 5))
                .with_crash(3, SimTime::from_nanos(h * 11 / 20)),
            Fault::Stall => {
                let mut f = FaultConfig::default();
                let stall = 250_000u64; // 250µs outage
                let gap = 400_000u64; // storm period
                let mut start = h * 3 / 10;
                let mut w = 0usize;
                let mut slots = 0;
                while start + stall < h && slots < sim_core::MAX_FAULT_EVENTS {
                    f = f.with_stall(
                        w,
                        SimTime::from_nanos(start),
                        SimTime::from_nanos(start + stall),
                    );
                    start += gap;
                    w = (w + 1) % workers;
                    slots += 1;
                }
                f
            }
        }
    }
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
    /// First-completions over launched requests.
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
/// policy — except the `recovery` field.
fn cell(
    policy: PolicySpec,
    fault: Fault,
    window_us: Option<u64>,
    spec: WorkloadSpec,
) -> RecoveryRow {
    let mut res = ResilienceConfig {
        faults: fault.schedule(spec.horizon(), WORKERS),
        retry: Some(RetryPolicy::paper_default()),
        ..ResilienceConfig::default()
    };
    if let Some(us) = window_us {
        res = res.with_recovery(RecoveryPolicy::with_suspicion(SimDuration::from_micros(us)));
    }
    let sys = SystemConfig::Offload(OffloadConfig {
        policy,
        ..OffloadConfig::paper(WORKERS, 4)
    });
    let m = sys.run_resilient(spec, ProbeConfig::disabled(), res);
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

/// Run the suspicion-window × fault × policy grid. Cells are independent
/// seeded runs, so the grid fans out over the sweep pool (`--jobs`) with
/// rows returned in grid order.
pub fn run(scale: Scale) -> Vec<RecoveryRow> {
    run_with(scale, None)
}

/// [`run`] with an optional policy override replacing the default policy
/// list (`--policy`); `None` matches [`run`] exactly.
pub fn run_with(scale: Scale, policy: Option<PolicySpec>) -> Vec<RecoveryRow> {
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
/// both fault types at equal offered load.
pub fn smoke() -> Vec<RecoveryRow> {
    smoke_checked(false)
}

/// The smoke body with runtime invariant checking optionally enabled.
/// Rows must be bit-identical either way — CI runs both and diffs.
pub fn smoke_checked(invariants: bool) -> Vec<RecoveryRow> {
    let spec = spec_for(Scale::Quick);
    let mut rows = Vec::new();
    for fault in [Fault::Crash, Fault::Stall] {
        let mut pair = Vec::new();
        for window in [None, Some(30u64)] {
            let mut res = ResilienceConfig {
                faults: fault.schedule(spec.horizon(), WORKERS),
                retry: Some(RetryPolicy::paper_default()),
                ..ResilienceConfig::default()
            };
            if let Some(us) = window {
                res =
                    res.with_recovery(RecoveryPolicy::with_suspicion(SimDuration::from_micros(us)));
            }
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

/// Render rows as an aligned table.
pub fn table(rows: &[RecoveryRow]) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "## recovery — 250k rps paper bimodal: NIC-side orphan re-dispatch vs client-retry-only\n",
    );
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:<13} {:>7} {:>8} {:>10} {:>8} {:>7} {:>6} {:>6} {:>5} {:>5} {:>6} {:>6}",
        "policy",
        "fault",
        "mode",
        "win_us",
        "goodput",
        "p99",
        "retries",
        "abandon",
        "strand",
        "recov",
        "dups",
        "susp",
        "readmt",
        "unacct"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:<13} {:>7} {:>8.4} {:>10} {:>8} {:>7} {:>6} {:>6} {:>5} {:>5} {:>6} {:>6}",
            r.policy.to_string(),
            r.fault,
            r.mode,
            r.window_us,
            r.goodput,
            r.p99.to_string(),
            r.retries,
            r.abandoned,
            r.stranded,
            r.recovered,
            r.duplicates,
            r.suspicions,
            r.readmissions,
            r.unaccounted
        );
    }
    out
}

/// Render rows as a JSON array (no external serializer: every field is a
/// number or a fixed label, so the encoding is trivial and stable).
pub fn json(rows: &[RecoveryRow]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"policy\":\"{}\",\"fault\":\"{}\",\"mode\":\"{}\",\"window_us\":{},\"goodput\":{:.6},\"p99_ns\":{},\"retries\":{},\"abandoned\":{},\"stranded\":{},\"recovered\":{},\"duplicates\":{},\"suspicions\":{},\"readmissions\":{},\"unaccounted\":{}}}",
            r.policy,
            r.fault,
            r.mode,
            r.window_us,
            r.goodput,
            r.p99.as_nanos(),
            r.retries,
            r.abandoned,
            r.stranded,
            r.recovered,
            r.duplicates,
            r.suspicions,
            r.readmissions,
            r.unaccounted
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Persist rows as CSV next to the figure outputs; returns the path.
pub fn write_csv(
    rows: &[RecoveryRow],
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write;
    let mut out = String::from(
        "policy,fault,mode,window_us,goodput,p99_us,retries,abandoned,stranded,recovered,duplicates,suspicions,readmissions,unaccounted\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.3},{},{},{},{},{},{},{},{}",
            csv_field(&r.policy.to_string()),
            r.fault,
            r.mode,
            r.window_us,
            r.goodput,
            r.p99.as_nanos() as f64 / 1e3,
            r.retries,
            r.abandoned,
            r.stranded,
            r.recovered,
            r.duplicates,
            r.suspicions,
            r.readmissions,
            r.unaccounted
        );
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join("recovery.csv");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_proves_the_headline_and_closes_ledgers() {
        let rows = smoke();
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
    fn smoke_is_deterministic() {
        let a = json(&smoke());
        let b = json(&smoke());
        assert_eq!(a, b);
    }

    #[test]
    fn table_and_json_render_all_rows() {
        let rows = smoke();
        let t = table(&rows);
        assert!(t.contains("recovery"));
        assert!(t.contains("nic-recovery"));
        let j = json(&rows);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(j.matches("\"policy\"").count(), rows.len());
    }
}
