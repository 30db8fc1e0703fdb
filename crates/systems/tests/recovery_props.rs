//! Seeded property tests for NIC-side failure recovery: under any
//! crash/stall schedule, re-dispatching orphaned requests must never
//! manufacture a duplicate completion, and the three ledgers — the
//! client's request ledger, the attempt ledger, and the dispatcher's
//! recovery ledger — must reconcile exactly.

use nicsched::PolicySpec;
use proptest::prelude::*;
use sim_core::{FaultConfig, ProbeConfig, SimDuration, SimTime};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ResilienceConfig, ServerSystem, SystemConfig};
use workload::{FaultMetrics, RetryPolicy, ServiceDist, WorkloadSpec};

fn spec(seed: u64, rps: f64) -> WorkloadSpec {
    WorkloadSpec {
        offered_rps: rps,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(5),
        seed,
    }
}

/// Build a fault schedule from proptest-drawn crash/stall descriptors.
/// Times land inside the 6ms horizon so every fault can actually fire.
fn schedule(crashes: &[(usize, u64)], stalls: &[(usize, u64, u64)]) -> FaultConfig {
    let mut faults = FaultConfig::default();
    for &(worker, at_us) in crashes {
        faults = faults.with_crash(worker, SimTime::from_micros(at_us));
    }
    for &(worker, start_us, len_us) in stalls {
        faults = faults.with_stall(
            worker,
            SimTime::from_micros(start_us),
            SimTime::from_micros(start_us + len_us.max(1)),
        );
    }
    faults
}

/// The invariants every recovery-enabled run must satisfy, whatever the
/// fault schedule did.
fn check_ledgers(f: &FaultMetrics, completed_in_window: u64) -> Result<(), TestCaseError> {
    // Exactly-once: `completed_all` counts distinct requests, so the
    // measure-window histogram can never exceed it, and distinct
    // completions can never exceed launches.
    prop_assert!(
        completed_in_window <= f.completed_all,
        "duplicate completion recorded: {f:?}"
    );
    prop_assert!(f.completed_all <= f.launched, "{f:?}");
    // Client request ledger closes exactly.
    prop_assert_eq!(f.unaccounted(), 0, "request ledger leaks: {:?}", f);
    // Attempt ledger stays non-negative after crediting zombie terminals.
    prop_assert!(f.in_pipe() >= 0, "attempt ledger over-accounts: {f:?}");
    // Recovery ledger: every absorbed zombie traces back to exactly one
    // reclaim marker, and every readmission to a prior suspicion.
    prop_assert!(
        f.recovery_duplicates <= f.recovered,
        "more zombies absorbed than requests reclaimed: {f:?}"
    );
    prop_assert!(
        f.readmissions <= f.suspicions,
        "readmitted a worker that was never suspected: {f:?}"
    );
    Ok(())
}

fn recovery_res(faults: FaultConfig) -> ResilienceConfig {
    ResilienceConfig {
        faults,
        retry: Some(RetryPolicy::paper_default()),
        ..ResilienceConfig::default()
    }
    .with_recovery(nicsched::RecoveryPolicy::paper_default())
}

proptest! {
    // Whole-system simulations are the test body, so keep the case count
    // small; each case still exercises thousands of requests.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn recovery_never_double_completes_offload(
        seed in 1u64..10_000,
        rps in 150_000.0f64..300_000.0,
        crashes in proptest::collection::vec((0usize..4, 1_500u64..5_500), 0..=2),
        stalls in proptest::collection::vec((0usize..4, 1_000u64..5_000, 30u64..400), 0..=3),
    ) {
        let res = recovery_res(schedule(&crashes, &stalls));
        let sys = SystemConfig::Offload(OffloadConfig::paper(4, 4));
        let m = sys.run_resilient(spec(seed, rps), ProbeConfig::disabled(), res);
        check_ledgers(&m.faults, m.completed)?;
    }

    #[test]
    fn recovery_never_double_completes_shinjuku(
        seed in 1u64..10_000,
        rps in 150_000.0f64..300_000.0,
        crashes in proptest::collection::vec((0usize..4, 1_500u64..5_500), 0..=1),
        stalls in proptest::collection::vec((0usize..4, 1_000u64..5_000, 30u64..400), 0..=3),
    ) {
        let res = recovery_res(schedule(&crashes, &stalls));
        let sys = SystemConfig::Shinjuku(ShinjukuConfig::paper(4));
        let m = sys.run_resilient(spec(seed, rps), ProbeConfig::disabled(), res);
        check_ledgers(&m.faults, m.completed)?;
    }
}

/// Deterministic end-to-end check on every assembly: a mid-run crash with
/// recovery enabled must trip the detector and reclaim the orphans
/// wherever there is a dispatcher — otherwise the properties above are
/// vacuous. RSS has none, so its recovery is a documented no-op: nothing
/// is suspected and the dead core's work strands until client retries.
#[test]
fn crash_trips_the_detector_and_reclaims_orphans() {
    let faults = FaultConfig::default().with_crash(1, SimTime::from_micros(2_000));
    let res = recovery_res(faults);
    for sys in [
        SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        SystemConfig::Shinjuku(ShinjukuConfig {
            groups: 2,
            workers: 2,
            time_slice: None,
            policy: PolicySpec::FCFS,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
    ] {
        let m = sys.run_resilient(spec(7, 250_000.0), ProbeConfig::disabled(), res);
        let f = &m.faults;
        let name = sys.name();
        assert_eq!(f.unaccounted(), 0, "{name}: {f:?}");
        if name == "rss" {
            assert_eq!(f.suspicions, 0, "{name}: no detector to trip: {f:?}");
            assert_eq!(f.recovered, 0, "{name}: {f:?}");
            assert!(
                f.stranded > 0,
                "{name}: the dead core stranded nothing: {f:?}"
            );
        } else {
            assert_eq!(
                f.suspicions, 1,
                "{name}: crashed worker not suspected once: {f:?}"
            );
            assert!(f.recovered > 0, "{name}: no orphans reclaimed: {f:?}");
        }
    }
}

/// A transient stall is the false-positive path: the worker is suspected,
/// its lease reclaimed, and when it wakes its zombie completions must be
/// absorbed exactly once while the worker is readmitted.
#[test]
fn stall_exercises_the_false_positive_path() {
    let faults = FaultConfig::default().with_stall(
        2,
        SimTime::from_micros(2_000),
        SimTime::from_micros(2_400),
    );
    let res = recovery_res(faults);
    let sys = SystemConfig::Offload(OffloadConfig::paper(4, 4));
    let m = sys.run_resilient(spec(11, 250_000.0), ProbeConfig::disabled(), res);
    let f = &m.faults;
    assert!(f.suspicions > 0, "stalled worker never suspected: {f:?}");
    assert!(f.readmissions > 0, "woken worker never readmitted: {f:?}");
    assert_eq!(f.unaccounted(), 0, "{f:?}");
    assert!(f.in_pipe() >= 0, "{f:?}");
}
