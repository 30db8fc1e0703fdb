//! The invcheck contract, property-tested across every assembly: enabling
//! runtime invariant checking must be pure observation. For any seed and
//! load, a checked run must produce a FaultMetrics ledger (and headline
//! metrics) bit-identical to the unchecked run — and the checked run must
//! come back certified clean, since `close_invariants` panics on any
//! violation before returning.

use proptest::prelude::*;
use sim_core::{FaultConfig, ProbeConfig, SimDuration};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ResilienceConfig, ServerSystem, StalenessPolicy, SystemConfig};
use workload::{RetryPolicy, ServiceDist, WorkloadSpec};

fn spec(seed: u64, rps: f64) -> WorkloadSpec {
    WorkloadSpec {
        offered_rps: rps,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(4),
        seed,
    }
}

fn all_assemblies() -> Vec<SystemConfig> {
    vec![
        SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::Shinjuku(ShinjukuConfig::split(8, 2)),
    ]
}

proptest! {
    // Each case runs all five assemblies twice; keep the count small.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn invariant_checking_is_bit_identical_on_every_assembly(
        seed in 1u64..10_000,
        loss in 0.0f64..0.05,
        rps in 150_000.0f64..300_000.0,
    ) {
        let base = ResilienceConfig {
            faults: FaultConfig::default().with_wire_loss(loss),
            retry: Some(RetryPolicy::paper_default()),
                fallback: Some(StalenessPolicy::paper_default()),
            ..ResilienceConfig::default()
        };
        for sys in all_assemblies() {
            let w = spec(seed, rps);
            let plain = sys.run_resilient(w, ProbeConfig::disabled(), base);
            let checked = sys.run_resilient(w, ProbeConfig::disabled(), base.with_invariants());
            prop_assert_eq!(
                &plain.faults, &checked.faults,
                "{}: invcheck perturbed the fault ledger", sys.name()
            );
            prop_assert_eq!(
                &plain, &checked,
                "{}: invcheck perturbed the run", sys.name()
            );
        }
    }
}
