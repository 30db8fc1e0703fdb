//! Seeded property test for the client retry machinery: whatever the
//! seed, loss rate, or load, retransmissions must never manufacture a
//! duplicate completion — every request completes at most once, and the
//! request ledger closes exactly. (The companion property — backoff never
//! exceeds its cap — lives next to `RetryPolicy` in the workload crate.)

use proptest::prelude::*;
use sim_core::{FaultConfig, ProbeConfig, SimDuration};
use systems::offload::OffloadConfig;
use systems::{ResilienceConfig, ServerSystem, StalenessPolicy, SystemConfig};
use workload::{RetryPolicy, ServiceDist, WorkloadSpec};

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

proptest! {
    // Whole-system simulations are the test body, so keep the case count
    // small; each case still exercises thousands of requests.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn retries_never_produce_duplicate_completions(
        seed in 1u64..10_000,
        loss in 0.001f64..0.08,
        rps in 150_000.0f64..350_000.0,
    ) {
        let res = ResilienceConfig {
            faults: FaultConfig::default().with_wire_loss(loss),
            retry: Some(RetryPolicy::paper_default()),
                fallback: Some(StalenessPolicy::paper_default()),
            ..ResilienceConfig::default()
        };
        let sys = SystemConfig::Offload(OffloadConfig::paper(4, 4));
        let m = sys.run_resilient(spec(seed, rps), ProbeConfig::disabled(), res);
        let f = &m.faults;

        // At these loss rates some attempt must have been retransmitted,
        // otherwise the property is vacuous.
        prop_assert!(f.retries > 0, "no retries at loss={loss}: {f:?}");
        // Each request completes at most once: `completed_all` counts
        // *distinct* requests ever finished, so the latency histogram
        // (measure window only) can never exceed it, and distinct
        // completions can never exceed launches — a duplicate recording
        // would break one of the two.
        prop_assert!(m.completed <= f.completed_all, "duplicate completion recorded: {:?}", f);
        prop_assert!(f.completed_all <= f.launched, "{:?}", f);
        // And the ledger closes exactly: every launched request is a
        // first completion, an abandonment, or still open — duplicates
        // and orphans are suppressed outside that equation.
        prop_assert_eq!(f.unaccounted(), 0, "request ledger leaks: {:?}", f);
        prop_assert!(f.in_pipe() >= 0, "attempt ledger over-accounts: {:?}", f);
    }
}
