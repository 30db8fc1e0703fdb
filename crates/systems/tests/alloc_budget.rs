//! Allocation budget of the per-request path.
//!
//! With the probe off, a request should allocate only the frames built for
//! it (one buffer each) plus at most one allocation of bookkeeping. Every
//! per-request table is a dense id table, the dispatcher reuses its
//! candidate and assignment buffers, and histograms grow to their highest
//! bucket once, so a run in steady state should allocate nothing else.
//!
//! The budget is checked on the second half of a run: the difference
//! between a run of `2N` requests and a run of the same `N`-request
//! prefix, so construction and warm-up growth cancel out. A counting
//! global allocator does the counting; this file holds a single test so
//! no other test thread allocates while it counts.

use std::alloc::System;

use sim_core::{ProbeConfig, SimDuration};
use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::multi_shinjuku::MultiShinjukuConfig;
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ServerSystem, SystemConfig};
use workload::{RunMetrics, ServiceDist, WorkloadSpec};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// The paper's headline point: bimodal 5/100 µs at 400 kRPS.
const RPS: f64 = 400_000.0;
/// Requests in the first half of a run.
const HALF: f64 = 5_000.0;

fn spec(requests: f64) -> WorkloadSpec {
    let warmup = SimDuration::from_millis(1);
    WorkloadSpec {
        offered_rps: RPS,
        dist: ServiceDist::paper_bimodal(),
        body_len: 64,
        warmup,
        measure: SimDuration::from_secs_f64(requests / RPS).saturating_sub(warmup),
        seed: 1,
    }
}

/// The five assemblies at the Fig. 2 point: 4 workers (offload stashes up
/// to 4 per worker), a 10 µs slice where the assembly preempts.
fn assemblies() -> [SystemConfig; 5] {
    [
        SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::MultiShinjuku(MultiShinjukuConfig::split(10, 2)),
    ]
}

/// Frames built over a probed run: the request, the response, and on
/// shinjuku-offload the Assign and Done/Preempted frames crossing PCIe.
fn frames_built(sys: &SystemConfig, m: &RunMetrics) -> u64 {
    let stages = m.stages.as_ref().expect("a probed run reports stages");
    let counters: &[&str] = match sys {
        SystemConfig::Offload(_) => &["client.sent", "tx.built", "rx.notifs", "worker.completed"],
        _ => &["client.sent", "worker.completed"],
    };
    counters.iter().map(|c| stages.counter(c)).sum()
}

#[test]
fn steady_state_allocates_only_frames_plus_one_per_request() {
    let (half, full) = (spec(HALF), spec(2.0 * HALF));
    for sys in assemblies() {
        let mut region = Region::new(GLOBAL);
        let first = sys.run(half, ProbeConfig::disabled());
        let allocs_first = region.change().allocations;
        region.reset();
        let both = sys.run(full, ProbeConfig::disabled());
        let allocs_both = region.change().allocations;

        let requests = both.faults.launched - first.faults.launched;
        assert!(
            requests as f64 > 0.9 * HALF,
            "{}: second half too short",
            sys.name()
        );
        let frames = frames_built(&sys, &sys.run(full, ProbeConfig::enabled()))
            - frames_built(&sys, &sys.run(half, ProbeConfig::enabled()));
        let allocs = allocs_both - allocs_first;
        let (per_req, budget) = (
            allocs as f64 / requests as f64,
            frames as f64 / requests as f64 + 1.0,
        );
        assert!(
            per_req <= budget,
            "{}: {per_req:.3} allocations per request in the second half, budget {budget:.3} \
             (frames built + 1)",
            sys.name()
        );
    }
}
