//! Allocation budget of the per-request path.
//!
//! A request in steady state allocates nothing, probe on or off: hops
//! carry typed frames by value, every per-request table is a dense id
//! table, the dispatcher reuses its candidate and assignment buffers,
//! histograms grow to their highest bucket once, and every probe row is
//! created on its first record. What remains is amortized growth of rings,
//! queues and id tables as their occupancy reaches a new high, so the
//! budget is 0.01 allocations per request with the probe off. With it on,
//! the budget is 0.005, just above the 0.0035 measured when the probe
//! still looked every key up in a map.
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
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ServerSystem, SystemConfig};
use workload::{ServiceDist, WorkloadSpec};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// The paper's headline point: bimodal 5/100 µs at 400 kRPS.
const RPS: f64 = 400_000.0;
/// Requests in the first half of a run.
const HALF: f64 = 5_000.0;
/// Allocations allowed per request in the second half.
const BUDGET: f64 = 0.01;
/// Allocations allowed per request in the second half of a probed run.
const PROBED_BUDGET: f64 = 0.005;

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
        SystemConfig::Shinjuku(ShinjukuConfig::split(10, 2)),
    ]
}

/// Allocations per request in the second half of a run of `sys`.
fn second_half(sys: SystemConfig, probe: ProbeConfig) -> f64 {
    let (half, full) = (spec(HALF), spec(2.0 * HALF));
    let mut region = Region::new(GLOBAL);
    let first = sys.run(half, probe);
    let allocs_first = region.change().allocations;
    region.reset();
    let both = sys.run(full, probe);
    let allocs_both = region.change().allocations;

    let requests = both.faults.launched - first.faults.launched;
    assert!(
        requests as f64 > 0.9 * HALF,
        "{}: second half too short",
        sys.name()
    );
    (allocs_both - allocs_first) as f64 / requests as f64
}

#[test]
fn steady_state_requests_do_not_allocate() {
    for sys in assemblies() {
        for (probe, budget) in [
            (ProbeConfig::disabled(), BUDGET),
            (ProbeConfig::enabled(), PROBED_BUDGET),
        ] {
            let per_req = second_half(sys, probe);
            assert!(
                per_req <= budget,
                "{} (probe {}): {per_req:.4} allocations per request in the second half, \
                 budget {budget}",
                sys.name(),
                if probe.enabled { "on" } else { "off" },
            );
        }
    }
}
