//! Allocation budget of the per-request path.
//!
//! With the probe off, a request in steady state allocates nothing: hops
//! carry typed frames by value, every per-request table is a dense id
//! table, the dispatcher reuses its candidate and assignment buffers, and
//! histograms grow to their highest bucket once. What remains is amortized
//! growth of rings, queues and id tables as their occupancy reaches a new
//! high, so the budget is 0.01 allocations per request.
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

#[test]
fn steady_state_requests_do_not_allocate() {
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
        let per_req = (allocs_both - allocs_first) as f64 / requests as f64;
        assert!(
            per_req <= BUDGET,
            "{}: {per_req:.4} allocations per request in the second half, budget {BUDGET}",
            sys.name()
        );
    }
}
