//! Observability-layer guarantees:
//!
//! 1. The per-hop stage breakdown telescopes to the client-observed
//!    sojourn time — the report is an *accounting* of latency, not a
//!    separate estimate.
//! 2. Probing never perturbs the simulation: metrics with the probe
//!    enabled equal metrics with it disabled, and the disabled path is
//!    bit-identical to the direct free-function API.
//! 3. Queue gauges see every pop as well as every push, so an idle queue
//!    reads empty.

use nicsched::PolicySpec;
use sim_core::{ProbeConfig, SimDuration};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ServerSystem, SystemConfig};
use workload::{ServiceDist, WorkloadSpec};

/// A workload where every request traverses the identical stage chain:
/// fixed 5 µs service (far below the 10 µs slice, so no preemption ever
/// re-enters the dispatch path), moderate load, no warmup so the client
/// records every completion the probe also saw.
fn uniform_chain_spec() -> WorkloadSpec {
    WorkloadSpec {
        offered_rps: 150_000.0,
        dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
        body_len: 64,
        warmup: SimDuration::ZERO,
        measure: SimDuration::from_millis(20),
        seed: 7,
    }
}

/// The five assemblies `trace` shows, with the scale-out as two groups.
fn five_assemblies() -> [SystemConfig; 5] {
    [
        SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::Shinjuku(ShinjukuConfig {
            groups: 2,
            workers: 2,
            time_slice: None,
            policy: PolicySpec::FCFS,
        }),
    ]
}

#[test]
fn offload_hop_breakdown_reconciles_with_client_sojourn() {
    let cfg = OffloadConfig::paper(4, 4);
    let m = cfg.run(uniform_chain_spec(), ProbeConfig::enabled());
    let stages = m.stages.as_ref().expect("probed run must report stages");
    assert_eq!(m.preemptions, 0, "test premise: a single uniform chain");

    // Every request the client saw complete went through the full chain.
    let chain: Vec<_> = stages.chain_hops().collect();
    assert!(chain.len() >= 6, "offload chain has 6+ hops: {chain:?}");

    // The telescoped per-hop means reconcile with the client's mean
    // sojourn. They are not identical populations: requests still in
    // flight at the horizon are censored differently on each side, so
    // allow a small tolerance.
    let chain_mean = stages.chain_mean().as_nanos() as f64;
    let client_mean = m.mean.as_nanos() as f64;
    let rel = (chain_mean - client_mean).abs() / client_mean;
    assert!(
        rel < 0.05,
        "chain mean {chain_mean}ns vs client mean {client_mean}ns (rel err {rel:.4})"
    );
}

#[test]
fn every_queue_gauge_reads_near_empty_at_light_load() {
    // At 20k requests/s on 4 workers nothing waits long, so every queue is
    // empty nearly all the time. A gauge sampled only when something
    // arrives would hold its last push-time depth (1 or more) between
    // arrivals and read ~1 here.
    let spec = WorkloadSpec {
        offered_rps: 20_000.0,
        ..uniform_chain_spec()
    };
    let mut full = Vec::new();
    for sys in five_assemblies() {
        let m = sys.run(spec, ProbeConfig::enabled());
        let stages = m.stages.expect("probed run must report stages");
        assert!(!stages.stages.is_empty(), "{}: no stages", sys.name());
        for s in stages.stages.iter().filter(|s| s.mean_depth >= 0.1) {
            full.push(format!("{} {} {:.3}", sys.name(), s.name, s.mean_depth));
        }
    }
    assert!(full.is_empty(), "mean depths at light load: {full:#?}");
}

#[test]
fn probing_does_not_perturb_the_simulation() {
    let spec = uniform_chain_spec();
    let cfg = OffloadConfig::paper(4, 4);
    let disabled = cfg.run(spec, ProbeConfig::disabled());
    let mut probed = cfg.run(spec, ProbeConfig::enabled());
    assert!(probed.stages.take().is_some());
    assert_eq!(disabled, probed, "observability must be a pure read");
}

#[test]
fn the_feedback_gap_is_measurable() {
    // The paper's central argument: the host dispatcher learns about a
    // completed request only after a PCIe + queue round trip, so a worker
    // sits idle in the gap. The probe surfaces it as the `worker.idle_gap`
    // hop; with work always queued, its mean must be at least the
    // NIC-to-worker notification path (microseconds, not nanoseconds).
    let spec = WorkloadSpec {
        offered_rps: 400_000.0, // keep workers hungry but unsaturated
        ..uniform_chain_spec()
    };
    let cfg = OffloadConfig::paper(4, 4);
    let m = cfg.run(spec, ProbeConfig::enabled());
    let stages = m.stages.as_ref().unwrap();
    let gap = stages.hop("worker.idle_gap").expect("idle gap measured");
    assert!(gap.count > 0);
    assert!(
        gap.mean >= SimDuration::from_nanos(500),
        "offload feedback gap should be sub-us-scale but nonzero: {}",
        gap.mean
    );
}
