//! # bench — the perf gate
//!
//! Shared helpers for the `perf` binary, which times the event queue
//! against the legacy heap on simulator-shaped traffic and gates CI on
//! `BENCH_5.json`. Per-layer and end-to-end simulator costs are measured
//! by the standalone `simbench` package at the repository root.

#![forbid(unsafe_code)]

use sim_core::SimDuration;
use workload::{ServiceDist, WorkloadSpec};

/// A short, deterministic workload point for benchmarking one simulation.
pub fn bench_spec(offered_rps: f64, dist: ServiceDist) -> WorkloadSpec {
    WorkloadSpec {
        offered_rps,
        dist,
        body_len: 64,
        warmup: SimDuration::from_millis(1),
        measure: SimDuration::from_millis(8),
        seed: 77,
    }
}
