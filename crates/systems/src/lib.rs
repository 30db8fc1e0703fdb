//! # systems — full-system assemblies
//!
//! Each module wires the substrates (NIC model, CPU model, wire formats,
//! workload generation) and the `nicsched` dispatcher into one complete
//! simulated server, exposing a uniform `run(WorkloadSpec, Config) ->
//! RunMetrics` entry point:
//!
//! * [`shinjuku`] — Shinjuku: host-resident networker + dispatcher
//!   hyperthreads, shared-memory queues, worker preemption (the paper's
//!   baseline in every figure). With several dispatcher groups behind
//!   RSS it is also the §2.2(3) scale-out, with imbalance accounting.
//! * [`offload`] — Shinjuku-Offload: networking subsystem and the
//!   three-core dispatcher pipeline on SmartNIC ARM cores, packet-based
//!   worker communication, the §3.4.5 queuing optimization. Generic over
//!   [`nicsched::NicProfile`], so the same assembly runs the Stingray,
//!   the CXL variant, and the ideal line-rate NIC.
//! * [`baseline`] — the §2.1 run-to-completion systems: RSS (IX-style),
//!   RSS + work stealing (ZygOS-style), Flow Director (MICA-style), and
//!   Elastic RSS (§5.1(1)'s µs-scale core provisioning).
//! * [`rpcvalet`] — RPCValet-style NI-integrated hardware queue (§2.1):
//!   perfect balance, nanosecond dispatch, no preemption.
//!
//! All systems exchange real Ethernet/IPv4/UDP frames on external hops
//! and are deterministic per seed.
//!
//! The preferred entry point is the [`ServerSystem`] trait (see [`api`]):
//! `cfg.run(spec, ProbeConfig::disabled())` works uniformly across every
//! assembly, and `ProbeConfig::enabled()` attaches a per-stage
//! [`sim_core::StageReport`] to the returned metrics. Each module's free
//! `run_probed` and `run_resilient_probed` functions are the assembly's
//! own entry points, which the trait implementations call; they also
//! return assembly-specific metrics (e.g. Shinjuku's per-group
//! imbalance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod common;
pub mod offload;
pub mod rpcvalet;
pub mod shinjuku;

/// The scale-out's former module path, kept so code written against it
/// (the benchmark among it) still builds: one group or many is the same
/// [`shinjuku`] assembly.
pub mod multi_shinjuku {
    pub use crate::shinjuku::ShinjukuConfig as MultiShinjukuConfig;
}

pub use api::{ServerSystem, SystemConfig};
pub use common::{
    FeedbackGovernor, ResilienceConfig, ResponseOutcome, StalenessPolicy, TimeoutOutcome,
};
pub use sim_core::ProbeConfig;
