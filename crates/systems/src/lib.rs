//! # systems — full-system assemblies
//!
//! Each module wires the substrates (NIC model, CPU model, wire formats,
//! workload generation) and the `nicsched` dispatcher into one complete
//! simulated server, a model implementing [`common::Assembly`]:
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
//! All of them run requests on the same host worker cores, written once in
//! [`common`]; a model adds only how work reaches a core and what a
//! finished or preempted run sends back. Shinjuku and Shinjuku-Offload
//! also share one dispatcher core there: the centralized dispatcher with
//! its admission control, staleness governor and liveness tick. They
//! differ only in where it runs and how notices and assignments travel.
//!
//! Every hop carries a typed Ethernet/IPv4/UDP frame
//! ([`net_wire::FrameSpec`]) whose length sets link time; bytes exist
//! only at the codec edge, where runs with invariant checking on build
//! each frame and parse it back. All systems are deterministic per seed.
//!
//! The entry point is the [`ServerSystem`] trait (see [`api`]):
//! `cfg.run(spec, ProbeConfig::disabled())` works uniformly across every
//! assembly, and `ProbeConfig::enabled()` attaches a per-stage
//! [`sim_core::StageReport`] to the returned metrics. Every config runs
//! through the one harness [`common::run`], which callers may also use
//! directly for an assembly's [`Extra`](common::Assembly::Extra) (e.g.
//! Shinjuku's per-group imbalance).

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
pub use common::{ResilienceConfig, ResponseOutcome, StalenessPolicy, TimeoutOutcome};
pub use sim_core::ProbeConfig;
