//! The benchmark's workloads and the five assemblies each one runs.
//!
//! Every client is Poisson open-loop at a fixed offered rate. Every rate
//! sits below every assembly's knee (goodput ≥ 0.99, zero drops, checked on
//! every run), so the events a request causes do not grow with the
//! horizon and host ns per request is a property of the code, not of a
//! backlog.

use sim_core::{ProbeConfig, SimDuration};
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::multi_shinjuku::MultiShinjukuConfig;
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::SystemConfig;
use workload::{ServiceDist, WorkloadSpec};

/// Requests one run simulates (warm-up included). Long enough that
/// per-run constants (construction, warm-up) are noise, short enough that
/// a run takes a fraction of a second.
pub const REQUESTS_PER_RUN: f64 = 100_000.0;

/// Simulated warm-up before latencies count.
const WARMUP: SimDuration = SimDuration::from_millis(5);

/// Assembly names in table order, as `ServerSystem::name` reports them.
pub const ASSEMBLIES: [&str; 5] = [
    "shinjuku-offload",
    "shinjuku",
    "rss",
    "rpcvalet",
    "multi-shinjuku",
];

/// Worker counts of the five assemblies.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// Offload 4w cap 4, Shinjuku 4w, RSS 4w, RPCValet 4w, multi split(10,2).
    Small,
    /// Offload 16w cap 5, Shinjuku 15w, RSS 16w, RPCValet 16w, multi
    /// split(34,2).
    Big,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The paper's bimodal mix (99.5% 5 µs, 0.5% 100 µs) with a 10 µs
    /// preemption slice; otherwise fixed 1 µs with no slice.
    pub bimodal: bool,
    pub body_len: u16,
    pub offered_rps: f64,
    pub topology: Topology,
    /// Run with `ProbeConfig::enabled()`.
    pub probed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig2-bimodal",
        bimodal: true,
        body_len: 64,
        offered_rps: 400_000.0,
        topology: Topology::Small,
        probed: false,
    },
    Workload {
        name: "fig6-tiny",
        bimodal: false,
        body_len: 64,
        offered_rps: 1_000_000.0,
        topology: Topology::Big,
        probed: false,
    },
    Workload {
        name: "fig6-tiny-1KiB",
        bimodal: false,
        body_len: 1024,
        offered_rps: 1_000_000.0,
        topology: Topology::Big,
        probed: false,
    },
    Workload {
        name: "fig2-bimodal-probed",
        bimodal: true,
        body_len: 64,
        offered_rps: 400_000.0,
        topology: Topology::Small,
        probed: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated input: the same seed gives the same request stream.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        let dist = if self.bimodal {
            ServiceDist::paper_bimodal()
        } else {
            ServiceDist::Fixed(SimDuration::from_micros(1))
        };
        let horizon = SimDuration::from_secs_f64(REQUESTS_PER_RUN / self.offered_rps);
        WorkloadSpec {
            offered_rps: self.offered_rps,
            dist,
            body_len: self.body_len,
            warmup: WARMUP,
            measure: horizon.saturating_sub(WARMUP),
            seed,
        }
    }

    pub fn probe(&self) -> ProbeConfig {
        if self.probed {
            ProbeConfig::enabled()
        } else {
            ProbeConfig::disabled()
        }
    }

    /// The five assemblies, in [`ASSEMBLIES`] order.
    pub fn assemblies(&self) -> [SystemConfig; 5] {
        let (offload, shinjuku, workers, multi) = match self.topology {
            Topology::Small => (
                OffloadConfig::paper(4, 4),
                ShinjukuConfig::paper(4),
                4,
                MultiShinjukuConfig::split(10, 2),
            ),
            Topology::Big => (
                OffloadConfig::paper(16, 5),
                ShinjukuConfig::paper(15),
                16,
                MultiShinjukuConfig::split(34, 2),
            ),
        };
        // The paper config slices at 10 µs; the 1 µs workloads run
        // without preemption, as in Fig. 6.
        let slice = if self.bimodal {
            offload.time_slice
        } else {
            None
        };
        [
            SystemConfig::Offload(OffloadConfig {
                time_slice: slice,
                ..offload
            }),
            SystemConfig::Shinjuku(ShinjukuConfig {
                time_slice: slice,
                ..shinjuku
            }),
            SystemConfig::Baseline(BaselineConfig {
                workers,
                kind: BaselineKind::Rss,
            }),
            SystemConfig::RpcValet(RpcValetConfig { workers }),
            SystemConfig::MultiShinjuku(MultiShinjukuConfig {
                time_slice: slice,
                ..multi
            }),
        ]
    }
}
