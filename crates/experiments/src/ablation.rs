//! Extension experiments: the §5.1 hardware-fix ablations and the §2.2
//! baseline-failure comparison.
//!
//! These go beyond the paper's measured figures and quantify its
//! *proposals*: what happens to the Figure 6 bottleneck when the packet
//! path becomes CXL, when the ARM pipeline becomes an ASIC, and what the
//! dispersion workload does to every §2.1 baseline at one fixed load.

use nicsched::{NicProfile, PolicySpec};
use sim_core::SimDuration;
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use workload::{ServiceDist, WorkloadSpec};

use crate::figures::{tagged, Scale};
use crate::report::Figure;
use crate::sweep::{linspace, run_grid, GridCurve};

/// The ablation family's shared base spec (seed 11, figure windows).
fn spec(scale: Scale, offered: f64, dist: ServiceDist) -> WorkloadSpec {
    scale.spec_seeded(offered, dist, 11)
}

/// **Ablation A (comm-path)** — the Figure 6 workload (fixed 1 µs, 16
/// workers, cap 5) on three §5.1 design points: the measured Stingray,
/// Stingray-with-CXL, and the ideal line-rate NIC. Quantifies how much of
/// the offload bottleneck is transport vs ARM compute. `policy`
/// (`--policy`) overrides the paper's FCFS and tags the curve labels.
pub fn comm_path(scale: Scale, policy: Option<PolicySpec>) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
    let loads = linspace(
        250_000.0,
        4_000_000.0,
        match scale {
            Scale::Quick => 6,
            Scale::Full => 16,
        },
    );
    let profile_curve = |label: &str, profile: NicProfile| {
        GridCurve::system(
            tagged(label, policy),
            OffloadConfig {
                time_slice: None,
                profile,
                policy: policy.unwrap_or(PolicySpec::FCFS),
                ..OffloadConfig::paper(16, 5)
            },
        )
    };
    Figure {
        id: "ablation_comm".into(),
        title: "fixed 1us, Offload 16w (cap 5): Stingray vs Stingray+CXL vs ideal NIC".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                profile_curve("Stingray", NicProfile::stingray()),
                profile_curve("Stingray-CXL", NicProfile::stingray_cxl()),
                profile_curve("Ideal-NIC", NicProfile::ideal()),
            ],
        ),
    }
}

/// **Ablation B (preemption path)** — bimodal workload with preemption via
/// worker-local Dune timers (the prototype) vs NIC-sent interrupt packets
/// (the design §3.4.4 rejects because of the 2.56 µs path). `policy` as
/// in [`comm_path`].
pub fn preempt_path(scale: Scale, policy: Option<PolicySpec>) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::paper_bimodal());
    let loads = linspace(
        50_000.0,
        550_000.0,
        match scale {
            Scale::Quick => 5,
            Scale::Full => 11,
        },
    );
    let profile_curve = |label: &str, profile: NicProfile| {
        GridCurve::system(
            tagged(label, policy),
            OffloadConfig {
                profile,
                policy: policy.unwrap_or(PolicySpec::FCFS),
                ..OffloadConfig::paper(4, 4)
            },
        )
    };
    Figure {
        id: "ablation_preempt".into(),
        title: "bimodal, Offload 4w (cap 4): local APIC timer vs packet-based preemption".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                profile_curve("Local-timer", NicProfile::stingray()),
                profile_curve("Packet-interrupt", NicProfile::stingray_packet_preemption()),
            ],
        ),
    }
}

/// **Baselines (§2.1/§2.2)** — the dispersion story at a sweep of loads:
/// RSS, RSS+stealing, Flow Director, Shinjuku, Shinjuku-Offload on the
/// bimodal workload, all with 4 worker cores (Shinjuku gets 3 + the
/// dispatcher core, matching the paper's accounting).
pub fn baselines(scale: Scale) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::paper_bimodal());
    let loads = linspace(
        50_000.0,
        450_000.0,
        match scale {
            Scale::Quick => 5,
            Scale::Full => 9,
        },
    );
    let baseline = |label: &str, kind: BaselineKind| {
        GridCurve::system(label, BaselineConfig { workers: 4, kind })
    };
    Figure {
        id: "baselines".into(),
        title: "bimodal dispersion across scheduling designs (4 host cores)".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                baseline("RSS", BaselineKind::Rss),
                baseline("WorkStealing", BaselineKind::RssStealing),
                baseline("FlowDirector", BaselineKind::FlowDirector),
                GridCurve::system("RPCValet", RpcValetConfig { workers: 4 }),
                GridCurve::system("Shinjuku", ShinjukuConfig::paper(3)),
                GridCurve::system("Shinjuku-Offload", OffloadConfig::paper(4, 4)),
            ],
        ),
    }
}

/// **Ablation C (DDIO, §5.2)** — unloaded latency with classic LLC DDIO vs
/// the informed-scheduler L1 placement the paper proposes. `policy` as in
/// [`comm_path`].
pub fn ddio(scale: Scale, policy: Option<PolicySpec>) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
    let loads = linspace(
        50_000.0,
        800_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 8,
        },
    );
    let with = |label: &str, ddio_l1: bool| {
        GridCurve::system(
            tagged(label, policy),
            OffloadConfig {
                time_slice: None,
                ddio_l1,
                policy: policy.unwrap_or(PolicySpec::FCFS),
                ..OffloadConfig::paper(4, 2)
            },
        )
    };
    Figure {
        id: "ablation_ddio".into(),
        title: "fixed 1us, Offload 4w (cap 2): LLC DDIO vs informed L1 placement (§5.2)".into(),
        curves: run_grid(
            &loads,
            base,
            vec![with("DDIO-LLC", false), with("DDIO-L1", true)],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::peak_throughput;

    #[test]
    fn comm_path_ordering() {
        let f = comm_path(Scale::Quick, None);
        let stingray = peak_throughput(&f.curves[0].points);
        let cxl = peak_throughput(&f.curves[1].points);
        let ideal = peak_throughput(&f.curves[2].points);
        // CXL shortens the RTT but the ARM TX stage still binds; the ideal
        // NIC removes both.
        assert!(
            cxl >= stingray * 0.95,
            "cxl {cxl:.0} vs stingray {stingray:.0}"
        );
        assert!(
            ideal > stingray * 1.5,
            "ideal {ideal:.0} should crush stingray {stingray:.0}"
        );
    }

    #[test]
    fn packet_preemption_hurts_tail() {
        let f = preempt_path(Scale::Quick, None);
        let local = &f.curves[0].points;
        let packet = &f.curves[1].points;
        // Compare p99 at the highest common unsaturated load.
        let pair = local
            .iter()
            .zip(packet)
            .rfind(|(a, b)| !a.saturated(0.05) && !b.saturated(0.05));
        let (a, b) = pair.expect("at least one unsaturated point");
        assert!(
            b.p99 >= a.p99,
            "packet-based preemption should not beat local timers: {} vs {}",
            b.p99,
            a.p99
        );
    }

    #[test]
    fn baselines_show_the_dispersion_story() {
        let f = baselines(Scale::Quick);
        let find = |label: &str| &f.curves.iter().find(|c| c.label == label).unwrap().points;
        // At the mid load, run-to-completion RSS should have a far worse
        // tail than the centralized preemptive systems.
        let mid = f.curves[0].points.len() / 2;
        let rss = find("RSS")[mid].p99;
        let shin = find("Shinjuku")[mid].p99;
        let off = find("Shinjuku-Offload")[mid].p99;
        assert!(rss > shin, "rss {rss} vs shinjuku {shin}");
        assert!(rss > off, "rss {rss} vs offload {off}");
    }

    #[test]
    fn ddio_l1_is_never_slower() {
        let f = ddio(Scale::Quick, None);
        for (llc, l1) in f.curves[0].points.iter().zip(&f.curves[1].points) {
            if !llc.saturated(0.05) && !l1.saturated(0.05) {
                assert!(
                    l1.p50 <= llc.p50,
                    "L1 placement should not hurt median: {} vs {}",
                    l1.p50,
                    llc.p50
                );
            }
        }
    }
}
