//! The paper's evaluation, experiment by experiment (§4, Figures 2–6).
//!
//! Every function regenerates one figure as labelled latency-throughput
//! curves (or throughput-vs-outstanding rows for Figure 3) using the same
//! workloads, worker counts and outstanding caps as the paper's captions.
//! `Scale` trades measurement length for runtime so the test suite can
//! exercise every experiment quickly while binaries run the full version.

use nicsched::PolicySpec;
use sim_core::SimDuration;
use systems::offload::OffloadConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ProbeConfig, ServerSystem};
use workload::{ServiceDist, WorkloadSpec};

use crate::report::{col, Column, Figure, Kind, Row};
use crate::sweep::{linspace, par_map, run_grid, GridCurve};

/// Measurement scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Short windows, coarse sweeps — seconds per figure, used in tests.
    Quick,
    /// Paper-resolution sweeps — the binaries' default.
    Full,
}

impl Scale {
    /// The scale's measurement windows (warmup, measure).
    pub fn windows(self) -> (SimDuration, SimDuration) {
        match self {
            Scale::Quick => (SimDuration::from_millis(2), SimDuration::from_millis(15)),
            Scale::Full => (SimDuration::from_millis(10), SimDuration::from_millis(80)),
        }
    }

    /// The shared base spec for one figure at this scale: windows and body
    /// size are fixed per scale, the seed per experiment family; sweeps
    /// derive per-point loads with [`WorkloadSpec::at`].
    pub fn spec_seeded(self, offered: f64, dist: ServiceDist, seed: u64) -> WorkloadSpec {
        let (warmup, measure) = self.windows();
        WorkloadSpec {
            offered_rps: offered,
            dist,
            body_len: 64,
            warmup,
            measure,
            seed,
        }
    }

    fn spec(self, offered: f64, dist: ServiceDist) -> WorkloadSpec {
        self.spec_seeded(offered, dist, 7)
    }

    fn points(self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 3).max(4),
            Scale::Full => full,
        }
    }
}

/// **Figure 2** — bimodal 99.5% @ 5 µs / 0.5% @ 100 µs, 10 µs slice;
/// Shinjuku 3 workers vs Shinjuku-Offload 4 workers (≤ 4 outstanding);
/// p99 vs throughput up to 600 kRPS. `policy` (`--policy`) overrides the
/// scheduler on both dispatched assemblies; `None` is the paper's FCFS,
/// and an override tags the curve labels with the policy spec so CSVs
/// stay self-describing.
pub fn fig2(scale: Scale, policy: Option<PolicySpec>) -> Figure {
    let base = scale.spec(0.0, ServiceDist::paper_bimodal());
    let loads = linspace(50_000.0, 600_000.0, scale.points(12));
    let shinjuku = ShinjukuConfig {
        policy: policy.unwrap_or(PolicySpec::FCFS),
        ..ShinjukuConfig::paper(3)
    };
    let offload = OffloadConfig {
        policy: policy.unwrap_or(PolicySpec::FCFS),
        ..OffloadConfig::paper(4, 4)
    };
    Figure {
        id: "fig2".into(),
        title: "bimodal 99.5%@5us / 0.5%@100us, slice 10us; Shinjuku 3w vs Offload 4w (cap 4)"
            .into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                GridCurve::system(tagged("Shinjuku", policy), shinjuku),
                GridCurve::system(tagged("Shinjuku-Offload", policy), offload),
            ],
        ),
    }
}

/// Append a policy spec to a curve label when one was overridden.
pub(crate) fn tagged(label: &str, policy: Option<PolicySpec>) -> String {
    match policy {
        Some(p) => format!("{label} [{p}]"),
        None => label.to_string(),
    }
}

/// One Figure 3 point: a worker count's saturated throughput at one
/// outstanding cap.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Curve label: the worker count, tagged with an overridden policy.
    pub curve: String,
    /// Offload workers.
    pub workers: usize,
    /// Outstanding requests allowed per worker.
    pub cap: u32,
    /// Achieved throughput at the saturating offered load.
    pub achieved_rps: f64,
    /// p99 sojourn at that load.
    pub p99: SimDuration,
}

/// Title of the Figure 3 table.
pub const FIG3_TITLE: &str = "fig3 — fixed 1us; Offload saturated throughput vs outstanding cap";

impl Row for Fig3Row {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("curve", Text(|r| r.curve.clone())),
            col("workers", Int(|r| r.workers as i64)),
            col("cap", Int(|r| i64::from(r.cap))),
            col("achieved_rps", Rate(|r| r.achieved_rps)),
            col("p99", Duration(|r| r.p99)),
        ]
    }
}

/// **Figure 3** — fixed 1 µs; Shinjuku-Offload only; throughput as the
/// outstanding-requests cap sweeps 1..=7, for 16 and then 4 workers. Each
/// row reports the *achieved* throughput under heavy offered load (the
/// saturation plateau the paper plots). `policy` overrides the scheduler
/// as in [`fig2`]. Rows come curve by curve, in cap order.
pub fn fig3(scale: Scale, policy: Option<PolicySpec>) -> Vec<Fig3Row> {
    // Offer well beyond any plateau so achieved == capacity.
    let base = scale.spec(2_500_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
    let cells: Vec<(usize, u32)> = [16, 4]
        .into_iter()
        .flat_map(|workers| (1..=7).map(move |cap| (workers, cap)))
        .collect();
    par_map(&cells, |&(workers, cap)| {
        let cfg = OffloadConfig {
            time_slice: None,
            policy: policy.unwrap_or(PolicySpec::FCFS),
            ..OffloadConfig::paper(workers, cap)
        };
        let m = cfg.run(base, ProbeConfig::disabled());
        Fig3Row {
            curve: tagged(&format!("{workers} workers"), policy),
            workers,
            cap,
            achieved_rps: m.achieved_rps,
            p99: m.p99,
        }
    })
}

/// **Figure 4** — fixed 5 µs, preemption off; Shinjuku 3 workers vs
/// Offload 4 workers (≤ 4 outstanding); p99 vs throughput to 700 kRPS.
pub fn fig4(scale: Scale) -> Figure {
    let base = scale.spec(0.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
    let loads = linspace(50_000.0, 700_000.0, scale.points(14));
    Figure {
        id: "fig4".into(),
        title: "fixed 5us, no preemption; Shinjuku 3w vs Offload 4w (cap 4)".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                GridCurve::system(
                    "Shinjuku",
                    ShinjukuConfig {
                        workers: 3,
                        time_slice: None,
                        ..ShinjukuConfig::paper(3)
                    },
                ),
                GridCurve::system(
                    "Shinjuku-Offload",
                    OffloadConfig {
                        time_slice: None,
                        ..OffloadConfig::paper(4, 4)
                    },
                ),
            ],
        ),
    }
}

/// **Figure 5** — fixed 100 µs; Shinjuku 15 workers vs Offload 16 workers
/// (≤ 2 outstanding); p99 vs throughput to 150 kRPS.
pub fn fig5(scale: Scale) -> Figure {
    let base = scale.spec(0.0, ServiceDist::Fixed(SimDuration::from_micros(100)));
    let loads = linspace(20_000.0, 160_000.0, scale.points(15));
    Figure {
        id: "fig5".into(),
        title: "fixed 100us, no preemption; Shinjuku 15w vs Offload 16w (cap 2)".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                GridCurve::system(
                    "Shinjuku",
                    ShinjukuConfig {
                        workers: 15,
                        time_slice: None,
                        ..ShinjukuConfig::paper(15)
                    },
                ),
                GridCurve::system(
                    "Shinjuku-Offload",
                    OffloadConfig {
                        time_slice: None,
                        ..OffloadConfig::paper(16, 2)
                    },
                ),
            ],
        ),
    }
}

/// **Figure 6** — fixed 1 µs; Shinjuku 15 workers vs Offload 16 workers
/// (≤ 5 outstanding); p99 vs throughput to 4 MRPS. The offload's ARM
/// dispatcher is the bottleneck; Shinjuku "greatly outperforms".
pub fn fig6(scale: Scale) -> Figure {
    let base = scale.spec(0.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
    let loads = linspace(250_000.0, 4_000_000.0, scale.points(16));
    Figure {
        id: "fig6".into(),
        title: "fixed 1us, no preemption; Shinjuku 15w vs Offload 16w (cap 5)".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                GridCurve::system(
                    "Shinjuku",
                    ShinjukuConfig {
                        workers: 15,
                        time_slice: None,
                        ..ShinjukuConfig::paper(15)
                    },
                ),
                GridCurve::system(
                    "Shinjuku-Offload",
                    OffloadConfig {
                        time_slice: None,
                        ..OffloadConfig::paper(16, 5)
                    },
                ),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{knee_throughput, peak_throughput};

    #[test]
    fn fig2_shape_offload_extends_further() {
        let f = fig2(Scale::Quick, None);
        let slo = SimDuration::from_micros(500);
        let shin = knee_throughput(&f.curves[0].points, slo);
        let off = knee_throughput(&f.curves[1].points, slo);
        assert!(
            off > shin,
            "offload (4w) should sustain more bimodal load than shinjuku (3w): {off:.0} vs {shin:.0}"
        );
    }

    #[test]
    fn fig3_shape_throughput_rises_then_plateaus() {
        let rows = fig3(Scale::Quick, None);
        // Achieved throughput by cap, for one worker count.
        let curve = |workers: usize| -> Vec<f64> {
            let rps: Vec<f64> = rows
                .iter()
                .filter(|r| r.workers == workers)
                .map(|r| r.achieved_rps)
                .collect();
            assert_eq!(rps.len(), 7, "{workers} workers: one row per cap");
            rps
        };
        let peak = |rps: &[f64]| rps.iter().copied().fold(0.0, f64::max);
        let w16 = curve(16);
        let w4 = curve(4);
        assert_eq!(rows[0].workers, 16, "16 workers come first");
        assert!(rows.iter().take(7).map(|r| r.cap).eq(1..=7), "cap order");

        // 4 workers: the queuing optimization must raise throughput by a
        // large factor before leveling out (the paper reports +250%; our
        // calibrated round trip gives roughly +150–200%).
        let first4 = w4[0];
        let peak4 = peak(&w4);
        assert!(
            peak4 > first4 * 1.5,
            "4 workers: cap must raise throughput a lot ({first4:.0} -> {peak4:.0})"
        );
        let last4 = w4[w4.len() - 1];
        let second_last4 = w4[w4.len() - 2];
        assert!(
            (last4 - second_last4).abs() / last4 < 0.10,
            "4 workers: should level out ({second_last4:.0} vs {last4:.0})"
        );

        // 16 workers: monotone non-decreasing (within noise) and reaching
        // the plateau at a *lower* cap than 4 workers — with 16 concurrent
        // requests the 5.1us round trip is already hidden, so the curve
        // starts near the ARM TX plateau. (The paper's +88% implies a much
        // larger effective round trip in the prototype; see EXPERIMENTS.md.)
        let plateau16 = peak(&w16);
        let plateau4 = peak(&w4);
        for pair in w16.windows(2) {
            assert!(
                pair[1] > pair[0] * 0.93,
                "16 workers: throughput must not collapse as cap grows"
            );
        }
        assert!(
            (plateau16 - plateau4).abs() / plateau4 < 0.15,
            "both worker counts hit the same ARM dispatcher plateau: {plateau16:.0} vs {plateau4:.0}"
        );
        let reach =
            |rps: &[f64], plateau: f64| rps.iter().position(|&r| r >= 0.95 * plateau).unwrap() + 1;
        assert!(
            reach(&w16, plateau16) <= reach(&w4, plateau4),
            "16 workers should plateau at a lower cap"
        );
    }

    #[test]
    fn fig4_shape_offload_wins_with_extra_worker() {
        let f = fig4(Scale::Quick);
        let slo = SimDuration::from_micros(400);
        let shin = knee_throughput(&f.curves[0].points, slo);
        let off = knee_throughput(&f.curves[1].points, slo);
        assert!(
            off > shin * 1.1,
            "4 workers should beat 3 on 5us requests: {off:.0} vs {shin:.0}"
        );
    }

    #[test]
    fn fig6_shape_shinjuku_greatly_outperforms() {
        let f = fig6(Scale::Quick);
        let shin_peak = peak_throughput(&f.curves[0].points);
        let off_peak = peak_throughput(&f.curves[1].points);
        assert!(
            shin_peak > off_peak * 1.8,
            "host dispatcher should dwarf the ARM dispatcher on 1us requests: {shin_peak:.0} vs {off_peak:.0}"
        );
    }
}
