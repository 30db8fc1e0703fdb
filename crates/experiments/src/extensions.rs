//! Extension experiments beyond the paper's measured figures, each
//! grounded in a specific claim of the text:
//!
//! * [`multi_dispatcher`] — §2.2(3): scaling Shinjuku past one dispatcher
//!   with RSS across dispatcher groups: throughput, imbalance, and the
//!   "8.33% of execution resources wasted" accounting.
//! * [`elastic_rss`] — §5.1(1): Elastic-RSS-style µs-scale core
//!   provisioning vs static RSS.
//! * [`slice_sweep`] — the 10 µs slice choice (§4.1): short-class tail vs
//!   slice length on the bimodal workload.
//! * [`policies`] — §5.1(4): programmable queue policies (FCFS vs
//!   shortest-remaining vs class-priority) on the same offloaded hardware.
//! * [`heavy_tail`] — §2.2(2): dispersion beyond bimodal (lognormal
//!   service times) across scheduling designs.
//! * [`worker_scaling`] — §2.2(3)'s scalability claim: saturated
//!   throughput vs worker count per dispatcher design, one row each.

use nicsched::PolicySpec;
use sim_core::SimDuration;
use systems::baseline::{Baseline, BaselineConfig, BaselineKind};
use systems::common::run;
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::{Shinjuku, ShinjukuConfig};
use systems::{ProbeConfig, ResilienceConfig, ServerSystem, SystemConfig};
use workload::{RunMetrics, ServiceDist, WorkloadSpec};

use crate::figures::Scale;
use crate::report::{self, col, Column, Curve, Figure, Kind, Row};
use crate::sweep::{linspace, par_map, run_grid, GridCurve};
use crate::{emit, emit_rows, outln};

/// Run every extension experiment and the feedback-gap isolation
/// experiment, printing each table and writing each CSV.
pub fn emit_all(scale: Scale) {
    let gap = crate::feedback_gap::run(scale);
    outln!("{}", report::table(crate::feedback_gap::TITLE, &gap));
    let rows = multi_dispatcher(scale);
    outln!("{}", report::table(MULTI_DISPATCHER_TITLE, &rows));
    let (fig, active) = elastic_rss(scale);
    emit(&fig);
    outln!("mean provisioned cores per load point: {active:?}\n");
    for fig in [
        slice_sweep(scale),
        policies(scale),
        heavy_tail(scale),
        dual_socket(scale),
        jit_pacing(scale),
    ] {
        emit(&fig);
    }
    let rows = worker_scaling(scale);
    emit_rows("ext_worker_scaling", WORKER_SCALING_TITLE, &rows);
}

/// The extension family's shared base spec: seed 17, and a slightly
/// shorter Full window (60 ms) than the paper figures — these suites run
/// many more curves.
fn spec(scale: Scale, offered: f64, dist: ServiceDist) -> WorkloadSpec {
    let mut s = scale.spec_seeded(offered, dist, 17);
    if scale == Scale::Full {
        s.measure = SimDuration::from_millis(60);
    }
    s
}

/// One row of the multi-dispatcher scaling table.
#[derive(Debug, Clone)]
pub struct MultiDispatchRow {
    /// Dispatcher groups.
    pub groups: usize,
    /// Workers per group.
    pub workers_per_group: usize,
    /// Saturated throughput (requests/second).
    pub achieved_rps: f64,
    /// Max/mean admitted requests across groups.
    pub imbalance: f64,
    /// Fraction of cores spent dispatching.
    pub overhead: f64,
}

/// Title of the multi-dispatcher table.
pub const MULTI_DISPATCHER_TITLE: &str =
    "multi_dispatcher — fixed 1us on 32 cores, offered 6.5M RPS (§2.2(3))";

impl Row for MultiDispatchRow {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("groups", Int(|r| r.groups as i64)),
            col("workers_per_group", Int(|r| r.workers_per_group as i64)),
            col("achieved_rps", Rate(|r| r.achieved_rps)),
            col("imbalance", Ratio(3, |r| r.imbalance)),
            col("overhead", Percent(|r| r.overhead)),
        ]
    }
}

/// §2.2(3): sweep dispatcher-group counts on a 32-core box under 1 µs
/// requests offered far beyond a single dispatcher's capacity.
pub fn multi_dispatcher(scale: Scale) -> Vec<MultiDispatchRow> {
    let dist = ServiceDist::Fixed(SimDuration::from_micros(1));
    // Just under the 10GbE frame-rate ceiling (~7.27M 64B-body requests/s),
    // so multi-group configurations stay distinguishable from the wire.
    let offered = 6_500_000.0;
    par_map(&[1usize, 2, 4, 8], |&groups| {
        let cfg = ShinjukuConfig {
            time_slice: None,
            ..ShinjukuConfig::split(32, groups)
        };
        let (m, imbalance) = run::<Shinjuku>(
            spec(scale, offered, dist),
            cfg,
            ProbeConfig::disabled(),
            ResilienceConfig::default(),
        );
        MultiDispatchRow {
            groups,
            workers_per_group: cfg.workers,
            achieved_rps: m.achieved_rps,
            imbalance,
            overhead: cfg.dispatch_overhead_fraction(),
        }
    })
}

/// §5.1(1): Elastic RSS vs static RSS over a load sweep; reports the mean
/// provisioned cores per point.
pub fn elastic_rss(scale: Scale) -> (Figure, Vec<f64>) {
    let dist = ServiceDist::Fixed(SimDuration::from_micros(5));
    let loads = linspace(
        100_000.0,
        1_300_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 7,
        },
    );
    let static_rss = par_map(&loads, |&rps| {
        BaselineConfig {
            workers: 8,
            kind: BaselineKind::Rss,
        }
        .run(spec(scale, rps, dist), ProbeConfig::disabled())
    });
    let (elastic, mean_active): (Vec<_>, Vec<_>) = par_map(&loads, |&rps| {
        run::<Baseline>(
            spec(scale, rps, dist),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
            ProbeConfig::disabled(),
            ResilienceConfig::default(),
        )
    })
    .into_iter()
    .unzip();
    (
        Figure {
            id: "ext_elastic_rss".into(),
            title: "fixed 5us, 8 cores: static RSS vs Elastic RSS (us-scale provisioning)".into(),
            curves: vec![
                Curve {
                    label: "RSS-static".into(),
                    points: static_rss,
                },
                Curve {
                    label: "Elastic-RSS".into(),
                    points: elastic,
                },
            ],
        },
        mean_active,
    )
}

/// §4.1's slice choice: short-class p99 on the bimodal workload at 350k
/// RPS as the preemption slice sweeps from aggressive to off, one
/// single-point curve per slice (`Offload slice=2us` … `Offload
/// slice=off`).
pub fn slice_sweep(scale: Scale) -> Figure {
    let slices = [Some(2), Some(5), Some(10), Some(20), Some(50), None];
    let curves = slices
        .iter()
        .map(|&us| {
            let label = match us {
                Some(us) => format!("Offload slice={us}us"),
                None => "Offload slice=off".to_string(),
            };
            let cfg = OffloadConfig {
                time_slice: us.map(SimDuration::from_micros),
                ..OffloadConfig::paper(4, 4)
            };
            GridCurve::system(label, cfg)
        })
        .collect();
    Figure {
        id: "ext_slice_sweep".into(),
        title: "bimodal at 350k RPS, Offload 4w: slice length vs tail".into(),
        curves: run_grid(
            &[350_000.0],
            spec(scale, 0.0, ServiceDist::paper_bimodal()),
            curves,
        ),
    }
}

/// §5.1(4): the same offloaded hardware under three queue policies.
pub fn policies(scale: Scale) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::paper_bimodal());
    let loads = linspace(
        100_000.0,
        550_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 10,
        },
    );
    let with = |label: &str, policy: PolicySpec| {
        GridCurve::system(
            label,
            OffloadConfig {
                policy,
                ..OffloadConfig::paper(4, 4)
            },
        )
    };
    Figure {
        id: "ext_policies".into(),
        title: "bimodal, Offload 4w (cap 4): FCFS vs shortest-remaining vs class-priority".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                with("FCFS", PolicySpec::FCFS),
                with("SRF", PolicySpec::Srf),
                with(
                    "ClassPrio",
                    PolicySpec::ClassPriority {
                        cutoff: SimDuration::from_micros(10),
                    },
                ),
            ],
        ),
    }
}

/// §2.2(2): a lognormal (sigma = 2) heavy-tail workload across designs.
pub fn heavy_tail(scale: Scale) -> Figure {
    let base = spec(
        scale,
        0.0,
        ServiceDist::Lognormal {
            mean: SimDuration::from_micros(10),
            sigma: 2.0,
        },
    );
    let loads = linspace(
        50_000.0,
        300_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 6,
        },
    );
    Figure {
        id: "ext_heavy_tail".into(),
        title: "lognormal(mean 10us, sigma 2) across designs, 4 host cores".into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                GridCurve::system(
                    "RSS",
                    BaselineConfig {
                        workers: 4,
                        kind: BaselineKind::Rss,
                    },
                ),
                GridCurve::system("Shinjuku", ShinjukuConfig::paper(3)),
                GridCurve::system("Shinjuku-Offload", OffloadConfig::paper(4, 4)),
            ],
        ),
    }
}

/// §1's multi-socket warning quantified: the Figure-2-style bimodal
/// workload on 8 workers — single socket, dual socket with load-blind
/// selection, and dual socket with the socket-aware selector.
pub fn dual_socket(scale: Scale) -> Figure {
    let mut base = spec(scale, 0.0, ServiceDist::Fixed(SimDuration::from_micros(2)));
    base.body_len = 1024; // big packets make the cache path visible
    let loads = linspace(
        100_000.0,
        1_200_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 8,
        },
    );
    let with = |label: &str, dual: bool, aware: bool| {
        GridCurve::system(
            label,
            OffloadConfig {
                dual_socket: dual,
                socket_aware: aware,
                time_slice: None,
                ..OffloadConfig::paper(8, 2)
            },
        )
    };
    Figure {
        id: "ext_dual_socket".into(),
        title: "fixed 2us, 1KiB bodies, Offload 8w: single socket vs dual (blind) vs dual (socket-aware)"
            .into(),
        curves: run_grid(
            &loads,
            base,
            vec![
                with("Single-socket", false, false),
                with("Dual-blind", true, false),
                with("Dual-aware", true, true),
            ],
        ),
    }
}

/// One point of the worker-scaling sweep: one design saturated at one
/// worker count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Design label.
    pub curve: &'static str,
    /// Workers the design ran with.
    pub workers: usize,
    /// The run, at the sweep's saturating offered load.
    pub metrics: RunMetrics,
}

/// Title of the worker-scaling table.
pub const WORKER_SCALING_TITLE: &str =
    "ext_worker_scaling — fixed 1us offered at 7M RPS: saturated throughput vs workers, host vs ARM dispatcher vs hw queue";

impl Row for ScalingRow {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("curve", Text(|r| r.curve.into())),
            col("workers", Int(|r| r.workers as i64)),
            col("achieved_rps", Rate(|r| r.metrics.achieved_rps)),
            col(
                "per_worker_rps",
                Rate(|r| r.metrics.achieved_rps / r.workers as f64),
            ),
            col("p99", Duration(|r| r.metrics.p99)),
            col(
                "worker_utilization",
                Ratio(4, |r| r.metrics.worker_utilization),
            ),
        ]
    }
}

/// §2.2(3)'s scalability claim: saturated throughput vs worker count on
/// 1 µs requests offered just under the 10GbE frame rate. The host
/// Shinjuku dispatcher flattens near its per-request budget ("the
/// dispatcher can only scale to 5M requests, i.e., about 11 worker
/// cores"), the offloaded ARM dispatcher flattens far earlier, and the
/// RPCValet-style hardware queue tracks the workers until the wire binds.
/// Rows come curve by curve, in worker order.
pub fn worker_scaling(scale: Scale) -> Vec<ScalingRow> {
    let base = spec(
        scale,
        7_000_000.0,
        ServiceDist::Fixed(SimDuration::from_micros(1)),
    );
    let workers: &[usize] = match scale {
        Scale::Quick => &[2, 6, 10, 16],
        Scale::Full => &[2, 4, 6, 8, 10, 12, 16, 20, 24],
    };
    let shinjuku = |w| {
        SystemConfig::Shinjuku(ShinjukuConfig {
            time_slice: None,
            ..ShinjukuConfig::paper(w)
        })
    };
    let offload = |w| {
        SystemConfig::Offload(OffloadConfig {
            time_slice: None,
            ..OffloadConfig::paper(w, 5)
        })
    };
    let rpcvalet = |w| SystemConfig::RpcValet(RpcValetConfig { workers: w });
    let cells: Vec<(&str, usize, SystemConfig)> = workers
        .iter()
        .map(|&w| ("Shinjuku", w, shinjuku(w)))
        .chain(workers.iter().map(|&w| ("Shinjuku-Offload", w, offload(w))))
        .chain(workers.iter().map(|&w| ("RPCValet", w, rpcvalet(w))))
        .collect();
    par_map(&cells, |&(curve, workers, sys)| ScalingRow {
        curve,
        workers,
        metrics: sys.run(base, ProbeConfig::disabled()),
    })
}

/// §5.2's congestion-control co-design: open-loop vs JIT-paced clients on
/// the bimodal workload, swept across (and past) capacity.
pub fn jit_pacing(scale: Scale) -> Figure {
    let base = spec(scale, 0.0, ServiceDist::paper_bimodal());
    let loads = linspace(
        200_000.0,
        900_000.0,
        match scale {
            Scale::Quick => 4,
            Scale::Full => 8,
        },
    );
    let with = |label: &str, jit: Option<u64>| {
        GridCurve::system(
            label,
            OffloadConfig {
                jit_target_depth: jit,
                ..OffloadConfig::paper(4, 4)
            },
        )
    };
    Figure {
        id: "ext_jit_pacing".into(),
        title: "bimodal, Offload 4w: open loop vs NIC-feedback JIT pacing (setpoint 16) (§5.2)"
            .into(),
        curves: run_grid(
            &loads,
            base,
            vec![with("Open-loop", None), with("JIT-paced", Some(16))],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_dispatcher_scales_and_accounts() {
        let rows = multi_dispatcher(Scale::Quick);
        assert_eq!(rows.len(), 4);
        // One dispatcher is capped near 5M; more groups push beyond.
        assert!(
            rows[0].achieved_rps < 5_500_000.0,
            "1 group: {:.0}",
            rows[0].achieved_rps
        );
        // 4 groups serve the full 6.5M offered; one group is pinned at
        // its dispatcher's ~4.3M.
        assert!(
            rows[2].achieved_rps > rows[0].achieved_rps * 1.3,
            "4 groups {:.0} vs 1 group {:.0}",
            rows[2].achieved_rps,
            rows[0].achieved_rps
        );
        assert!(!rows[2].achieved_rps.is_nan());
        // Overhead grows with dispatcher count on a fixed-size box.
        assert!(rows[3].overhead > rows[0].overhead);
    }

    #[test]
    fn elastic_rss_tracks_load() {
        let (fig, active) = elastic_rss(Scale::Quick);
        assert_eq!(fig.curves.len(), 2);
        assert!(
            active.first().unwrap() < active.last().unwrap(),
            "provisioning must grow with load: {active:?}"
        );
    }

    #[test]
    fn slice_sweep_shows_the_tradeoff() {
        let f = slice_sweep(Scale::Quick);
        assert_eq!(f.curves.len(), 6);
        assert_eq!(f.curves[2].label, "Offload slice=10us");
        let pts: Vec<&RunMetrics> = f.curves.iter().map(|c| &c.points[0]).collect();
        for m in &pts {
            assert_eq!(m.offered_rps, 350_000.0, "every slice runs at 350k RPS");
            let g = m.goodput_ratio();
            assert!((0.0..=1.1).contains(&g), "goodput {g} is not a fraction");
        }
        // No preemption (last curve) must have the worst short-class tail.
        let off = pts.last().unwrap().p99_short;
        let ten_us = pts[2].p99_short;
        assert!(
            off > ten_us,
            "slice off ({off}) should beat 10us ({ten_us}) for worst short-class tail"
        );
    }

    #[test]
    fn srf_policy_protects_shorts() {
        let f = policies(Scale::Quick);
        let fcfs = &f.curves[0].points;
        let srf = &f.curves[1].points;
        let last = fcfs.len() - 1;
        assert!(
            srf[last].p99_short <= fcfs[last].p99_short,
            "SRF should not worsen the short-class tail: {} vs {}",
            srf[last].p99_short,
            fcfs[last].p99_short
        );
    }

    #[test]
    fn worker_scaling_shapes() {
        let rows = worker_scaling(Scale::Quick);
        for r in &rows {
            assert_eq!(r.metrics.offered_rps, 7_000_000.0, "{}", r.curve);
            let g = r.metrics.goodput_ratio();
            assert!((0.0..=1.1).contains(&g), "goodput {g} is not a fraction");
        }
        let curve = |label: &str| -> Vec<&RunMetrics> {
            rows.iter()
                .filter(|r| r.curve == label)
                .map(|r| &r.metrics)
                .collect()
        };
        let (shin, off, valet) = (
            curve("Shinjuku"),
            curve("Shinjuku-Offload"),
            curve("RPCValet"),
        );
        assert_eq!(
            rows.iter().map(|r| r.workers).take(4).collect::<Vec<_>>(),
            [2, 6, 10, 16]
        );
        // The offload flattens at the ARM TX cap regardless of workers.
        let last = off.len() - 1;
        assert!(
            (off[last].achieved_rps - off[1].achieved_rps).abs() / off[1].achieved_rps < 0.1,
            "offload should be flat past a few workers"
        );
        // Shinjuku scales further than the offload but flattens below the
        // hardware queue.
        assert!(shin[last].achieved_rps > off[last].achieved_rps * 1.5);
        assert!(valet[last].achieved_rps > shin[last].achieved_rps);
    }

    #[test]
    fn jit_tames_overload() {
        let f = jit_pacing(Scale::Quick);
        let open_last = f.curves[0].points.last().unwrap();
        let jit_last = f.curves[1].points.last().unwrap();
        assert!(
            jit_last.p99 < open_last.p99,
            "JIT must bound the overload tail: {} vs {}",
            jit_last.p99,
            open_last.p99
        );
    }

    #[test]
    fn dual_socket_ordering() {
        let f = dual_socket(Scale::Quick);
        // At the lightest load: single <= aware <= blind on median latency.
        let single = f.curves[0].points[0].p50;
        let blind = f.curves[1].points[0].p50;
        let aware = f.curves[2].points[0].p50;
        assert!(single <= aware, "single {single} vs aware {aware}");
        assert!(aware <= blind, "aware {aware} vs blind {blind}");
    }

    #[test]
    fn heavy_tail_story_holds() {
        let f = heavy_tail(Scale::Quick);
        let mid = f.curves[0].points.len() - 1;
        let rss = f.curves[0].points[mid].p99;
        let off = f.curves[2].points[mid].p99;
        assert!(
            rss > off,
            "run-to-completion must trail centralized preemption on heavy tails: {rss} vs {off}"
        );
    }
}
