//! The paper's inline measurements, reproduced as a table:
//!
//! * §3.4.4 — timer set cost 610 → 40 cycles (−93%), timer interrupt
//!   delivery 4193 → 1272 cycles (−70%).
//! * §3.3 — ARM ↔ host one-way communication 2.56 µs.
//! * §2.2 — Shinjuku's inter-thread communication adds ≈ 2 µs of tail
//!   latency for requests with minimal application work.
//! * §1 — a host dispatcher core scales to ≈ 5 M requests/second.

use cpu_model::{ContextCosts, CoreSpec, TimerMode, CROSS_SOCKET_PENALTY};
use nic_model::{packet_lines, Ddio, Placement};
use nicsched::{params, NicProfile, SchedCompute};
use sim_core::SimDuration;
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::shinjuku::ShinjukuConfig;
use systems::{ProbeConfig, ServerSystem};
use workload::{ServiceDist, WorkloadSpec};

use crate::report::{col, Column, Kind, Row};

/// One row of the microbenchmark table.
#[derive(Debug, Clone)]
pub struct MicrobenchRow {
    /// What is being measured.
    pub name: String,
    /// The paper's reported value.
    pub paper: String,
    /// What this reproduction measures/encodes.
    pub measured: String,
}

/// Title of the microbenchmark table.
pub const TITLE: &str = "microbench — the paper's inline numbers";

impl Row for MicrobenchRow {
    fn columns() -> Vec<Column<Self>> {
        vec![
            col("microbenchmark", Kind::Text(|r| r.name.clone())),
            col("paper", Kind::Text(|r| r.paper.clone())),
            col("measured", Kind::Text(|r| r.measured.clone())),
        ]
    }
}

/// Produce every microbenchmark row.
pub fn run() -> Vec<MicrobenchRow> {
    let mut rows = Vec::new();
    let host = CoreSpec::host_x86();

    // Timer costs are encoded from the paper; report them with the
    // derived wall-clock numbers at 2.3 GHz.
    rows.push(MicrobenchRow {
        name: "timer set, Linux signal path".into(),
        paper: "610 cycles".into(),
        measured: format!(
            "{} cycles = {}",
            TimerMode::LinuxSignal.set_cycles(),
            TimerMode::LinuxSignal.set_cost(&host)
        ),
    });
    rows.push(MicrobenchRow {
        name: "timer set, Dune-mapped APIC".into(),
        paper: "40 cycles (-93%)".into(),
        measured: format!(
            "{} cycles = {} ({:.0}% reduction)",
            TimerMode::DuneMapped.set_cycles(),
            TimerMode::DuneMapped.set_cost(&host),
            100.0
                * (1.0
                    - TimerMode::DuneMapped.set_cycles() as f64
                        / TimerMode::LinuxSignal.set_cycles() as f64)
        ),
    });
    rows.push(MicrobenchRow {
        name: "timer interrupt delivery, Linux".into(),
        paper: "4193 cycles".into(),
        measured: format!(
            "{} cycles = {}",
            TimerMode::LinuxSignal.deliver_cycles(),
            TimerMode::LinuxSignal.deliver_cost(&host)
        ),
    });
    rows.push(MicrobenchRow {
        name: "timer interrupt delivery, posted (Dune)".into(),
        paper: "1272 cycles (-70%)".into(),
        measured: format!(
            "{} cycles = {} ({:.0}% reduction)",
            TimerMode::DuneMapped.deliver_cycles(),
            TimerMode::DuneMapped.deliver_cost(&host),
            100.0
                * (1.0
                    - TimerMode::DuneMapped.deliver_cycles() as f64
                        / TimerMode::LinuxSignal.deliver_cycles() as f64)
        ),
    });

    // ARM <-> host one-way: TX-stage build + transport on the Stingray
    // profile must reproduce 2.56 us.
    let p = NicProfile::stingray();
    let tx_build = p.compute.stage_cost(params::ARM_TX_BUILD_CYCLES);
    rows.push(MicrobenchRow {
        name: "ARM CPU -> host CPU one-way (construct + traverse)".into(),
        paper: "2.56 us".into(),
        measured: format!("{}", tx_build + p.to_worker),
    });
    rows.push(MicrobenchRow {
        name: "host CPU -> ARM CPU one-way (construct + traverse)".into(),
        paper: "2.56 us".into(),
        measured: format!("{}", params::WORKER_TX_COST + p.from_worker),
    });
    if let SchedCompute::ArmCores(arm) = p.compute {
        rows.push(MicrobenchRow {
            name: "offload dispatcher bottleneck stage (ARM TX build)".into(),
            paper: "(implied: offload saturates ~1.4-1.5M on 1us requests)".into(),
            measured: format!(
                "{} per packet = {:.2}M pkts/s",
                arm.cycles(params::ARM_TX_BUILD_CYCLES),
                1.0 / arm.cycles(params::ARM_TX_BUILD_CYCLES).as_secs_f64() / 1e6
            ),
        });
    }

    // Model-internal cost table (fitted constants, reported for
    // completeness; see DESIGN.md §4 for provenance).
    let ctx = ContextCosts::default();
    rows.push(MicrobenchRow {
        name: "context spawn / save / restore".into(),
        paper: "(not reported; Shinjuku-class user-level contexts)".into(),
        measured: format!(
            "{} / {} / {} on the host",
            ctx.spawn(&host),
            ctx.save(&host),
            ctx.restore(&host)
        ),
    });
    let ddio = Ddio::classic(4096);
    let lines = packet_lines(148);
    rows.push(MicrobenchRow {
        name: "first touch of a 148B packet (DRAM / LLC / L1)".into(),
        paper: "(§5.2: DDIO to LLC; L1 proposal)".into(),
        measured: format!(
            "{} / {} / {}",
            ddio.first_touch(Placement::Dram, lines),
            ddio.first_touch(Placement::Llc, lines),
            ddio.first_touch(Placement::L1, lines)
        ),
    });
    rows.push(MicrobenchRow {
        name: "cross-socket line penalty / work-steal cost".into(),
        paper: "(§1 multi-socket warning; §2.2(4) stealing overhead)".into(),
        measured: format!(
            "{CROSS_SOCKET_PENALTY} per line / {} per steal",
            params::WORK_STEAL_COST
        ),
    });

    // Inter-thread communication overhead: p99 of a near-zero-work request
    // through Shinjuku (networker + dispatcher + worker threads) vs
    // run-to-completion RSS on one core, both at trivial load.
    let tiny = |seed| WorkloadSpec {
        offered_rps: 5_000.0,
        dist: ServiceDist::Fixed(SimDuration::from_nanos(100)),
        body_len: 64,
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(30),
        seed,
    };
    let shin = ShinjukuConfig {
        workers: 2,
        time_slice: None,
        ..ShinjukuConfig::paper(2)
    }
    .run(tiny(3), ProbeConfig::disabled());
    let rtc = BaselineConfig {
        workers: 2,
        kind: BaselineKind::Rss,
    }
    .run(tiny(3), ProbeConfig::disabled());
    let delta = shin.p99.saturating_sub(rtc.p99);
    rows.push(MicrobenchRow {
        name: "inter-thread communication added tail (min-work requests)".into(),
        paper: "~2 us (§2.2)".into(),
        measured: format!(
            "shinjuku p99 {} - run-to-completion p99 {} = {delta}",
            shin.p99, rtc.p99
        ),
    });

    // Host dispatcher capacity: overload 15 workers with 1us requests and
    // watch the achieved throughput pin at the dispatcher, not the workers.
    let heavy = WorkloadSpec {
        offered_rps: 8_000_000.0,
        dist: ServiceDist::Fixed(SimDuration::from_micros(1)),
        body_len: 64,
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(25),
        seed: 5,
    };
    let m = ShinjukuConfig {
        workers: 15,
        time_slice: None,
        ..ShinjukuConfig::paper(15)
    }
    .run(heavy, ProbeConfig::disabled());
    rows.push(MicrobenchRow {
        name: "host dispatcher capacity (15 workers, 1us requests)".into(),
        paper: "~5M requests/second (§1)".into(),
        measured: format!("{:.2}M req/s achieved", m.achieved_rps / 1e6),
    });

    // §1's bandwidth framing of the same cap: "2.5 Gbps and 41 Gbps of
    // Ethernet traffic if we assume 64 B and 1 KiB requests".
    let gbps = |rps: f64, body: f64| rps * body * 8.0 / 1e9;
    rows.push(MicrobenchRow {
        name: "dispatcher cap as Ethernet bandwidth (64B / 1KiB requests)".into(),
        paper: "2.5 Gbps / 41 Gbps (§1)".into(),
        measured: format!(
            "{:.1} Gbps / {:.1} Gbps at the measured {:.2}M req/s",
            gbps(m.achieved_rps, 64.0),
            gbps(m.achieved_rps, 1024.0),
            m.achieved_rps / 1e6
        ),
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_present() {
        let rows = run();
        assert_eq!(rows.len(), 13);
        let t = crate::report::table(TITLE, &rows);
        assert!(t.contains("2.56"));
        assert!(t.contains("Dune"));
    }

    #[test]
    fn comm_overhead_is_on_the_order_of_2us() {
        let rows = run();
        let row = rows
            .iter()
            .find(|r| r.name.contains("inter-thread"))
            .unwrap();
        // Parse back the delta from the formatted string is brittle;
        // re-measure directly instead.
        let tiny = |seed| WorkloadSpec {
            offered_rps: 5_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_nanos(100)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(30),
            seed,
        };
        let shin = ShinjukuConfig {
            workers: 2,
            time_slice: None,
            ..ShinjukuConfig::paper(2)
        }
        .run(tiny(3), ProbeConfig::disabled());
        let rtc = BaselineConfig {
            workers: 2,
            kind: BaselineKind::Rss,
        }
        .run(tiny(3), ProbeConfig::disabled());
        let delta = shin.p99.saturating_sub(rtc.p99);
        assert!(
            delta >= SimDuration::from_nanos(800) && delta <= SimDuration::from_micros(4),
            "added tail {delta} should be ~2us (row: {})",
            row.measured
        );
    }

    #[test]
    fn dispatcher_capacity_near_5m() {
        let rows = run();
        let row = rows
            .iter()
            .find(|r| r.name.contains("dispatcher capacity"))
            .unwrap();
        assert!(row.measured.contains("M req/s"));
    }

    #[test]
    fn bandwidth_framing_matches_section_one_arithmetic() {
        // The paper's 2.5/41 Gbps figures assume exactly 5M req/s; our
        // measured cap is ~86% of that, so the bandwidths scale likewise.
        let rows = run();
        let row = rows
            .iter()
            .find(|r| r.name.contains("Ethernet bandwidth"))
            .unwrap();
        assert!(row.measured.contains("Gbps"), "{}", row.measured);
    }
}
