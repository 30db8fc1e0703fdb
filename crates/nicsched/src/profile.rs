//! NIC profiles: where the dispatcher runs and what it costs to talk.
//!
//! §5.1 enumerates the hardware axes that decide whether NIC-side
//! scheduling wins: scheduling compute (ARM software vs line-rate
//! ASIC/FPGA), the dispatcher↔worker communication path (packets over the
//! NIC vs CXL vs coherent shared memory), and the preemption path. A
//! [`NicProfile`] bundles one point in that space; the offload system is
//! generic over it, which is how the ablation experiments sweep the axes.

use cpu_model::{CoreSpec, InterruptPath, TimerMode};
use sim_core::SimDuration;

use crate::params;

/// How fast the NIC-resident scheduler retires its pipeline stages.
#[derive(Clone, Copy, Debug)]
pub enum SchedCompute {
    /// The Stingray prototype: DPDK software on ARM A72 cores, split into
    /// networker / queue-manager / TX / RX stages (§3.4.1).
    ArmCores(CoreSpec),
    /// A line-rate ASIC/FPGA scheduler (§5.1(1)): every stage costs a
    /// fixed, tiny latency and never becomes the bottleneck.
    Asic {
        /// Per-operation latency of the hardware pipeline.
        per_op: SimDuration,
    },
}

impl SchedCompute {
    /// Time to retire a stage whose cost is `host_cycles` on the host
    /// baseline.
    pub fn stage_cost(&self, host_cycles: u64) -> SimDuration {
        match *self {
            SchedCompute::ArmCores(spec) => spec.cycles(host_cycles),
            SchedCompute::Asic { per_op } => per_op,
        }
    }
}

/// One complete hardware design point for the NIC-side scheduler.
#[derive(Clone, Copy, Debug)]
pub struct NicProfile {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Scheduling compute model.
    pub compute: SchedCompute,
    /// One-way dispatcher → worker *transport* latency, charged after the
    /// sender's packet-construction compute. For the Stingray, TX build
    /// (≈680 ns) + this transport = the measured 2.56 µs (§3.3, §5.1).
    pub to_worker: SimDuration,
    /// One-way worker → dispatcher transport latency (after the worker's
    /// packet-construction cost).
    pub from_worker: SimDuration,
    /// Latency of one hop between dispatcher pipeline stages (shared
    /// memory between ARM cores; zero inside an ASIC).
    pub stage_hop: SimDuration,
    /// How preemption interrupts reach workers.
    pub interrupt: InterruptPath,
}

impl NicProfile {
    /// The Broadcom Stingray PS225 as measured in the paper: ARM compute,
    /// 2.56 µs packet path each way (§3.3), worker-local Dune-mapped APIC
    /// timers for preemption (§3.4.4).
    pub fn stingray() -> NicProfile {
        NicProfile {
            name: "stingray",
            compute: SchedCompute::ArmCores(CoreSpec::nic_arm()),
            to_worker: params::ARM_TO_HOST_TRANSPORT,
            from_worker: params::HOST_TO_ARM_TRANSPORT,
            stage_hop: params::ARM_QUEUE_HOP,
            interrupt: InterruptPath::LocalTimer(TimerMode::DuneMapped),
        }
    }

    /// Stingray compute with a CXL-class coherent link to the host
    /// (§5.1(2)): same ARM dispatcher, ~400 ns one-way instead of 2.56 µs.
    pub fn stingray_cxl() -> NicProfile {
        NicProfile {
            name: "stingray+cxl",
            to_worker: params::CXL_ONE_WAY,
            from_worker: params::CXL_ONE_WAY,
            ..NicProfile::stingray()
        }
    }

    /// The paper's ideal SmartNIC (§3.1, §6): line-rate ASIC scheduling,
    /// coherent shared-memory feedback, direct interrupts to host cores.
    pub fn ideal() -> NicProfile {
        NicProfile {
            name: "ideal",
            compute: SchedCompute::Asic {
                per_op: params::ASIC_SCHED_PER_REQ,
            },
            to_worker: params::COHERENT_ONE_WAY,
            from_worker: params::COHERENT_ONE_WAY,
            stage_hop: SimDuration::ZERO,
            interrupt: InterruptPath::DirectFromNic {
                latency: params::COHERENT_ONE_WAY,
            },
        }
    }

    /// A Stingray forced to preempt by sending packets instead of local
    /// timers — the design §3.4.4 rejects ("given the communication
    /// latency of 2.56 µs, this would not be efficient"). Used by the
    /// preemption-path ablation.
    pub fn stingray_packet_preemption() -> NicProfile {
        NicProfile {
            name: "stingray-pkt-preempt",
            interrupt: InterruptPath::PacketFromNic {
                one_way: params::ARM_HOST_ONE_WAY,
            },
            ..NicProfile::stingray()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stingray_matches_paper_numbers() {
        let p = NicProfile::stingray();
        // Build + transport reproduces the measured 2.56 µs one-way (§3.3):
        let tx_build = p.compute.stage_cost(params::ARM_TX_BUILD_CYCLES);
        assert_eq!(
            (tx_build + p.to_worker).as_nanos(),
            params::ARM_HOST_ONE_WAY.as_nanos(),
            "ARM→host: construct + traverse = 2.56us"
        );
        assert_eq!(
            (params::WORKER_TX_COST + p.from_worker).as_nanos(),
            params::ARM_HOST_ONE_WAY.as_nanos(),
            "host→ARM: construct + traverse = 2.56us"
        );
        assert!(matches!(p.compute, SchedCompute::ArmCores(_)));
        assert!(matches!(
            p.interrupt,
            InterruptPath::LocalTimer(TimerMode::DuneMapped)
        ));
    }

    #[test]
    fn ideal_dominates_stingray_on_every_axis() {
        let s = NicProfile::stingray();
        let i = NicProfile::ideal();
        assert!(i.to_worker < s.to_worker);
        assert!(i.from_worker < s.from_worker);
        assert!(i.stage_hop < s.stage_hop);
        assert!(
            i.compute.stage_cost(params::ARM_TX_BUILD_CYCLES)
                < s.compute.stage_cost(params::ARM_TX_BUILD_CYCLES)
        );
    }

    #[test]
    fn asic_cost_is_flat() {
        let asic = SchedCompute::Asic {
            per_op: SimDuration::from_nanos(10),
        };
        assert_eq!(asic.stage_cost(100), asic.stage_cost(100_000));
    }

    #[test]
    fn arm_cost_scales_with_cycles() {
        let arm = SchedCompute::ArmCores(CoreSpec::nic_arm());
        assert!(arm.stage_cost(1000) > arm.stage_cost(100));
    }

    #[test]
    fn cxl_variant_only_changes_transport() {
        let s = NicProfile::stingray();
        let c = NicProfile::stingray_cxl();
        assert!(c.to_worker < s.to_worker);
        assert_eq!(
            c.compute.stage_cost(params::ARM_TX_BUILD_CYCLES),
            s.compute.stage_cost(params::ARM_TX_BUILD_CYCLES)
        );
    }
}
