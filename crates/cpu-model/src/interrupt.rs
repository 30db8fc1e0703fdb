//! Interrupt delivery paths.
//!
//! §5.1(3) of the paper contrasts ways a NIC-resident scheduler can preempt
//! a host core: sending a packet that triggers an interrupt costs the full
//! 2.56 µs ARM→host path, while the prototype sidesteps the NIC entirely by
//! arming a local APIC timer on the worker (see [`crate::timer`]). The
//! ideal SmartNIC would instead "directly send interrupts to the host
//! server CPU". This module models the delivery *path* — latency from the
//! decision to interrupt until the handler starts, plus the receive cost on
//! the target core.

use sim_core::SimDuration;

use crate::core::CoreSpec;
use crate::timer::TimerMode;

/// How a preemption interrupt reaches a worker core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterruptPath {
    /// A local APIC timer armed on the worker itself (the prototype's
    /// mechanism, §3.4.4). Zero transport latency; delivery cost depends on
    /// the timer mode.
    LocalTimer(TimerMode),
    /// The NIC constructs a packet that raises an interrupt at the host —
    /// one full NIC→host traversal before the handler runs (§3.4.4 rules
    /// this out as "not efficient" at 2.56 µs).
    PacketFromNic {
        /// One-way NIC→host latency.
        one_way: SimDuration,
    },
    /// A future NIC with a direct interrupt wire / MSI-X doorbell into the
    /// host APIC (§5.1(3)): a few hundred nanoseconds of transport.
    DirectFromNic {
        /// Doorbell-to-APIC latency.
        latency: SimDuration,
    },
}

impl InterruptPath {
    /// Transport latency from "decision to preempt" to "interrupt pending
    /// at the target core".
    pub fn transport_latency(&self) -> SimDuration {
        match *self {
            InterruptPath::LocalTimer(_) => SimDuration::ZERO,
            InterruptPath::PacketFromNic { one_way } => one_way,
            InterruptPath::DirectFromNic { latency } => latency,
        }
    }

    /// Cycles the target core spends taking the interrupt.
    pub fn receive_cost(&self, spec: &CoreSpec) -> SimDuration {
        match *self {
            InterruptPath::LocalTimer(mode) => mode.deliver_cost(spec),
            // Packet- and doorbell-initiated preemptions arrive as posted
            // interrupts on the Dune-style fast path.
            InterruptPath::PacketFromNic { .. } | InterruptPath::DirectFromNic { .. } => {
                TimerMode::DuneMapped.deliver_cost(spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decision-to-handler latency of `path` on `spec`.
    fn total_latency(path: InterruptPath, spec: &CoreSpec) -> SimDuration {
        path.transport_latency() + path.receive_cost(spec)
    }

    #[test]
    fn local_timer_has_no_transport() {
        let p = InterruptPath::LocalTimer(TimerMode::DuneMapped);
        assert_eq!(p.transport_latency(), SimDuration::ZERO);
        let host = CoreSpec::host_x86();
        assert_eq!(p.receive_cost(&host).as_nanos(), 553);
    }

    #[test]
    fn packet_interrupt_pays_the_nic_path() {
        let p = InterruptPath::PacketFromNic {
            one_way: SimDuration::from_micros_f64(2.56),
        };
        assert_eq!(p.transport_latency().as_nanos(), 2_560);
        let host = CoreSpec::host_x86();
        assert!(
            total_latency(p, &host) > SimDuration::from_micros(3),
            "2.56us + receive"
        );
    }

    #[test]
    fn direct_interrupt_is_much_cheaper_than_packet() {
        let host = CoreSpec::host_x86();
        let packet = InterruptPath::PacketFromNic {
            one_way: SimDuration::from_micros_f64(2.56),
        };
        let direct = InterruptPath::DirectFromNic {
            latency: SimDuration::from_nanos(300),
        };
        assert!(total_latency(direct, &host) * 3 < total_latency(packet, &host));
    }

    #[test]
    fn linux_timer_costs_more_to_receive() {
        let host = CoreSpec::host_x86();
        let linux = InterruptPath::LocalTimer(TimerMode::LinuxSignal);
        let dune = InterruptPath::LocalTimer(TimerMode::DuneMapped);
        assert!(linux.receive_cost(&host) > dune.receive_cost(&host));
    }
}
