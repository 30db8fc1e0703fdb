//! Preemption timer model.
//!
//! Shinjuku-Offload preempts a worker when a request exceeds its time slice
//! (§3.4.4). The paper measures two ways of arming the local APIC timer:
//!
//! * **Linux path** — `timer_create`/signal delivery: 610 cycles to set,
//!   4193 cycles to receive.
//! * **Dune path** — the Dune kernel module maps the local APIC's timer
//!   registers into guest physical address space so workers set the timer
//!   directly, and the interrupt arrives as a low-overhead posted
//!   interrupt: 40 cycles to set (−93%), 1272 to receive (−70%).
//!
//! This module models both cost profiles. The timer itself needs no state
//! here: a worker's run ends in one event, at whichever comes first of the
//! request finishing and its slice expiring, so a slice timer is never
//! left armed to be cancelled.

use sim_core::SimDuration;

use crate::core::CoreSpec;

/// How the timer is armed and its interrupt delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerMode {
    /// POSIX timer + signal (the expensive baseline, §3.4.4).
    LinuxSignal,
    /// Dune-mapped APIC registers + posted interrupt (the optimized path).
    DuneMapped,
}

impl TimerMode {
    /// Cycles to arm the timer (paper §3.4.4).
    pub fn set_cycles(self) -> u64 {
        match self {
            TimerMode::LinuxSignal => 610,
            TimerMode::DuneMapped => 40,
        }
    }

    /// Cycles to take the expiry interrupt (paper §3.4.4).
    pub fn deliver_cycles(self) -> u64 {
        match self {
            TimerMode::LinuxSignal => 4193,
            TimerMode::DuneMapped => 1272,
        }
    }

    /// Time to arm on a given core (raw cycles: these are measured counts,
    /// not host-baseline estimates, so no work factor applies).
    pub fn set_cost(self, spec: &CoreSpec) -> SimDuration {
        spec.raw_cycles(self.set_cycles())
    }

    /// Time to take the expiry interrupt on a given core.
    pub fn deliver_cost(self, spec: &CoreSpec) -> SimDuration {
        spec.raw_cycles(self.deliver_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSpec;

    #[test]
    fn paper_cycle_counts() {
        assert_eq!(TimerMode::LinuxSignal.set_cycles(), 610);
        assert_eq!(TimerMode::DuneMapped.set_cycles(), 40);
        assert_eq!(TimerMode::LinuxSignal.deliver_cycles(), 4193);
        assert_eq!(TimerMode::DuneMapped.deliver_cycles(), 1272);
    }

    #[test]
    fn paper_reduction_percentages() {
        // §3.4.4: set cost reduced 93%, deliver cost reduced 70%.
        let set_red = 1.0
            - TimerMode::DuneMapped.set_cycles() as f64
                / TimerMode::LinuxSignal.set_cycles() as f64;
        let del_red = 1.0
            - TimerMode::DuneMapped.deliver_cycles() as f64
                / TimerMode::LinuxSignal.deliver_cycles() as f64;
        assert!((set_red - 0.93).abs() < 0.005, "set reduction {set_red}");
        assert!(
            (del_red - 0.70).abs() < 0.005,
            "deliver reduction {del_red}"
        );
    }

    #[test]
    fn costs_scale_with_frequency() {
        let host = CoreSpec::host_x86();
        assert_eq!(TimerMode::DuneMapped.set_cost(&host).as_nanos(), 17); // 40/2.3
        assert_eq!(TimerMode::DuneMapped.deliver_cost(&host).as_nanos(), 553);
        assert_eq!(TimerMode::LinuxSignal.deliver_cost(&host).as_nanos(), 1823);
    }
}
