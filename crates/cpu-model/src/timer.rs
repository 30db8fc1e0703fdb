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
//! This module models both cost profiles and the one-shot timer lifecycle
//! with *generation counters*: re-arming invalidates any in-flight firing,
//! which is how a worker cancels the slice timer when a request finishes
//! early (the simulator's event heap does not support removal).

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

/// A one-shot preemption timer with generation-based cancellation.
///
/// Usage inside a model:
/// 1. `let gen = timer.arm()` and schedule a `TimerFired { core, gen }`
///    event at the deadline.
/// 2. When `TimerFired` arrives, `timer.accept(gen)` tells you whether the
///    firing is still live or was superseded by a later `arm`.
#[derive(Debug, Clone, Default)]
pub struct OneShotTimer {
    generation: u64,
    armed: bool,
}

impl OneShotTimer {
    /// Arm (or re-arm), returning the generation token that must accompany
    /// the firing event.
    pub fn arm(&mut self) -> u64 {
        self.generation += 1;
        self.armed = true;
        self.generation
    }

    /// Validate a firing: true exactly when `gen` is the live generation.
    /// A live firing also disarms the timer.
    pub fn accept(&mut self, gen: u64) -> bool {
        if self.armed && gen == self.generation {
            self.armed = false;
            true
        } else {
            false
        }
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

    #[test]
    fn one_shot_lifecycle() {
        let mut t = OneShotTimer::default();
        let g1 = t.arm();
        assert!(t.accept(g1), "live firing accepted");
        assert!(!t.accept(g1), "a firing is accepted at most once");
    }

    #[test]
    fn rearm_supersedes_old_generation() {
        let mut t = OneShotTimer::default();
        let g1 = t.arm();
        let g2 = t.arm();
        assert!(!t.accept(g1), "stale firing rejected");
        assert!(t.accept(g2));
    }
}
