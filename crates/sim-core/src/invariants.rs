//! Runtime invariant checking: the engine-resident half of the
//! correctness tooling (the static half is the `simlint` crate).
//!
//! Every claim this reproduction makes rests on runs being bit-for-bit
//! deterministic and physically sensible: the virtual clock never goes
//! backwards, simultaneous events fire in FIFO insertion order, rings
//! never exceed their descriptor count, and the request ledger conserves
//! every launched attempt. The type system cannot prove those properties,
//! and the double-run CI diff only detects *nondeterminism*, not a
//! deterministic-but-wrong model. The [`InvariantChecker`] closes that
//! gap: when enabled it observes every event the engine pops, lets the
//! model audit its own state after each event
//! ([`Model::check_invariants`](crate::Model::check_invariants)), and
//! accumulates [`Violation`]s instead of panicking mid-run, so a failing
//! run still produces a full report of everything that went wrong.
//!
//! # Design rules
//!
//! * **Observation only.** The checker never mutates model state, never
//!   draws randomness, and never schedules events, so an invcheck-enabled
//!   run is bit-identical to a plain run (the resilience smoke job in CI
//!   diffs the two JSON outputs to prove it).
//! * **Collect, then fail.** Violations accumulate in a `Vec`;
//!   [`InvariantChecker::assert_clean`] panics with the whole report at
//!   the end of the run. Tests can instead inspect
//!   [`InvariantChecker::violations`] directly.
//! * **Disabled is free-ish.** A disabled checker short-circuits on one
//!   boolean; assemblies install one only when
//!   `ResilienceConfig::invariants` asks for it.

use std::fmt;

use crate::time::SimTime;

/// How much runtime invariant checking a run should pay for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvariantConfig {
    /// Master switch. When `false` no checks run and no state is kept.
    pub enabled: bool,
}

impl InvariantConfig {
    /// No invariant checking — the default for metric sweeps.
    pub const fn disabled() -> InvariantConfig {
        InvariantConfig { enabled: false }
    }

    /// Full invariant checking: engine causality/FIFO checks, per-event
    /// model self-audits, and end-of-run conservation checks.
    pub const fn enabled() -> InvariantConfig {
        InvariantConfig { enabled: true }
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Virtual time at which the violation was observed.
    pub at: SimTime,
    /// Stable rule name (e.g. `"causality"`, `"fifo-order"`,
    /// `"ring-bound"`, `"ledger-conservation"`).
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.rule, self.detail)
    }
}

/// The engine-resident invariant checker.
///
/// Lives inside the [`Engine`](crate::Engine) next to the probe and the
/// fault schedule; install one with
/// [`Engine::set_invariants`](crate::Engine::set_invariants).
#[derive(Debug, Default)]
pub struct InvariantChecker {
    cfg: InvariantConfig,
    violations: Vec<Violation>,
    /// Total individual checks evaluated (so tests can assert the checker
    /// actually ran, not just stayed silent).
    checks: u64,
    /// (time, seq) of the most recently popped event, for the clock
    /// monotonicity and FIFO tie-break checks.
    last_popped: Option<(SimTime, u64)>,
}

impl InvariantChecker {
    /// A checker with the given configuration.
    pub fn new(cfg: InvariantConfig) -> InvariantChecker {
        InvariantChecker {
            cfg,
            ..InvariantChecker::default()
        }
    }

    /// Whether any checking happens at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Violations observed so far, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total individual checks evaluated so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Record a violation of `rule` observed at `at`. Public so layers
    /// above sim-core (NIC ring audits, ledger conservation in the system
    /// assemblies) can report through the same channel.
    pub fn record(&mut self, at: SimTime, rule: &'static str, detail: String) {
        if self.cfg.enabled {
            self.violations.push(Violation { at, rule, detail });
        }
    }

    /// Check that `value <= bound` (ring occupancy against capacity,
    /// outstanding work against a window, ...).
    pub fn check_bound(&mut self, at: SimTime, what: &'static str, value: u64, bound: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.checks += 1;
        if value > bound {
            self.record(
                at,
                "ring-bound",
                format!("{what}: occupancy {value} exceeds bound {bound}"),
            );
        }
    }

    /// Check an exact conservation identity (`lhs == rhs`), e.g. "frames
    /// enqueued = frames popped + frames resident".
    pub fn check_conservation(&mut self, at: SimTime, what: &'static str, lhs: u64, rhs: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.checks += 1;
        if lhs != rhs {
            self.record(
                at,
                "conservation",
                format!(
                    "{what}: {lhs} != {rhs} (difference {})",
                    lhs as i64 - rhs as i64
                ),
            );
        }
    }

    /// Engine-side: observe one event pop. Checks causality (the popped
    /// event must not be in the past) and stable FIFO tie-breaking
    /// (among events at the same instant, sequence numbers must come out
    /// in insertion order).
    pub(crate) fn observe_pop(&mut self, now: SimTime, at: SimTime, seq: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.checks += 2;
        if at < now {
            self.record(
                at,
                "causality",
                format!("event seq {seq} fires at {at}, before the clock ({now})"),
            );
        }
        if let Some((last_at, last_seq)) = self.last_popped {
            if at == last_at && seq < last_seq {
                self.record(
                    at,
                    "fifo-order",
                    format!("tie at {at} broke FIFO: seq {seq} popped after seq {last_seq}"),
                );
            }
        }
        self.last_popped = Some((at.max(now), seq));
    }

    /// Engine-side: audit the event arena after a run drains. Pop, cancel
    /// and reschedule all free payload slots eagerly, so a drained queue
    /// with payloads still resident means the queue leaked storage.
    pub(crate) fn observe_drained(&mut self, now: SimTime, leaked: usize) {
        if !self.cfg.enabled {
            return;
        }
        self.checks += 1;
        if leaked > 0 {
            self.record(
                now,
                "slab-leak",
                format!("{leaked} event payload(s) still resident after the queue drained"),
            );
        }
    }

    /// Render every violation, one per line.
    pub fn report(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        out
    }

    /// Panic with a full report if any violation was observed. The normal
    /// end-of-run call for invcheck-enabled assemblies: a clean return
    /// certifies the run.
    ///
    /// # Panics
    /// Panics when at least one violation has been recorded.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "invariant check failed ({} violation(s) over {} checks):\n{}",
            self.violations.len(),
            self.checks,
            self.report()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_checker_records_nothing() {
        let mut c = InvariantChecker::new(InvariantConfig::disabled());
        c.record(SimTime::ZERO, "causality", "ignored".into());
        c.check_bound(SimTime::ZERO, "ring", 10, 1);
        c.observe_pop(SimTime::from_nanos(5), SimTime::ZERO, 0);
        assert!(c.violations().is_empty());
        assert_eq!(c.checks_performed(), 0);
        c.assert_clean();
    }

    #[test]
    fn bound_and_conservation_checks_fire() {
        let mut c = InvariantChecker::new(InvariantConfig::enabled());
        c.check_bound(SimTime::from_nanos(3), "ring[0]", 4, 8);
        c.check_bound(SimTime::from_nanos(4), "ring[0]", 9, 8);
        c.check_conservation(SimTime::from_nanos(5), "frames", 7, 7);
        c.check_conservation(SimTime::from_nanos(6), "frames", 7, 5);
        assert_eq!(c.violations().len(), 2);
        assert_eq!(c.violations()[0].rule, "ring-bound");
        assert_eq!(c.violations()[1].rule, "conservation");
        assert_eq!(c.checks_performed(), 4);
    }

    #[test]
    #[should_panic(expected = "invariant check failed")]
    fn assert_clean_panics_with_report() {
        let mut c = InvariantChecker::new(InvariantConfig::enabled());
        c.record(SimTime::ZERO, "causality", "event in the past".into());
        c.assert_clean();
    }

    #[test]
    fn fifo_tie_break_violation_detected() {
        let mut c = InvariantChecker::new(InvariantConfig::enabled());
        let t = SimTime::from_nanos(10);
        c.observe_pop(t, t, 4);
        c.observe_pop(t, t, 2); // same instant, earlier seq popped later
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, "fifo-order");
    }

    #[test]
    fn drained_queue_leak_is_reported() {
        let mut c = InvariantChecker::new(InvariantConfig::enabled());
        c.observe_drained(SimTime::from_nanos(9), 0);
        assert!(c.violations().is_empty());
        c.observe_drained(SimTime::from_nanos(9), 3);
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, "slab-leak");
        assert_eq!(c.checks_performed(), 2);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation {
            at: SimTime::from_nanos(7),
            rule: "causality",
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "[7ns] causality: x");
    }
}
