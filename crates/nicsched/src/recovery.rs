//! NIC-side failure detection: leases, heartbeats and worker health.
//!
//! The dispatcher sees every assignment and every completion, which makes
//! it the natural place to detect a worker that has stopped making
//! progress — long before the client-side retry timeout fires. The
//! [`HealthTracker`] implements a deterministic lease discipline: a worker
//! holding outstanding work owes the NIC a *completion or heartbeat*
//! within the configured suspicion window, measured in simulated time
//! against activity timestamps the dispatcher records. No wall clocks are
//! involved and all per-worker state is index-addressed (`Vec`), so the
//! tracker is bit-deterministic and passes the simlint container rules.
//!
//! # States
//!
//! ```text
//!            lease expires with work outstanding
//! Healthy ──────────────────────────────────────▶ Suspected
//!    ▲                                                │
//!    └──────────── any activity (readmission) ────────┘
//! ```
//!
//! * **Healthy** — lease current (or nothing owed). Selectable.
//! * **Suspected** — the lease expired while the worker held outstanding
//!   work. The dispatcher reclaims its in-flight requests for re-dispatch
//!   and stops selecting it, for as long as the worker stays silent: a
//!   crashed worker stays suspected for the rest of the run.
//! * Any activity from a suspected worker (a late completion, preemption
//!   notice, or heartbeat) proves the suspicion false: the worker is
//!   readmitted, selectable again at once, and can be suspected again.
//!
//! Idle workers owe nothing: suspicion only arms while the worker has
//! outstanding assignments, so an assembly without a heartbeat channel
//! (e.g. rpcvalet) cannot wedge itself by suspecting an idle fleet.
//! Assignments renew the lease — a request handed to a worker at `t` is
//! owed back by `t + suspect_after`, not by `last_completion +
//! suspect_after`.

use sim_core::{SimDuration, SimTime};

/// Timing knobs for the lease discipline. `Copy` so it can ride inside
/// `ResilienceConfig` through the sweep runners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// A worker with outstanding work owing no activity for this long is
    /// suspected and its in-flight requests are reclaimed.
    pub suspect_after: SimDuration,
    /// Worker-side heartbeat cadence on the completion path, and the
    /// NIC-side health-check tick. Must be below `suspect_after` or every
    /// lease would expire between renewals.
    pub heartbeat: SimDuration,
}

impl RecoveryPolicy {
    /// Defaults in paper scale: 5 µs heartbeats (matching the feedback
    /// cadence) and suspicion at 30 µs.
    pub fn paper_default() -> RecoveryPolicy {
        RecoveryPolicy {
            suspect_after: SimDuration::from_micros(30),
            heartbeat: SimDuration::from_micros(5),
        }
    }

    /// A policy with the given suspicion window and heartbeats at the
    /// paper cadence (capped at half the window).
    pub fn with_suspicion(window: SimDuration) -> RecoveryPolicy {
        assert!(window > SimDuration::ZERO, "empty suspicion window");
        let paper = RecoveryPolicy::paper_default();
        RecoveryPolicy {
            suspect_after: window,
            heartbeat: paper
                .heartbeat
                .min(SimDuration::from_nanos((window.as_nanos() / 2).max(1))),
        }
    }
}

/// Recovery ledger counters, reported into `FaultMetrics` by the
/// assemblies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Healthy → Suspected transitions.
    pub suspicions: u64,
    /// Suspected → Healthy transitions on activity (false positives).
    pub readmissions: u64,
}

/// Deterministic lease/heartbeat health tracker for one dispatcher's
/// worker fleet. All state is `Vec`-indexed by worker; time only advances
/// through the instants the dispatcher passes in.
#[derive(Debug)]
pub struct HealthTracker {
    policy: RecoveryPolicy,
    /// Last proof of life (completion, preemption notice, or heartbeat),
    /// extended by assignments (lease renewal).
    last_seen: Vec<SimTime>,
    /// Whether each worker is suspected (quarantined) right now.
    suspected: Vec<bool>,
    /// Transition counters for the recovery ledger.
    pub stats: RecoveryStats,
}

impl HealthTracker {
    /// A tracker for `workers` workers, all Healthy with fresh leases.
    pub fn new(workers: usize, policy: RecoveryPolicy) -> HealthTracker {
        HealthTracker {
            policy,
            last_seen: vec![SimTime::ZERO; workers],
            suspected: vec![false; workers],
            stats: RecoveryStats::default(),
        }
    }

    /// The timing policy this tracker enforces.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Proof of life from `worker` (completion, preemption notice, or
    /// heartbeat). Returns `true` when this readmits a suspected worker —
    /// the caller should fire the policy's `worker_up` hook and re-drain.
    pub fn on_activity(&mut self, now: SimTime, worker: usize) -> bool {
        self.last_seen[worker] = self.last_seen[worker].max(now);
        let readmitted = std::mem::take(&mut self.suspected[worker]);
        if readmitted {
            self.stats.readmissions += 1;
        }
        readmitted
    }

    /// Lease renewal on assignment: work handed to `worker` at `now` is
    /// owed back within the suspicion window from *now*. Not proof of
    /// life, so never readmits.
    pub fn on_assign(&mut self, now: SimTime, worker: usize) {
        self.last_seen[worker] = self.last_seen[worker].max(now);
    }

    /// Suspect every healthy worker whose lease expired at `now`.
    /// `outstanding[w]` gates suspicion: a worker owing nothing cannot be
    /// suspected. Returns the workers newly *suspected* this tick, in
    /// index order — the caller reclaims their in-flight work and fires
    /// `worker_down`.
    pub fn check(&mut self, now: SimTime, outstanding: &[u32]) -> Vec<usize> {
        let mut newly_suspected = Vec::new();
        for (w, &owed) in outstanding.iter().enumerate().take(self.suspected.len()) {
            let silent_for = now.saturating_duration_since(self.last_seen[w]);
            if !self.suspected[w] && owed > 0 && silent_for > self.policy.suspect_after {
                self.suspected[w] = true;
                self.stats.suspicions += 1;
                newly_suspected.push(w);
            }
        }
        newly_suspected
    }

    /// Whether the dispatcher may assign new work to `worker`.
    pub fn selectable(&self, worker: usize) -> bool {
        !self.suspected[worker]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn tracker() -> HealthTracker {
        HealthTracker::new(2, RecoveryPolicy::paper_default())
    }

    #[test]
    fn idle_workers_are_never_suspected() {
        let mut t = tracker();
        assert!(t.check(us(10_000), &[0, 0]).is_empty());
        assert!(t.selectable(0));
        assert_eq!(t.stats, RecoveryStats::default());
    }

    #[test]
    fn silence_with_outstanding_work_is_suspected_once() {
        let mut t = tracker();
        t.on_assign(us(10), 0);
        assert!(t.check(us(35), &[1, 0]).is_empty(), "inside the window");
        assert_eq!(t.check(us(41), &[1, 0]), vec![0], "lease expired");
        assert!(!t.selectable(0));
        assert!(t.selectable(1));
        assert!(t.check(us(100), &[1, 0]).is_empty(), "no double suspicion");
        assert!(t.check(us(10_000), &[1, 0]).is_empty());
        assert!(!t.selectable(0), "silence keeps the worker suspected");
        assert_eq!(
            t.stats,
            RecoveryStats {
                suspicions: 1,
                readmissions: 0
            }
        );
    }

    #[test]
    fn activity_renews_the_lease() {
        let mut t = tracker();
        t.on_assign(us(10), 0);
        assert!(
            !t.on_activity(us(30), 0),
            "a healthy worker is not readmitted"
        );
        assert!(t.check(us(55), &[1, 0]).is_empty(), "renewed at 30");
        assert_eq!(t.check(us(61), &[1, 0]), vec![0]);
    }

    #[test]
    fn late_activity_readmits() {
        let mut t = tracker();
        t.on_assign(us(0), 1);
        assert_eq!(t.check(us(31), &[0, 1]), vec![1]);
        assert!(t.on_activity(us(40), 1), "late completion readmits");
        assert!(t.selectable(1));
        assert!(!t.on_activity(us(41), 1), "readmitted once");
        assert_eq!(t.stats.readmissions, 1);
    }

    #[test]
    fn long_silent_worker_readmits_on_activity() {
        let mut t = tracker();
        t.on_assign(us(0), 0);
        t.check(us(31), &[1, 0]);
        t.check(us(125), &[1, 0]);
        assert!(t.on_activity(us(130), 0));
        assert!(t.selectable(0));
    }

    #[test]
    fn readmitted_worker_can_be_suspected_again() {
        let mut t = tracker();
        t.on_assign(us(0), 0);
        assert_eq!(t.check(us(31), &[1, 0]), vec![0]);
        t.on_activity(us(40), 0);
        t.on_assign(us(41), 0);
        assert_eq!(t.check(us(75), &[1, 0]), vec![0], "lease expired again");
        assert_eq!(t.stats.suspicions, 2);
    }

    #[test]
    fn with_suspicion_scales_the_windows() {
        let p = RecoveryPolicy::with_suspicion(SimDuration::from_micros(10));
        assert_eq!(p.suspect_after, SimDuration::from_micros(10));
        assert!(p.heartbeat <= SimDuration::from_micros(5));
        assert!(p.heartbeat < p.suspect_after);
    }
}
