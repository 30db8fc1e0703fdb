//! Deterministic fault injection.
//!
//! A [`FaultConfig`] is a declarative schedule of timed faults — i.i.d.
//! wire loss, worker crashes and stalls, and feedback-channel blackouts —
//! that any model can query through [`Ctx::faults`](crate::Ctx::faults),
//! exactly the way the observability [`Probe`](crate::probe::Probe) is
//! reached through `ctx.probe()`. Every query is a pure function of the
//! configuration and the instant asked about, so two runs with the same
//! configuration see the same faults. The wire loss itself is drawn by the
//! link model (`nic_model::Link::transmit_lossy`) from its own seeded
//! stream.
//!
//! The configuration is *passive*: it never schedules events itself.
//! Models ask it questions at the moments that matter ("is worker 3 alive
//! right now?") and react in their own event alphabet, which keeps fault
//! handling visible in each assembly instead of hidden in the engine.

use crate::time::SimTime;

/// A permanent worker failure: from `at` onward the worker neither polls,
/// completes, nor reports feedback. Work already queued on it is stranded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerCrash {
    /// Index of the crashing worker.
    pub worker: usize,
    /// Instant of the crash.
    pub at: SimTime,
}

/// A transient worker outage: within `[start, end)` the worker makes no
/// progress and sends no feedback, then resumes where it left off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// Index of the stalling worker.
    pub worker: usize,
    /// Stall start (inclusive).
    pub start: SimTime,
    /// Stall end (exclusive); the worker resumes at this instant.
    pub end: SimTime,
}

/// A window during which the worker→dispatcher feedback path is dark:
/// feedback messages are suppressed, so the dispatcher steers on
/// increasingly stale state until its staleness fallback kicks in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// Blackout start (inclusive).
    pub start: SimTime,
    /// Blackout end (exclusive).
    pub end: SimTime,
}

/// Maximum number of crash entries and of stall entries per
/// [`FaultConfig`]. Fixed capacity keeps the config `Copy`, which the
/// parallel sweep runners and the experiment grids rely on (configs are
/// passed by value into `par_map` closures).
pub const MAX_FAULT_EVENTS: usize = 16;

/// Declarative fault specification for one run, and the queries models
/// make of it. `Default` is fault-free; every field composes independently,
/// so a run can combine e.g. 1% wire loss with a mid-run crash and a
/// feedback blackout. Crashes and stalls are *lists* (up to
/// [`MAX_FAULT_EVENTS`] each): call [`with_crash`](FaultConfig::with_crash)
/// / [`with_stall`](FaultConfig::with_stall) repeatedly to build a fault
/// schedule such as a rolling stall storm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Independent per-frame loss probability applied to every wire
    /// transmit (both directions).
    pub wire_loss: f64,
    /// Permanent worker crashes, in insertion order.
    crashes: [Option<WorkerCrash>; MAX_FAULT_EVENTS],
    /// Transient worker stalls, in insertion order.
    stalls: [Option<StallWindow>; MAX_FAULT_EVENTS],
    /// Optional feedback blackout window.
    pub blackout: Option<Blackout>,
}

impl FaultConfig {
    /// Add independent per-frame wire loss.
    pub fn with_wire_loss(mut self, p: f64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.wire_loss = p;
        self
    }

    /// Add a permanent worker crash at `at`. May be called up to
    /// [`MAX_FAULT_EVENTS`] times to crash several workers on a schedule.
    pub fn with_crash(mut self, worker: usize, at: SimTime) -> FaultConfig {
        let slot = self
            .crashes
            .iter()
            .position(Option::is_none)
            .expect("crash schedule full");
        self.crashes[slot] = Some(WorkerCrash { worker, at });
        self
    }

    /// Add a transient worker stall over `[start, end)`. May be called up
    /// to [`MAX_FAULT_EVENTS`] times to build a stall storm.
    pub fn with_stall(mut self, worker: usize, start: SimTime, end: SimTime) -> FaultConfig {
        assert!(end > start, "empty stall window");
        let slot = self
            .stalls
            .iter()
            .position(Option::is_none)
            .expect("stall schedule full");
        self.stalls[slot] = Some(StallWindow { worker, start, end });
        self
    }

    /// Add a feedback blackout window.
    pub fn with_blackout(mut self, start: SimTime, end: SimTime) -> FaultConfig {
        assert!(end > start, "empty blackout window");
        self.blackout = Some(Blackout { start, end });
        self
    }

    /// Whether `worker` has crashed by `now`. Slots fill in insertion
    /// order and are never cleared, so the scan stops at the first empty
    /// one: a fault-free run reads a single slot.
    pub fn worker_crashed(&self, worker: usize, now: SimTime) -> bool {
        self.crashes
            .iter()
            .map_while(Option::as_ref)
            .any(|c| c.worker == worker && now >= c.at)
    }

    /// If `worker` is stalled at `now`, the latest instant any covering
    /// stall window ends (overlapping windows extend each other).
    pub fn worker_stalled_until(&self, worker: usize, now: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .map_while(Option::as_ref)
            .filter(|s| s.worker == worker && now >= s.start && now < s.end)
            .map(|s| s.end)
            .max()
    }

    /// Whether `worker` is unable to make progress at `now` (crashed or
    /// mid-stall).
    pub fn worker_down(&self, worker: usize, now: SimTime) -> bool {
        self.worker_crashed(worker, now) || self.worker_stalled_until(worker, now).is_some()
    }

    /// Whether the feedback path is dark at `now`.
    pub fn feedback_blackout(&self, now: SimTime) -> bool {
        matches!(self.blackout, Some(b) if now >= b.start && now < b.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn default_config_is_inert() {
        let f = FaultConfig::default();
        assert!(!f.worker_crashed(0, us(5)));
        assert!(!f.worker_down(3, us(5)));
        assert!(!f.feedback_blackout(us(5)));
    }

    #[test]
    fn crash_is_permanent_and_per_worker() {
        let f = FaultConfig::default().with_crash(2, us(50));
        assert!(!f.worker_crashed(2, us(49)));
        assert!(f.worker_crashed(2, us(50)));
        assert!(f.worker_crashed(2, us(5_000)));
        assert!(!f.worker_crashed(1, us(5_000)));
        assert!(f.worker_down(2, us(60)));
    }

    #[test]
    fn stall_window_recovers() {
        let f = FaultConfig::default().with_stall(1, us(10), us(20));
        assert_eq!(f.worker_stalled_until(1, us(9)), None);
        assert_eq!(f.worker_stalled_until(1, us(10)), Some(us(20)));
        assert_eq!(f.worker_stalled_until(1, us(19)), Some(us(20)));
        assert_eq!(f.worker_stalled_until(1, us(20)), None);
        assert_eq!(f.worker_stalled_until(0, us(15)), None);
    }

    #[test]
    fn crash_and_stall_schedules_compose() {
        // `FaultConfig` holds *lists* of crashes and stalls: the builders
        // may be chained.
        let f = FaultConfig::default()
            .with_crash(2, us(50))
            .with_crash(0, us(80))
            .with_stall(1, us(10), us(20))
            .with_stall(1, us(30), us(40))
            .with_stall(3, us(15), us(25));
        assert!(f.worker_crashed(2, us(50)));
        assert!(!f.worker_crashed(0, us(79)));
        assert!(f.worker_crashed(0, us(80)));
        assert_eq!(f.worker_stalled_until(1, us(15)), Some(us(20)));
        assert_eq!(f.worker_stalled_until(1, us(25)), None);
        assert_eq!(f.worker_stalled_until(1, us(35)), Some(us(40)));
        assert_eq!(f.worker_stalled_until(3, us(20)), Some(us(25)));
    }

    #[test]
    fn overlapping_stalls_extend_each_other() {
        let f = FaultConfig::default()
            .with_stall(0, us(10), us(20))
            .with_stall(0, us(15), us(30));
        assert_eq!(f.worker_stalled_until(0, us(16)), Some(us(30)));
        assert_eq!(f.worker_stalled_until(0, us(12)), Some(us(20)));
    }

    #[test]
    fn scans_stopping_at_the_first_empty_slot_see_every_fault() {
        // The same queries over every slot, empty ones skipped.
        let crashed = |f: &FaultConfig, w: usize, now: SimTime| {
            f.crashes
                .iter()
                .flatten()
                .any(|c| c.worker == w && now >= c.at)
        };
        let stalled = |f: &FaultConfig, w: usize, now: SimTime| {
            f.stalls
                .iter()
                .flatten()
                .filter(|s| s.worker == w && now >= s.start && now < s.end)
                .map(|s| s.end)
                .max()
        };
        let f = (0..5).fold(FaultConfig::default(), |f, i| {
            f.with_crash(i % 3, us(100 * i as u64 + 50)).with_stall(
                i % 2,
                us(40 * i as u64),
                us(40 * i as u64 + 60),
            )
        });
        let mut instants = Vec::new();
        for i in 0..5u64 {
            for edge in [100 * i + 50, 40 * i, 40 * i + 60] {
                instants.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
        }
        for now in instants.into_iter().map(us) {
            for w in 0..4 {
                assert_eq!(f.worker_crashed(w, now), crashed(&f, w, now));
                assert_eq!(f.worker_stalled_until(w, now), stalled(&f, w, now));
                assert_eq!(
                    f.worker_down(w, now),
                    crashed(&f, w, now) || stalled(&f, w, now).is_some()
                );
            }
        }
    }

    #[test]
    fn blackout_bounds() {
        let f = FaultConfig::default().with_blackout(us(5), us(8));
        assert!(!f.feedback_blackout(us(4)));
        assert!(f.feedback_blackout(us(5)));
        assert!(f.feedback_blackout(us(7)));
        assert!(!f.feedback_blackout(us(8)));
    }
}
