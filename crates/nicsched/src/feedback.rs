//! Core-status feedback — the abstraction the paper says existing NIC
//! frameworks lack.
//!
//! §2.3: "they lack one key abstraction necessary for centralized
//! preemptive scheduling. Host cores need to provide feedback to the
//! SmartNIC at a fine granularity. More specifically, they have to
//! indicate whether they are busy or ready to receive more work."
//!
//! [`CoreFeedback`] is that message; [`FeedbackChannel`] models the
//! transport with its path-dependent latency and keeps the dispatcher's
//! view of each core honestly *stale* by exactly that latency — the "gap"
//! in the paper's title.

use sim_core::{SimDuration, SimTime};

/// One core-status message from a worker to the NIC scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreFeedback {
    /// Reporting worker.
    pub worker: usize,
    /// Requests the worker currently holds (running + stashed).
    pub occupancy: u32,
    /// When the worker emitted this report.
    pub reported_at: SimTime,
}

/// The dispatcher-side view of worker state, fed by delayed reports.
///
/// `view(worker)` returns the *latest delivered* report, which lags truth
/// by the channel latency — quantifying how informed the scheduler can be
/// on each hardware path (packet 2.56 µs vs CXL vs coherent memory).
#[derive(Debug)]
pub struct FeedbackChannel {
    latency: SimDuration,
    /// In-flight reports, ordered by delivery time.
    in_flight: std::collections::VecDeque<(SimTime, CoreFeedback)>,
    delivered: Vec<Option<CoreFeedback>>,
    /// Total reports sent.
    pub sent: u64,
}

impl FeedbackChannel {
    /// A channel for `n_workers` workers with one-way `latency`.
    pub fn new(n_workers: usize, latency: SimDuration) -> FeedbackChannel {
        FeedbackChannel {
            latency,
            in_flight: std::collections::VecDeque::new(),
            delivered: vec![None; n_workers],
            sent: 0,
        }
    }

    /// Worker side: emit a report at `now`.
    pub fn send(&mut self, now: SimTime, feedback: CoreFeedback) {
        debug_assert_eq!(feedback.reported_at, now, "report timestamp mismatch");
        self.in_flight.push_back((now + self.latency, feedback));
        self.sent += 1;
    }

    /// Dispatcher side: absorb every report that has arrived by `now`,
    /// then read the freshest view of `worker`.
    pub fn view(&mut self, now: SimTime, worker: usize) -> Option<CoreFeedback> {
        self.absorb(now);
        self.delivered[worker]
    }

    /// Absorb all reports delivered by `now`.
    pub fn absorb(&mut self, now: SimTime) {
        while let Some(&(deliver_at, fb)) = self.in_flight.front() {
            if deliver_at > now {
                break;
            }
            self.in_flight.pop_front();
            self.delivered[fb.worker] = Some(fb);
        }
    }

    /// How stale the dispatcher's view of `worker` is at `now`.
    pub fn staleness(&mut self, now: SimTime, worker: usize) -> Option<SimDuration> {
        self.view(now, worker)
            .map(|fb| now.saturating_duration_since(fb.reported_at))
    }

    /// The channel's one-way latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Reports still in transit (a probe-friendly gauge of how much of
    /// the scheduler's picture is currently stuck in the gap).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The worst staleness across all workers at `now`: the scheduler's
    /// most out-of-date belief. `None` until every worker has reported.
    pub fn worst_staleness(&mut self, now: SimTime) -> Option<SimDuration> {
        self.absorb(now);
        self.delivered
            .iter()
            .map(|slot| slot.map(|fb| now.saturating_duration_since(fb.reported_at)))
            .collect::<Option<Vec<_>>>()
            .and_then(|v| v.into_iter().max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn fb(worker: usize, occupancy: u32, at: SimTime) -> CoreFeedback {
        CoreFeedback {
            worker,
            occupancy,
            reported_at: at,
        }
    }

    #[test]
    fn reports_arrive_after_latency() {
        let mut ch = FeedbackChannel::new(2, SimDuration::from_micros_f64(2.56));
        ch.send(us(0), fb(0, 1, us(0)));
        assert_eq!(ch.view(us(2), 0), None, "still in flight");
        let seen = ch.view(SimTime::from_nanos(2_560), 0).unwrap();
        assert_eq!(seen.occupancy, 1);
    }

    #[test]
    fn freshest_report_wins() {
        let mut ch = FeedbackChannel::new(1, SimDuration::from_micros(1));
        ch.send(us(0), fb(0, 3, us(0)));
        ch.send(us(5), fb(0, 0, us(5)));
        assert_eq!(ch.view(us(2), 0).unwrap().occupancy, 3);
        assert_eq!(ch.view(us(6), 0).unwrap().occupancy, 0);
    }

    #[test]
    fn staleness_is_the_gap() {
        // The scheduler's knowledge lags truth by at least the path
        // latency — the paper's central "gap".
        let mut ch = FeedbackChannel::new(1, SimDuration::from_micros_f64(2.56));
        ch.send(us(10), fb(0, 1, us(10)));
        let staleness = ch.staleness(us(20), 0).unwrap();
        assert_eq!(staleness, SimDuration::from_micros(10));
        assert!(staleness >= ch.latency());
    }

    #[test]
    fn per_worker_views_are_independent() {
        let mut ch = FeedbackChannel::new(3, SimDuration::ZERO);
        ch.send(us(1), fb(0, 1, us(1)));
        ch.send(us(2), fb(2, 4, us(2)));
        assert_eq!(ch.view(us(3), 0).unwrap().occupancy, 1);
        assert_eq!(ch.view(us(3), 1), None);
        assert_eq!(ch.view(us(3), 2).unwrap().occupancy, 4);
        assert_eq!(ch.sent, 2);
    }

    #[test]
    fn coherent_channel_is_nearly_live() {
        let mut fast = FeedbackChannel::new(1, SimDuration::from_nanos(120));
        fast.send(us(0), fb(0, 2, us(0)));
        assert!(fast.view(SimTime::from_nanos(120), 0).is_some());
    }

    #[test]
    fn in_flight_tracks_undelivered_reports() {
        let mut ch = FeedbackChannel::new(2, SimDuration::from_micros(5));
        ch.send(us(0), fb(0, 1, us(0)));
        ch.send(us(1), fb(1, 2, us(1)));
        assert_eq!(ch.in_flight(), 2);
        ch.absorb(us(5));
        assert_eq!(ch.in_flight(), 1, "first report delivered at t=5us");
        ch.absorb(us(6));
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn worst_staleness_needs_full_coverage_then_takes_the_max() {
        let mut ch = FeedbackChannel::new(2, SimDuration::ZERO);
        ch.send(us(0), fb(0, 1, us(0)));
        assert_eq!(ch.worst_staleness(us(10)), None, "worker 1 never reported");
        ch.send(us(8), fb(1, 0, us(8)));
        assert_eq!(
            ch.worst_staleness(us(10)),
            Some(SimDuration::from_micros(10))
        );
    }
}
