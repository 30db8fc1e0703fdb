//! End-to-end latency recording.
//!
//! The paper reports "the 99th percentile latency as the tail latency" (§4)
//! of the client-observed sojourn time, after a warmup. [`LatencyRecorder`]
//! tracks overall and per-class histograms (short vs long requests in the
//! bimodal workload) and completion counts for goodput, with warmup samples
//! discarded.

use sim_core::stats::Histogram;
use sim_core::{SimDuration, SimTime};

/// Which class a request belongs to (for per-class tails in dispersive
/// workloads).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqClass {
    /// Short request (e.g. the 5 µs mode of the bimodal mix).
    Short,
    /// Long request (e.g. the 100 µs mode).
    Long,
}

/// Collects latency samples after a warmup cutoff.
#[derive(Debug)]
pub struct LatencyRecorder {
    warmup_until: SimTime,
    all: Histogram,
    short: Histogram,
    long: Histogram,
    /// Completions recorded (post-warmup).
    pub completed: u64,
    /// Completions ignored because they finished during warmup.
    pub warmup_discarded: u64,
    first_recorded: Option<SimTime>,
    last_recorded: Option<SimTime>,
}

impl LatencyRecorder {
    /// A recorder that discards completions before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> LatencyRecorder {
        LatencyRecorder {
            warmup_until,
            all: Histogram::latency(),
            short: Histogram::latency(),
            long: Histogram::latency(),
            completed: 0,
            warmup_discarded: 0,
            first_recorded: None,
            last_recorded: None,
        }
    }

    /// Record a completion observed at `now` for a request sent at
    /// `sent_at` with class `class`. The request's intrinsic service time
    /// is accepted but not used.
    pub fn record(
        &mut self,
        now: SimTime,
        sent_at: SimTime,
        _service: SimDuration,
        class: ReqClass,
    ) {
        if now < self.warmup_until {
            self.warmup_discarded += 1;
            return;
        }
        let sojourn = now.saturating_duration_since(sent_at);
        self.all.record(sojourn.as_nanos());
        match class {
            ReqClass::Short => self.short.record(sojourn.as_nanos()),
            ReqClass::Long => self.long.record(sojourn.as_nanos()),
        }
        self.completed += 1;
        if self.first_recorded.is_none() {
            self.first_recorded = Some(now);
        }
        self.last_recorded = Some(now);
    }

    /// The overall latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.all
    }

    /// Per-class histogram.
    pub fn class_histogram(&self, class: ReqClass) -> &Histogram {
        match class {
            ReqClass::Short => &self.short,
            ReqClass::Long => &self.long,
        }
    }

    /// p99 sojourn, as the paper plots. `None` before any sample.
    pub fn p99(&self) -> Option<SimDuration> {
        self.all.p99().map(SimDuration::from_nanos)
    }

    /// Median sojourn.
    pub fn p50(&self) -> Option<SimDuration> {
        self.all.p50().map(SimDuration::from_nanos)
    }

    /// 99.9th percentile sojourn.
    pub fn p999(&self) -> Option<SimDuration> {
        self.all.p999().map(SimDuration::from_nanos)
    }

    /// Mean sojourn.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.completed > 0).then(|| SimDuration::from_nanos_f64_trunc(self.all.mean()))
    }

    /// Achieved goodput over the measurement span, requests/second.
    pub fn achieved_rps(&self) -> f64 {
        match (self.first_recorded, self.last_recorded) {
            (Some(first), Some(last)) if last > first => {
                (self.completed.saturating_sub(1)) as f64 / last.duration_since(first).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn warmup_discarded() {
        let mut rec = LatencyRecorder::new(us(100));
        rec.record(us(50), us(45), SimDuration::from_micros(5), ReqClass::Short);
        assert_eq!(rec.completed, 0);
        assert_eq!(rec.warmup_discarded, 1);
        rec.record(
            us(150),
            us(140),
            SimDuration::from_micros(5),
            ReqClass::Short,
        );
        assert_eq!(rec.completed, 1);
        assert_eq!(rec.p99(), Some(SimDuration::from_micros(10)));
    }

    #[test]
    fn per_class_separation() {
        let mut rec = LatencyRecorder::new(SimTime::ZERO);
        for i in 0..100 {
            rec.record(
                us(10 + i),
                us(i),
                SimDuration::from_micros(5),
                ReqClass::Short,
            );
        }
        rec.record(
            us(1000),
            us(0),
            SimDuration::from_micros(100),
            ReqClass::Long,
        );
        assert_eq!(rec.class_histogram(ReqClass::Short).count(), 100);
        assert_eq!(rec.class_histogram(ReqClass::Long).count(), 1);
        // The long class does not contaminate the short-class tail.
        let short_p99 = rec.class_histogram(ReqClass::Short).p99().unwrap();
        assert!(short_p99 <= 10_100, "short p99 {short_p99}");
        assert!(rec.histogram().max().unwrap() >= 1_000_000);
    }

    #[test]
    fn achieved_rps_spans_measurement_window() {
        let mut rec = LatencyRecorder::new(SimTime::ZERO);
        // 11 completions, 1 per 10us, spanning 100us -> 100k rps.
        for i in 0..11u64 {
            rec.record(
                us(i * 10),
                us(0),
                SimDuration::from_micros(1),
                ReqClass::Short,
            );
        }
        let rps = rec.achieved_rps();
        assert!((rps - 100_000.0).abs() < 1.0, "rps {rps}");
    }

    #[test]
    fn empty_recorder_reports_none() {
        let rec = LatencyRecorder::new(SimTime::ZERO);
        assert_eq!(rec.p99(), None);
        assert_eq!(rec.mean(), None);
        assert_eq!(rec.achieved_rps(), 0.0);
    }
}
