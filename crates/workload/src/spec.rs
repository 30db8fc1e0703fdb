//! Workload specification and run metrics.
//!
//! A [`WorkloadSpec`] is the complete, seedable description of one
//! experiment point: the arrival process, the service-time distribution,
//! the request body size, and the measurement window. A system runs it and
//! fills a [`RunMetrics`] — the row format every figure in the paper is
//! plotted from (achieved throughput vs p99 latency).

use sim_core::{SimDuration, SimTime, StageReport};

use crate::dist::ServiceDist;
use crate::latency::ReqClass;

/// Complete description of one load point.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Offered load, requests per second (Poisson open-loop).
    pub offered_rps: f64,
    /// Service-time distribution.
    pub dist: ServiceDist,
    /// Request body bytes beyond the message header (the paper considers
    /// 64 B and 1 KiB requests).
    pub body_len: u16,
    /// Simulated time before which completions are discarded.
    pub warmup: SimDuration,
    /// Simulated measurement window after warmup.
    pub measure: SimDuration,
    /// Master seed; every stochastic stream forks from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A workload with sane defaults: 64 B bodies, 10 ms warmup, 100 ms
    /// measurement, seed 1.
    pub fn new(offered_rps: f64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps,
            dist,
            body_len: 64,
            warmup: SimDuration::from_millis(10),
            measure: SimDuration::from_millis(100),
            seed: 1,
        }
    }

    /// This spec with the offered load replaced — the per-point
    /// derivation used by load sweeps, so warmup/measure/seed are
    /// constructed once per figure rather than once per point.
    pub fn at(mut self, offered_rps: f64) -> WorkloadSpec {
        self.offered_rps = offered_rps;
        self
    }

    /// Total simulated horizon (warmup + measurement).
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// End of warmup as an absolute instant.
    pub fn warmup_until(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    /// Classify a sampled service time against this distribution: for
    /// bimodal workloads a request of the long mode is [`ReqClass::Long`];
    /// for other shapes, anything above 4× the mean counts as long.
    pub fn class_of(&self, service: SimDuration) -> ReqClass {
        match self.dist {
            ServiceDist::Bimodal { long, .. } => {
                if service == long {
                    ReqClass::Long
                } else {
                    ReqClass::Short
                }
            }
            other => {
                if service > other.mean() * 4 {
                    ReqClass::Long
                } else {
                    ReqClass::Short
                }
            }
        }
    }
}

/// Reliability and fault accounting for one run.
///
/// Every counter is a client- or model-side tally, so a dropped request
/// shows up somewhere instead of silently vanishing from the latency
/// distribution. Two ledgers reconcile a run:
///
/// * **Request ledger** (exact): every request the client launched ends in
///   exactly one of recorded / abandoned / still-open, so
///   [`unaccounted`](FaultMetrics::unaccounted) must always be zero.
/// * **Attempt ledger** (bounded): wire attempts either reach a terminal
///   fate the model counted (completion, duplicate, orphan, link loss,
///   ring drop, stranded-on-crashed-worker) or are still in the
///   pipeline at the horizon; [`in_pipe`](FaultMetrics::in_pipe) is that
///   remainder and must be small and non-negative.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Wire send attempts, including retransmissions.
    pub attempts: u64,
    /// Distinct requests launched by the client.
    pub launched: u64,
    /// Unique completions recorded (including warmup completions, which
    /// the latency histograms discard but the ledger must not).
    pub completed_all: u64,
    /// Retransmissions sent after a timeout.
    pub retries: u64,
    /// Per-attempt timeouts that fired while the attempt was live.
    pub timeouts: u64,
    /// Responses for requests already completed (suppressed, not
    /// recorded).
    pub duplicates: u64,
    /// Responses for requests the client had already abandoned.
    pub orphaned: u64,
    /// Requests given up after the attempt budget was exhausted.
    pub abandoned: u64,
    /// Requests still awaiting a response when the run ended.
    pub open_at_horizon: u64,
    /// Request frames lost on the client→server wire.
    pub req_link_lost: u64,
    /// Response frames lost on the server→client wire.
    pub resp_link_lost: u64,
    /// Frames tail-dropped by NIC/worker rings.
    pub ring_dropped: u64,
    /// Always zero: no dispatcher sheds requests. Kept because the
    /// benchmark's run fingerprint names it.
    pub shed: u64,
    /// Always zero: no dispatcher sends NACK frames. Kept because the
    /// benchmark's run fingerprint names it.
    pub nacks: u64,
    /// Tasks stranded on a crashed worker (accepted, never finished).
    pub stranded: u64,
    /// Informed→hashed fallback transitions taken by the stale-feedback
    /// governor.
    pub fallback_switches: u64,
    /// Cumulative nanoseconds the dispatcher spent in hashed fallback.
    pub fallback_ns: u64,
    /// Workers quarantined (excluded from selection) for stale feedback.
    pub quarantines: u64,
    /// In-flight requests reclaimed from suspected workers and
    /// re-dispatched by the NIC-side failure detector.
    pub recovered: u64,
    /// Late completions from stalled-but-alive workers absorbed by the
    /// exactly-once filter after their request was already re-dispatched.
    pub recovery_duplicates: u64,
    /// Workers suspected by the failure detector (lease expiries).
    pub suspicions: u64,
    /// Suspected workers readmitted on late activity (false positives).
    pub readmissions: u64,
}

impl FaultMetrics {
    /// Total frames lost on either wire.
    pub fn link_lost(&self) -> u64 {
        self.req_link_lost + self.resp_link_lost
    }

    /// Request-ledger residue: `launched - (completed + abandoned +
    /// open)`. Always zero when client bookkeeping is sound.
    pub fn unaccounted(&self) -> i64 {
        self.launched as i64
            - self.completed_all as i64
            - self.abandoned as i64
            - self.open_at_horizon as i64
    }

    /// Attempt-ledger residue: attempts whose fate was not explicitly
    /// counted, i.e. frames still inside the pipeline (links, rings,
    /// queues, running workers) at the horizon. Must be non-negative and
    /// bounded by the pipeline depth (plus `recovery_duplicates` when
    /// NIC-side recovery is on).
    ///
    /// Recovery re-dispatch clones an admitted attempt *inside* the
    /// server: when the original copy later surfaces anyway (a stalled
    /// worker finishing its zombie), its terminal event — a duplicate
    /// response at the client, or an absorbed report at the dispatcher —
    /// was never paid for by a wire attempt, so each one is credited
    /// back here.
    pub fn in_pipe(&self) -> i64 {
        self.attempts as i64 + self.recovery_duplicates as i64
            - self.completed_all as i64
            - self.duplicates as i64
            - self.orphaned as i64
            - self.link_lost() as i64
            - self.ring_dropped as i64
            - self.stranded as i64
    }

    /// Accumulate another replica's counters into this one (used when
    /// averaging metrics across seeds: counters sum, ratios re-derive).
    pub fn absorb(&mut self, other: &FaultMetrics) {
        self.attempts += other.attempts;
        self.launched += other.launched;
        self.completed_all += other.completed_all;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates += other.duplicates;
        self.orphaned += other.orphaned;
        self.abandoned += other.abandoned;
        self.open_at_horizon += other.open_at_horizon;
        self.req_link_lost += other.req_link_lost;
        self.resp_link_lost += other.resp_link_lost;
        self.ring_dropped += other.ring_dropped;
        self.shed += other.shed;
        self.nacks += other.nacks;
        self.stranded += other.stranded;
        self.fallback_switches += other.fallback_switches;
        self.fallback_ns += other.fallback_ns;
        self.quarantines += other.quarantines;
        self.recovered += other.recovered;
        self.recovery_duplicates += other.recovery_duplicates;
        self.suspicions += other.suspicions;
        self.readmissions += other.readmissions;
    }
}

/// The measured outcome of running one [`WorkloadSpec`] on one system —
/// one point on one curve of one figure.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Offered load (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput (requests/second over the measurement window).
    pub achieved_rps: f64,
    /// Median sojourn.
    pub p50: SimDuration,
    /// 99th-percentile sojourn — the paper's tail latency.
    pub p99: SimDuration,
    /// 99.9th-percentile sojourn.
    pub p999: SimDuration,
    /// p99 of the short request class (e.g. the 5 us bimodal mode);
    /// zero when the class is empty.
    pub p99_short: SimDuration,
    /// p99 of the long request class; zero when the class is empty.
    pub p99_long: SimDuration,
    /// Mean sojourn.
    pub mean: SimDuration,
    /// Completions measured.
    pub completed: u64,
    /// Requests dropped anywhere in the system (rings, queues).
    pub dropped: u64,
    /// Preemptions observed.
    pub preemptions: u64,
    /// Mean worker utilization in `[0,1]`.
    pub worker_utilization: f64,
    /// Stage-level observability report; `None` unless the run was probed
    /// (`ProbeConfig::enabled()` or stronger).
    pub stages: Option<StageReport>,
    /// Reliability and fault accounting (all-zero for a fault-free run
    /// without retries).
    pub faults: FaultMetrics,
}

impl RunMetrics {
    /// Whether this point is saturated: goodput fell more than `tolerance`
    /// below offered load (e.g. 0.03 → 3%).
    pub fn saturated(&self, tolerance: f64) -> bool {
        self.achieved_rps < self.offered_rps * (1.0 - tolerance)
    }

    /// Achieved goodput as a fraction of offered load (1.0 = nothing
    /// lost; 0.0 when no load was offered).
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered_rps > 0.0 {
            self.achieved_rps / self.offered_rps
        } else {
            0.0
        }
    }

    /// A compact single-line rendering for experiment logs.
    pub fn row(&self) -> String {
        format!(
            "offered={:>10.0} achieved={:>10.0} goodput={:.3} p50={} p99={} p999={} drops={} retries={} preempt={} util={:.2}",
            self.offered_rps,
            self.achieved_rps,
            self.goodput_ratio(),
            self.p50,
            self.p99,
            self.p999,
            self.dropped,
            self.faults.retries,
            self.preemptions,
            self.worker_utilization,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Rng;

    #[test]
    fn horizon_and_warmup() {
        let w = WorkloadSpec::new(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        assert_eq!(w.warmup_until(), SimTime::from_millis(10));
        assert_eq!(w.horizon(), SimTime::from_millis(110));
    }

    #[test]
    fn bimodal_classification_is_exact() {
        let w = WorkloadSpec::new(1.0, ServiceDist::paper_bimodal());
        assert_eq!(w.class_of(SimDuration::from_micros(5)), ReqClass::Short);
        assert_eq!(w.class_of(SimDuration::from_micros(100)), ReqClass::Long);
    }

    #[test]
    fn generic_classification_uses_mean_multiple() {
        let w = WorkloadSpec::new(
            1.0,
            ServiceDist::Exponential {
                mean: SimDuration::from_micros(10),
            },
        );
        assert_eq!(w.class_of(SimDuration::from_micros(10)), ReqClass::Short);
        assert_eq!(w.class_of(SimDuration::from_micros(50)), ReqClass::Long);
    }

    #[test]
    fn saturation_detection() {
        let mut m = RunMetrics {
            offered_rps: 1_000_000.0,
            achieved_rps: 995_000.0,
            p50: SimDuration::from_micros(6),
            p99: SimDuration::from_micros(20),
            p999: SimDuration::from_micros(40),
            p99_short: SimDuration::from_micros(18),
            p99_long: SimDuration::from_micros(40),
            mean: SimDuration::from_micros(8),
            completed: 100_000,
            dropped: 0,
            preemptions: 0,
            worker_utilization: 0.9,
            stages: None,
            faults: FaultMetrics::default(),
        };
        assert!(!m.saturated(0.03));
        m.achieved_rps = 900_000.0;
        assert!(m.saturated(0.03));
        assert!(m.row().contains("offered"));
        assert!(m.row().contains("goodput=0.900"));
        assert!(m.row().contains("retries=0"));
    }

    #[test]
    fn fault_ledgers_reconcile() {
        let mut f = FaultMetrics {
            attempts: 110,
            launched: 100,
            completed_all: 90,
            retries: 10,
            timeouts: 12,
            duplicates: 1,
            orphaned: 1,
            abandoned: 4,
            open_at_horizon: 6,
            req_link_lost: 8,
            resp_link_lost: 2,
            ring_dropped: 5,
            stranded: 1,
            ..FaultMetrics::default()
        };
        assert_eq!(f.unaccounted(), 0, "request ledger closes");
        assert_eq!(f.link_lost(), 10);
        // 110 - 90 - 1 - 1 - 10 - 5 - 1 = 2 attempts still in pipes.
        assert_eq!(f.in_pipe(), 2);
        f.completed_all += 1;
        assert_eq!(f.unaccounted(), -1, "imbalance is visible");
    }

    #[test]
    fn class_of_consistent_with_sampling() {
        // Every sampled bimodal value classifies into one of the two modes.
        let w = WorkloadSpec::new(1.0, ServiceDist::paper_bimodal());
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let s = w.dist.sample(&mut rng);
            let _ = w.class_of(s); // must not panic, always classifiable
            assert!(
                s == SimDuration::from_micros(5) || s == SimDuration::from_micros(100),
                "unexpected bimodal sample {s}"
            );
        }
    }
}
