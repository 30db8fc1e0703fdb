//! Stage-level observability: counters, queue-depth gauges, per-hop
//! latency histograms, and an optional bounded per-request event trace.
//!
//! The paper's argument is about *where time goes* between a request
//! arriving at the NIC and a worker core running it — the feedback gap.
//! Aggregate latency percentiles cannot show that; this module makes every
//! pipeline stage individually measurable so the gap appears as a
//! quantified idle interval instead of folklore.
//!
//! # Design
//!
//! * A [`Probe`] lives inside the [`Engine`](crate::Engine) and is swapped
//!   into the [`Ctx`](crate::Ctx) for the duration of each event, so any
//!   [`Model`](crate::Model) can call `ctx.probe().count("qm.enqueue")`
//!   without a change to its `handle` signature.
//! * Every recording method is a no-op returning immediately when the
//!   probe is disabled — a disabled run is behaviourally and numerically
//!   identical to a run compiled without any instrumentation.
//! * All keys are `&'static str` (optionally paired with an instance
//!   index such as a worker id), so the hot path never allocates and
//!   report ordering is deterministic (`BTreeMap` iteration).
//!
//! # The mark chain
//!
//! Per-request latency is decomposed by *marking* a request each time it
//! crosses a stage boundary: [`ProbeHandle::mark`] records, under the
//! given hop name, the time elapsed since the request's previous mark.
//! Hop names in this chain use the [`CHAIN_PREFIX`] (`"path."`) so the
//! report can telescope them: summed over the chain, the per-hop means
//! reconcile with the client-observed sojourn time.

use std::collections::BTreeMap;
use std::fmt;

use crate::stats::{BusyTracker, Histogram, TimeWeighted};
use crate::{IdTable, SimDuration, SimTime};

/// Hop-name prefix marking members of the per-request latency chain.
///
/// Hops recorded by [`ProbeHandle::mark`] / [`ProbeHandle::finish`] should
/// use names starting with this prefix; [`StageReport::chain_mean`] sums
/// exactly those hops.
pub const CHAIN_PREFIX: &str = "path.";

/// How much observability a run should pay for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Master switch. When `false` every probe call is a no-op and the
    /// run is bit-identical to an uninstrumented one.
    pub enabled: bool,
    /// Maximum number of [`TraceEvent`]s to retain (0 disables tracing).
    /// Events past the cap are counted but dropped, bounding memory.
    pub trace_capacity: usize,
}

impl ProbeConfig {
    /// No observability at all — the default for metric sweeps.
    pub const fn disabled() -> ProbeConfig {
        ProbeConfig {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Counters, gauges and hop histograms, but no per-request trace.
    pub const fn enabled() -> ProbeConfig {
        ProbeConfig {
            enabled: true,
            trace_capacity: 0,
        }
    }

    /// Enable the per-request event trace, keeping at most `capacity`
    /// events (implies `enabled`).
    pub const fn with_trace(capacity: usize) -> ProbeConfig {
        ProbeConfig {
            enabled: true,
            trace_capacity: capacity,
        }
    }
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig::disabled()
    }
}

/// One row of the per-request event trace: request `req` reached `stage`
/// at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the stage crossing.
    pub at: SimTime,
    /// Request id.
    pub req: u64,
    /// Stage (hop) name, e.g. `"path.nic_parse"`.
    pub stage: &'static str,
}

/// Gauge key: a static name plus an optional instance index (worker id,
/// group id, RX queue id, ...).
type Key = (&'static str, Option<u32>);

fn key_label(key: &Key) -> String {
    match key.1 {
        Some(i) => format!("{}[{}]", key.0, i),
        None => key.0.to_string(),
    }
}

/// A queue-depth gauge: time-weighted mean plus a duration-weighted
/// histogram (each depth value is weighted by how long it was held, so
/// `p99` answers "what depth did this queue sit at for the worst 1% of
/// time").
#[derive(Debug)]
struct DepthTrack {
    tw: TimeWeighted,
    hist: Histogram,
    last: u64,
    since: SimTime,
}

impl DepthTrack {
    fn new() -> DepthTrack {
        DepthTrack {
            tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            hist: Histogram::new(3),
            last: 0,
            since: SimTime::ZERO,
        }
    }

    fn set(&mut self, now: SimTime, depth: u64) {
        let held = now.saturating_duration_since(self.since).as_nanos();
        if held > 0 {
            self.hist.record_n(self.last, held);
        }
        self.tw.set(now, depth as f64);
        self.last = depth;
        self.since = now;
    }

    /// Account the final plateau up to `now` without changing the value.
    /// Clamped: a report horizon earlier than the last recorded event
    /// (e.g. an engine drained past its nominal horizon) is a no-op.
    fn flush(&mut self, now: SimTime) {
        let last = self.last;
        self.set(now.max(self.since), last);
    }
}

/// The recording half of the observability layer. Owned by the engine;
/// models reach it through [`Ctx::probe`](crate::Ctx::probe).
#[derive(Debug, Default)]
pub struct Probe {
    cfg: ProbeConfig,
    counters: BTreeMap<&'static str, u64>,
    depths: BTreeMap<Key, DepthTrack>,
    busy: BTreeMap<Key, BusyTracker>,
    hops: BTreeMap<&'static str, Histogram>,
    /// Per-request time of the most recent mark. A dense request-id
    /// table: O(1) per mark, and a report that ever walks the in-flight
    /// set (e.g. to list stuck requests) does so in request-id order.
    inflight: IdTable<SimTime>,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
}

impl Probe {
    /// A probe with the given configuration.
    pub fn new(cfg: ProbeConfig) -> Probe {
        Probe {
            cfg,
            ..Probe::default()
        }
    }

    /// Whether any recording happens at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration this probe was built with.
    pub fn config(&self) -> ProbeConfig {
        self.cfg
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    fn hop(&mut self, name: &'static str, dt: SimDuration) {
        self.hops
            .entry(name)
            .or_insert_with(Histogram::latency)
            .record(dt.as_nanos());
    }

    fn depth(&mut self, key: Key, now: SimTime, depth: u64) {
        self.depths
            .entry(key)
            .or_insert_with(DepthTrack::new)
            .set(now, depth);
    }

    fn busy(&mut self, key: Key, now: SimTime, busy: bool) {
        let tracker = self
            .busy
            .entry(key)
            .or_insert_with(|| BusyTracker::new(SimTime::ZERO));
        if busy {
            tracker.set_busy(now);
        } else {
            tracker.set_idle(now);
        }
    }

    fn trace_event(&mut self, now: SimTime, req: u64, stage: &'static str) {
        if self.cfg.trace_capacity == 0 {
            return;
        }
        if self.trace.len() < self.cfg.trace_capacity {
            self.trace.push(TraceEvent {
                at: now,
                req,
                stage,
            });
        } else {
            self.trace_dropped += 1;
        }
    }

    fn mark(&mut self, now: SimTime, req: u64, stage: &'static str) {
        self.trace_event(now, req, stage);
        if let Some(prev) = self.inflight.insert(req, now) {
            self.hop(stage, now.saturating_duration_since(prev));
        }
    }

    fn finish(&mut self, now: SimTime, req: u64, stage: &'static str) {
        self.trace_event(now, req, stage);
        if let Some(prev) = self.inflight.remove(req) {
            self.hop(stage, now.saturating_duration_since(prev));
        }
    }

    /// Condense everything recorded so far into a [`StageReport`].
    ///
    /// `now` closes all open gauge/busy intervals (normally the run
    /// horizon). The trace buffer is drained into the report.
    pub fn report(&mut self, now: SimTime) -> StageReport {
        let window = now.saturating_duration_since(SimTime::ZERO);
        let mut names: Vec<Key> = self
            .busy
            .keys()
            .chain(self.depths.keys())
            .copied()
            .collect();
        names.sort_unstable();
        names.dedup();
        let stages = names
            .into_iter()
            .map(|key| {
                let (utilization, transitions) = self
                    .busy
                    .get(&key)
                    .map(|b| (b.utilization(now), b.transitions()))
                    .unwrap_or((0.0, 0));
                let (mean_depth, p99_depth, peak_depth) = self
                    .depths
                    .get_mut(&key)
                    .map(|d| {
                        d.flush(now);
                        (d.tw.mean_until(now), d.hist.p99().unwrap_or(0), d.tw.peak())
                    })
                    .unwrap_or((0.0, 0, 0.0));
                StageStat {
                    name: key_label(&key),
                    utilization,
                    busy_transitions: transitions,
                    mean_depth,
                    p99_depth,
                    peak_depth,
                }
            })
            .collect();
        let hops = self
            .hops
            .iter()
            .map(|(name, h)| HopStat {
                name: (*name).to_string(),
                count: h.count(),
                mean: SimDuration::from_nanos_f64(h.mean()),
                p50: SimDuration::from_nanos(h.p50().unwrap_or(0)),
                p99: SimDuration::from_nanos(h.p99().unwrap_or(0)),
                max: SimDuration::from_nanos(h.max().unwrap_or(0)),
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        let mut trace = std::mem::take(&mut self.trace);
        trace.sort_by_key(|e| (e.at, e.req));
        StageReport {
            window,
            stages,
            hops,
            counters,
            trace,
            trace_dropped: self.trace_dropped,
            in_flight: self.inflight.len() as u64,
        }
    }
}

/// The per-event recording surface handed to models by
/// [`Ctx::probe`](crate::Ctx::probe). Every method is a no-op when the
/// probe is disabled.
pub struct ProbeHandle<'a> {
    now: SimTime,
    probe: Option<&'a mut Probe>,
}

impl<'a> ProbeHandle<'a> {
    /// A handle at virtual time `now`. `None` means recording is off.
    pub fn new(now: SimTime, probe: Option<&'a mut Probe>) -> ProbeHandle<'a> {
        ProbeHandle { now, probe }
    }

    /// Whether recording is live (lets callers skip expensive derivation
    /// of values that would only feed the probe).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn count(&mut self, name: &'static str) {
        self.count_n(name, 1);
    }

    /// Increment counter `name` by `n`.
    #[inline]
    pub fn count_n(&mut self, name: &'static str, n: u64) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.count_n(name, n);
        }
    }

    /// Record one latency sample for hop `name`.
    #[inline]
    pub fn hop(&mut self, name: &'static str, dt: SimDuration) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.hop(name, dt);
        }
    }

    /// Record the instantaneous depth of queue `name`.
    #[inline]
    pub fn depth(&mut self, name: &'static str, depth: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth((name, None), self.now, depth as u64);
        }
    }

    /// Record the depth of instance `index` of queue `name`
    /// (e.g. worker 3's VF ring: `depth_i("worker.ring", 3, n)`).
    #[inline]
    pub fn depth_i(&mut self, name: &'static str, index: usize, depth: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth((name, Some(index as u32)), self.now, depth as u64);
        }
    }

    /// Record stage `name` entering (`true`) or leaving (`false`) its
    /// busy state. Transitions are idempotent.
    #[inline]
    pub fn busy(&mut self, name: &'static str, busy: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.busy((name, None), self.now, busy);
        }
    }

    /// Per-instance variant of [`busy`](Self::busy).
    #[inline]
    pub fn busy_i(&mut self, name: &'static str, index: usize, busy: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.busy((name, Some(index as u32)), self.now, busy);
        }
    }

    /// Mark request `req` crossing into `stage`, recording the time since
    /// its previous mark as one sample of hop `stage`. The first mark of
    /// a request starts its chain without recording a hop.
    #[inline]
    pub fn mark(&mut self, req: u64, stage: &'static str) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.mark(self.now, req, stage);
        }
    }

    /// Final mark of a request's chain; records the last hop and forgets
    /// the request.
    #[inline]
    pub fn finish(&mut self, req: u64, stage: &'static str) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.finish(self.now, req, stage);
        }
    }
}

/// Per-stage occupancy statistics over a run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStat {
    /// Stage name (instance index rendered as `name[i]`).
    pub name: String,
    /// Fraction of the run the stage was busy.
    pub utilization: f64,
    /// Number of busy/idle transitions (a proxy for wake-up frequency).
    pub busy_transitions: u64,
    /// Time-weighted mean queue depth.
    pub mean_depth: f64,
    /// Depth the queue sat at (or above) during the worst 1% of time.
    pub p99_depth: u64,
    /// Peak instantaneous depth.
    pub peak_depth: f64,
}

/// Latency distribution of one hop (one inter-mark interval or one
/// explicitly-recorded duration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopStat {
    /// Hop name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Worst observed latency.
    pub max: SimDuration,
}

/// Everything the probe layer learned about one run, attached to
/// `RunMetrics` when probing is enabled.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StageReport {
    /// Length of the observation window (run horizon).
    pub window: SimDuration,
    /// Per-stage occupancy, sorted by name.
    pub stages: Vec<StageStat>,
    /// Per-hop latency, sorted by name.
    pub hops: Vec<HopStat>,
    /// Named event counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-request event trace (empty unless `trace_capacity > 0`).
    pub trace: Vec<TraceEvent>,
    /// Trace events dropped after the capacity was reached.
    pub trace_dropped: u64,
    /// Requests whose mark chain was still open at the horizon.
    pub in_flight: u64,
}

impl StageReport {
    /// Look up a counter by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Look up a hop by name.
    pub fn hop(&self, name: &str) -> Option<&HopStat> {
        self.hops.iter().find(|h| h.name == name)
    }

    /// Look up a stage by rendered name (`"qm"`, `"worker.ring[3]"`).
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The hops forming the per-request latency chain, in name order
    /// (chain hops are conventionally numbered: `path.0_...`).
    pub fn chain_hops(&self) -> impl Iterator<Item = &HopStat> {
        self.hops
            .iter()
            .filter(|h| h.name.starts_with(CHAIN_PREFIX))
    }

    /// Sum of mean latencies over the chain hops. When every request
    /// traverses the same chain this telescopes to the mean end-to-end
    /// sojourn time, reconciling the stage breakdown against the
    /// client-observed latency.
    pub fn chain_mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.chain_hops().map(|h| h.mean.as_nanos()).sum())
    }
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stage report over {} window", self.window)?;
        if !self.stages.is_empty() {
            writeln!(
                f,
                "  {:<24} {:>6} {:>7} {:>10} {:>9} {:>9}",
                "stage", "util", "wakeups", "mean_depth", "p99_depth", "peak"
            )?;
            for s in &self.stages {
                writeln!(
                    f,
                    "  {:<24} {:>5.1}% {:>7} {:>10.3} {:>9} {:>9.0}",
                    s.name,
                    s.utilization * 100.0,
                    s.busy_transitions,
                    s.mean_depth,
                    s.p99_depth,
                    s.peak_depth
                )?;
            }
        }
        if !self.hops.is_empty() {
            writeln!(
                f,
                "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10}",
                "hop", "count", "mean", "p50", "p99", "max"
            )?;
            for h in &self.hops {
                writeln!(
                    f,
                    "  {:<24} {:>9} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    h.mean.to_string(),
                    h.p50.to_string(),
                    h.p99.to_string(),
                    h.max.to_string()
                )?;
            }
            writeln!(f, "  chain sum (mean): {}", self.chain_mean())?;
        }
        for (name, v) in &self.counters {
            writeln!(f, "  counter {name} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = Probe::new(ProbeConfig::disabled());
        {
            let mut h = ProbeHandle::new(us(1), None);
            assert!(!h.enabled());
            h.count("x");
            h.mark(1, "path.a");
            h.depth("q", 5);
        }
        let r = p.report(us(10));
        assert!(r.stages.is_empty());
        assert!(r.hops.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut p = Probe::new(ProbeConfig::enabled());
        {
            let mut h = ProbeHandle::new(us(0), Some(&mut p));
            h.count("a");
            h.count_n("a", 2);
            h.count("b");
        }
        let r = p.report(us(1));
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn mark_chain_telescopes_to_sojourn() {
        let mut p = Probe::new(ProbeConfig::enabled());
        // Request 7: send at 10us, parse at 12us, run at 15us, done at 20us.
        ProbeHandle::new(us(10), Some(&mut p)).mark(7, "path.0_send");
        ProbeHandle::new(us(12), Some(&mut p)).mark(7, "path.1_parse");
        ProbeHandle::new(us(15), Some(&mut p)).mark(7, "path.2_run");
        ProbeHandle::new(us(20), Some(&mut p)).finish(7, "path.3_done");
        let r = p.report(us(20));
        // First mark records no hop; the three following hops sum to the
        // 10us sojourn.
        assert_eq!(r.hop("path.0_send"), None);
        assert_eq!(
            r.hop("path.1_parse").unwrap().mean,
            SimDuration::from_micros(2)
        );
        assert_eq!(r.chain_mean(), SimDuration::from_micros(10));
        assert_eq!(r.in_flight, 0);
    }

    #[test]
    fn depth_gauge_time_weights() {
        let mut p = Probe::new(ProbeConfig::enabled());
        ProbeHandle::new(us(0), Some(&mut p)).depth("q", 0);
        ProbeHandle::new(us(2), Some(&mut p)).depth("q", 4);
        ProbeHandle::new(us(8), Some(&mut p)).depth("q", 1);
        let r = p.report(us(10));
        let s = r.stage("q").unwrap();
        // (0*2 + 4*6 + 1*2) / 10 = 2.6
        assert!((s.mean_depth - 2.6).abs() < 1e-9, "mean {}", s.mean_depth);
        assert_eq!(s.peak_depth, 4.0);
        // Depth 4 held for 6 of 10 us: p99 over time is 4.
        assert_eq!(s.p99_depth, 4);
    }

    #[test]
    fn busy_tracker_reports_utilization() {
        let mut p = Probe::new(ProbeConfig::enabled());
        ProbeHandle::new(us(2), Some(&mut p)).busy("net", true);
        ProbeHandle::new(us(7), Some(&mut p)).busy("net", false);
        let r = p.report(us(10));
        let s = r.stage("net").unwrap();
        assert!((s.utilization - 0.5).abs() < 1e-9);
        assert_eq!(s.busy_transitions, 2, "one rise and one fall");
    }

    #[test]
    fn instances_render_with_index() {
        let mut p = Probe::new(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).depth_i("worker.ring", 3, 2);
        ProbeHandle::new(us(1), Some(&mut p)).busy_i("worker", 0, true);
        let r = p.report(us(2));
        assert!(r.stage("worker.ring[3]").is_some());
        assert!(r.stage("worker[0]").is_some());
    }

    #[test]
    fn trace_is_bounded_and_ordered() {
        let mut p = Probe::new(ProbeConfig::with_trace(3));
        ProbeHandle::new(us(3), Some(&mut p)).mark(2, "path.b");
        ProbeHandle::new(us(1), Some(&mut p)).mark(1, "path.a");
        ProbeHandle::new(us(4), Some(&mut p)).mark(3, "path.c");
        ProbeHandle::new(us(5), Some(&mut p)).mark(4, "path.d");
        let r = p.report(us(10));
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace_dropped, 1);
        assert_eq!(r.trace[0].req, 1, "sorted by time");
        assert!(r.trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn report_renders_as_table() {
        let mut p = Probe::new(ProbeConfig::enabled());
        ProbeHandle::new(us(1), Some(&mut p)).count("net.frames");
        ProbeHandle::new(us(1), Some(&mut p)).mark(1, "path.0_send");
        ProbeHandle::new(us(2), Some(&mut p)).finish(1, "path.1_done");
        let text = p.report(us(2)).to_string();
        assert!(text.contains("net.frames"));
        assert!(text.contains("path.1_done"));
        assert!(text.contains("chain sum"));
    }
}
