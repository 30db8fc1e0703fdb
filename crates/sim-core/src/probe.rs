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
//!   [`Model`](crate::Model) can call `ctx.probe().count(&self.enqueued)`
//!   without a change to its `handle` signature.
//! * Every recording method is a no-op returning immediately when the
//!   probe is disabled — a disabled run is behaviourally and numerically
//!   identical to a run compiled without any instrumentation.
//! * A model registers its keys once, at construction: [`Probe::counter`],
//!   [`Probe::gauge`], [`Probe::busy`] and [`Probe::hop`] hand out small
//!   `Copy` handles ([`Counter`], [`Gauge`], [`Busy`], [`Hop`]) that carry
//!   a `&'static str` name and a dense id. An indexed family
//!   (`worker.ring[i]`, `worker[i]`) is one registration, a base id plus an
//!   index ([`Probe::gauge_family`], [`Family::at`]). Registering only
//!   counts ids: it allocates nothing and creates no row.
//! * Each kind of record lives in one table of rows. A handle's first
//!   record finds or creates the row of its `(name, instance)` and
//!   remembers it under its id, so every later record is a vector index:
//!   the hot path neither allocates nor compares strings.
//! * Recording methods take a handle by reference (`count(&self.sent)`),
//!   a family instance (`depth(self.ring.at(w), n)`), or a bare
//!   `&'static str`, so ad-hoc callers still write `count("x")` or
//!   `depth_i("q", 3, n)` (see [`IntoHandle`]). A bare name is looked up
//!   on every call, in the same table: a handle and a name (or two
//!   handles) that say the same `(name, instance)` record into one row.
//! * The report lists rows by `(name, instance)`, so it depends neither on
//!   registration order nor on the order in which rows were first used.
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
use std::marker::PhantomData;

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

/// The name a row reports under: a static name plus an optional instance
/// index (worker id, group id, RX queue id, ...).
type Name = (&'static str, Option<u32>);

fn label(name: &Name) -> String {
    match name.1 {
        Some(i) => format!("{}[{}]", name.0, i),
        None => name.0.to_string(),
    }
}

/// The id of a key made from a bare name: it has no route and is looked
/// up by name on every record.
const UNROUTED: u32 = u32::MAX;

/// What every handle carries: its row's name and the id it was registered
/// under ([`UNROUTED`] when it was made from a bare name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    name: Name,
    id: u32,
}

impl Key {
    fn named(name: &'static str, instance: Option<u32>) -> Key {
        Key {
            name: (name, instance),
            id: UNROUTED,
        }
    }
}

/// A registered event counter (see [`Probe::counter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(Key);

/// A registered queue-depth gauge (see [`Probe::gauge`] and
/// [`Probe::gauge_family`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge(Key);

/// A registered busy/idle tracker (see [`Probe::busy`] and
/// [`Probe::busy_family`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy(Key);

/// A registered latency hop, recorded directly or by the mark chain (see
/// [`Probe::hop`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop(Key);

/// What a [`ProbeHandle`] method records under: a registered handle `&H`,
/// a family instance ([`Family::at`]), or a bare `&'static str` name for
/// ad-hoc callers, looked up by name on every call.
///
/// Handles are taken by reference, not by value, so that a model's call
/// site reads the 32-byte key only inside the probe-on branch: passed by
/// value, the key was copied before the branch at every site, which
/// slowed probe-off runs measurably.
pub trait IntoHandle<H> {
    /// The handle to record under.
    fn into_handle(self) -> H;
}

macro_rules! handle_conversions {
    ($($handle:ident),*) => {$(
        impl IntoHandle<$handle> for &$handle {
            #[inline]
            fn into_handle(self) -> $handle {
                *self
            }
        }

        impl IntoHandle<$handle> for &'static str {
            #[inline]
            fn into_handle(self) -> $handle {
                $handle(Key::named(self, None))
            }
        }
    )*};
}

handle_conversions!(Counter, Gauge, Busy, Hop);

/// Instance `index` of a [`Family`] (see [`Family::at`]), made into its
/// handle only when the probe records.
#[derive(Clone, Copy, Debug)]
pub struct At<'a, H> {
    family: &'a Family<H>,
    index: u32,
}

impl<H> At<'_, H> {
    fn key(&self) -> Key {
        Key {
            name: (self.family.name, Some(self.index)),
            id: self.family.base + self.index,
        }
    }
}

impl IntoHandle<Gauge> for At<'_, Gauge> {
    #[inline]
    fn into_handle(self) -> Gauge {
        Gauge(self.key())
    }
}

impl IntoHandle<Busy> for At<'_, Busy> {
    #[inline]
    fn into_handle(self) -> Busy {
        Busy(self.key())
    }
}

/// `len` gauges or busy trackers sharing one name, one per instance, that
/// report as `name[i]`: a base id plus an index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family<H> {
    name: &'static str,
    base: u32,
    len: u32,
    kind: PhantomData<H>,
}

impl<H> Family<H> {
    /// Instance `index`, which reports as `name[index]`.
    #[inline]
    pub fn at(&self, index: usize) -> At<'_, H> {
        debug_assert!(
            index < self.len as usize,
            "{}[{index}] is outside its family of {}",
            self.name,
            self.len
        );
        At {
            family: self,
            index: index as u32,
        }
    }
}

/// One kind of record (counters, gauges, busy trackers or hops): a row per
/// distinct name, created the first time the name is recorded.
#[derive(Debug)]
struct Rows<T> {
    /// Each row's record, in first-use order.
    rows: Vec<T>,
    /// The row of every name recorded so far, in report order.
    by_name: BTreeMap<Name, u32>,
    /// The row of every registered id that has recorded, [`UNROUTED`]
    /// for the others; grows on first use, never at registration.
    route: Vec<u32>,
    /// Ids handed out so far.
    ids: u32,
}

impl<T> Default for Rows<T> {
    fn default() -> Rows<T> {
        Rows {
            rows: Vec::new(),
            by_name: BTreeMap::new(),
            route: Vec::new(),
            ids: 0,
        }
    }
}

impl<T> Rows<T> {
    /// Hand out `n` consecutive ids, returning the first.
    fn reserve(&mut self, n: usize) -> u32 {
        let base = self.ids;
        self.ids = u32::try_from(n)
            .ok()
            .and_then(|n| base.checked_add(n))
            .filter(|&end| end < UNROUTED)
            .expect("probe key ids exhausted");
        base
    }

    /// The record of `key`, created by `new` on the name's first use.
    #[inline]
    fn get(&mut self, key: Key, new: fn() -> T) -> &mut T {
        let row = match self.route.get(key.id as usize) {
            Some(&row) if row != UNROUTED => row,
            _ => self.resolve(key, new),
        };
        debug_assert_eq!(
            self.by_name.get(&key.name),
            Some(&row),
            "probe key id {} routes to another name: was it registered on another probe?",
            key.id
        );
        &mut self.rows[row as usize]
    }

    /// Find or create the row of `key`'s name, and route a registered id
    /// to it.
    fn resolve(&mut self, key: Key, new: fn() -> T) -> u32 {
        let row = match self.by_name.get(&key.name) {
            Some(&row) => row,
            None => {
                let row = self.rows.len() as u32;
                self.rows.push(new());
                self.by_name.insert(key.name, row);
                row
            }
        };
        if key.id != UNROUTED {
            let id = key.id as usize;
            if self.route.len() <= id {
                self.route.resize(id + 1, UNROUTED);
            }
            self.route[id] = row;
        }
        row
    }

    /// The record of `name`, if it was ever recorded.
    fn find(&mut self, name: &Name) -> Option<&mut T> {
        let row = *self.by_name.get(name)?;
        Some(&mut self.rows[row as usize])
    }

    /// Every row in report order: by name, then instance.
    fn sorted(&self) -> impl Iterator<Item = (&Name, &T)> {
        self.by_name
            .iter()
            .map(|(name, &row)| (name, &self.rows[row as usize]))
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
    counters: Rows<u64>,
    depths: Rows<DepthTrack>,
    busy: Rows<BusyTracker>,
    hops: Rows<Histogram>,
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

    /// Register counter `name`. Its row appears on its first count.
    pub fn counter(&mut self, name: &'static str) -> Counter {
        Counter(Key {
            name: (name, None),
            id: self.counters.reserve(1),
        })
    }

    /// Register queue-depth gauge `name`.
    pub fn gauge(&mut self, name: &'static str) -> Gauge {
        Gauge(Key {
            name: (name, None),
            id: self.depths.reserve(1),
        })
    }

    /// Register gauges `name[0]` to `name[len - 1]`, one per instance.
    pub fn gauge_family(&mut self, name: &'static str, len: usize) -> Family<Gauge> {
        Family {
            name,
            base: self.depths.reserve(len),
            len: len as u32,
            kind: PhantomData,
        }
    }

    /// Register busy tracker `name`.
    pub fn busy(&mut self, name: &'static str) -> Busy {
        Busy(Key {
            name: (name, None),
            id: self.busy.reserve(1),
        })
    }

    /// Register busy trackers `name[0]` to `name[len - 1]`, one per
    /// instance.
    pub fn busy_family(&mut self, name: &'static str, len: usize) -> Family<Busy> {
        Family {
            name,
            base: self.busy.reserve(len),
            len: len as u32,
            kind: PhantomData,
        }
    }

    /// Register hop `name`, for direct samples or for the mark chain.
    pub fn hop(&mut self, name: &'static str) -> Hop {
        Hop(Key {
            name: (name, None),
            id: self.hops.reserve(1),
        })
    }

    // The recorders stay out of line (not generic, not `#[inline]`), so a
    // model's handler carries one call per probe site, not the recording
    // code: a disabled probe costs only the branch around the call.

    fn record_count(&mut self, counter: Counter, n: u64) {
        *self.counters.get(counter.0, || 0) += n;
    }

    fn record_depth(&mut self, gauge: Gauge, now: SimTime, depth: u64) {
        self.depths.get(gauge.0, DepthTrack::new).set(now, depth);
    }

    fn record_busy(&mut self, busy: Busy, now: SimTime, is_busy: bool) {
        let tracker = self.busy.get(busy.0, || BusyTracker::new(SimTime::ZERO));
        if is_busy {
            tracker.set_busy(now);
        } else {
            tracker.set_idle(now);
        }
    }

    fn record_hop(&mut self, hop: Hop, dt: SimDuration) {
        self.hops
            .get(hop.0, Histogram::latency)
            .record(dt.as_nanos());
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

    fn mark(&mut self, now: SimTime, req: u64, stage: Hop) {
        self.trace_event(now, req, stage.0.name.0);
        if let Some(prev) = self.inflight.insert(req, now) {
            self.record_hop(stage, now.saturating_duration_since(prev));
        }
    }

    fn finish(&mut self, now: SimTime, req: u64, stage: Hop) {
        self.trace_event(now, req, stage.0.name.0);
        if let Some(prev) = self.inflight.remove(req) {
            self.record_hop(stage, now.saturating_duration_since(prev));
        }
    }

    /// Condense everything recorded so far into a [`StageReport`].
    ///
    /// `now` closes all open gauge/busy intervals (normally the run
    /// horizon). The trace buffer is drained into the report.
    pub fn report(&mut self, now: SimTime) -> StageReport {
        let window = now.saturating_duration_since(SimTime::ZERO);
        let mut names: Vec<Name> = self
            .busy
            .by_name
            .keys()
            .chain(self.depths.by_name.keys())
            .copied()
            .collect();
        names.sort_unstable();
        names.dedup();
        let stages = names
            .into_iter()
            .map(|name| {
                let (utilization, transitions) = self
                    .busy
                    .find(&name)
                    .map(|b| (b.utilization(now), b.transitions()))
                    .unwrap_or((0.0, 0));
                let (mean_depth, p99_depth, peak_depth) = self
                    .depths
                    .find(&name)
                    .map(|d| {
                        d.flush(now);
                        (d.tw.mean_until(now), d.hist.p99().unwrap_or(0), d.tw.peak())
                    })
                    .unwrap_or((0.0, 0, 0.0));
                StageStat {
                    name: label(&name),
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
            .sorted()
            .map(|(name, h)| HopStat {
                name: name.0.to_string(),
                count: h.count(),
                mean: SimDuration::from_nanos_f64(h.mean()),
                p50: SimDuration::from_nanos(h.p50().unwrap_or(0)),
                p99: SimDuration::from_nanos(h.p99().unwrap_or(0)),
                max: SimDuration::from_nanos(h.max().unwrap_or(0)),
            })
            .collect();
        let counters = self
            .counters
            .sorted()
            .map(|(name, v)| (name.0.to_string(), *v))
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
/// probe is disabled. Each takes a registered handle or, for ad-hoc
/// callers, a bare `&'static str` name.
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

    /// Increment `counter` by one.
    #[inline]
    pub fn count(&mut self, counter: impl IntoHandle<Counter>) {
        self.count_n(counter, 1);
    }

    /// Increment `counter` by `n`.
    #[inline]
    pub fn count_n(&mut self, counter: impl IntoHandle<Counter>, n: u64) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_count(counter.into_handle(), n);
        }
    }

    /// Record one latency sample for `hop`.
    #[inline]
    pub fn hop(&mut self, hop: impl IntoHandle<Hop>, dt: SimDuration) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_hop(hop.into_handle(), dt);
        }
    }

    /// Record the instantaneous depth of the queue `gauge` watches.
    #[inline]
    pub fn depth(&mut self, gauge: impl IntoHandle<Gauge>, depth: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_depth(gauge.into_handle(), self.now, depth as u64);
        }
    }

    /// Record the depth of instance `index` of queue `name`, looked up by
    /// name (e.g. worker 3's VF ring: `depth_i("worker.ring", 3, n)`).
    #[inline]
    pub fn depth_i(&mut self, name: &'static str, index: usize, depth: usize) {
        self.depth(&Gauge(Key::named(name, Some(index as u32))), depth);
    }

    /// Record the stage `busy` tracks entering (`true`) or leaving
    /// (`false`) its busy state. Transitions are idempotent.
    #[inline]
    pub fn busy(&mut self, busy: impl IntoHandle<Busy>, is_busy: bool) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_busy(busy.into_handle(), self.now, is_busy);
        }
    }

    /// Per-instance variant of [`busy`](Self::busy), looked up by name.
    #[inline]
    pub fn busy_i(&mut self, name: &'static str, index: usize, is_busy: bool) {
        self.busy(&Busy(Key::named(name, Some(index as u32))), is_busy);
    }

    /// Mark request `req` crossing into `stage`, recording the time since
    /// its previous mark as one sample of hop `stage`. The first mark of
    /// a request starts its chain without recording a hop.
    #[inline]
    pub fn mark(&mut self, req: u64, stage: impl IntoHandle<Hop>) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.mark(self.now, req, stage.into_handle());
        }
    }

    /// Final mark of a request's chain; records the last hop and forgets
    /// the request.
    #[inline]
    pub fn finish(&mut self, req: u64, stage: impl IntoHandle<Hop>) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.finish(self.now, req, stage.into_handle());
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

    #[test]
    fn a_handle_and_its_name_share_one_row() {
        let mut p = Probe::new(ProbeConfig::enabled());
        let sent = p.counter("client.sent");
        let ring = p.gauge_family("worker.ring", 4);
        let worker = p.busy_family("worker", 4);
        let parse = p.hop("path.1_parse");
        {
            let mut h = ProbeHandle::new(us(0), Some(&mut p));
            h.count(&sent);
            h.count("client.sent");
            h.depth(ring.at(3), 2);
            h.busy(worker.at(1), true);
            h.mark(9, "path.0_send");
        }
        {
            let mut h = ProbeHandle::new(us(4), Some(&mut p));
            h.depth_i("worker.ring", 3, 0);
            h.busy_i("worker", 1, false);
            h.mark(9, &parse);
            h.mark(10, "path.0_send");
        }
        ProbeHandle::new(us(6), Some(&mut p)).mark(10, "path.1_parse");
        let r = p.report(us(8));
        assert_eq!(r.counters, vec![("client.sent".to_string(), 2)]);
        let names: Vec<&str> = r.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["worker[1]", "worker.ring[3]"]);
        assert_eq!(r.stage("worker[1]").unwrap().busy_transitions, 2);
        assert_eq!(r.stage("worker.ring[3]").unwrap().peak_depth, 2.0);
        assert_eq!(r.hops.len(), 1);
        assert_eq!(r.hop("path.1_parse").unwrap().count, 2);
    }

    /// Record the same things on a probe that registers its keys in
    /// `order` and first uses them in the reverse order.
    fn recorded(order: &[&'static str]) -> StageReport {
        let mut p = Probe::new(ProbeConfig::enabled());
        let keys: Vec<(Counter, Gauge, Busy, Hop)> = order
            .iter()
            .map(|&n| (p.counter(n), p.gauge(n), p.busy(n), p.hop(n)))
            .collect();
        for (&name, &(c, g, b, hop)) in order.iter().zip(&keys).rev() {
            // What a name records depends on the name alone.
            let v = u64::from(name.as_bytes()[0] - b'a') + 1;
            let mut h = ProbeHandle::new(us(v), Some(&mut p));
            h.count_n(&c, v);
            h.depth(&g, v as usize);
            h.busy(&b, true);
            h.hop(&hop, SimDuration::from_micros(v));
        }
        p.report(us(10))
    }

    #[test]
    fn report_order_ignores_registration_and_first_use_order() {
        let forward = recorded(&["c", "a", "b"]);
        assert_eq!(forward, recorded(&["b", "c", "a"]));
        let names: Vec<&str> = forward.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        let hops: Vec<&str> = forward.hops.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hops, ["a", "b", "c"]);
        let counters: Vec<&str> = forward.counters.iter().map(|c| c.0.as_str()).collect();
        assert_eq!(counters, ["a", "b", "c"]);
    }

    #[test]
    fn instances_sort_after_the_bare_name_and_by_index() {
        let mut p = Probe::new(ProbeConfig::enabled());
        let q = p.gauge_family("q", 12);
        let bare = p.gauge("q");
        let mut h = ProbeHandle::new(us(1), Some(&mut p));
        h.depth(q.at(10), 1);
        h.depth(q.at(2), 1);
        h.depth(&bare, 1);
        let names: Vec<String> = p.report(us(2)).stages.into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["q", "q[2]", "q[10]"]);
    }

    #[test]
    fn registering_on_a_disabled_probe_records_and_allocates_nothing() {
        let mut p = Probe::new(ProbeConfig::disabled());
        let c = p.counter("a");
        let g = p.gauge_family("q", 64);
        let b = p.busy("net");
        let hop = p.hop("path.1");
        {
            // A disabled engine hands models a probe handle without a probe.
            let mut h = ProbeHandle::new(us(1), None);
            h.count(&c);
            h.depth(g.at(63), 3);
            h.busy(&b, true);
            h.mark(1, &hop);
        }
        for (rows, routes) in [
            (p.counters.rows.capacity(), p.counters.route.capacity()),
            (p.depths.rows.capacity(), p.depths.route.capacity()),
            (p.busy.rows.capacity(), p.busy.route.capacity()),
            (p.hops.rows.capacity(), p.hops.route.capacity()),
        ] {
            assert_eq!((rows, routes), (0, 0), "registration allocated");
        }
        let r = p.report(us(10));
        assert!(r.stages.is_empty() && r.hops.is_empty() && r.counters.is_empty());
    }

    #[test]
    fn registration_creates_no_row_until_first_use() {
        let mut p = Probe::new(ProbeConfig::enabled());
        let used = p.counter("used");
        p.counter("never");
        p.busy_family("idle", 8);
        ProbeHandle::new(us(1), Some(&mut p)).count(&used);
        let r = p.report(us(2));
        assert_eq!(r.counters, vec![("used".to_string(), 1)]);
        assert!(r.stages.is_empty());
    }

    #[test]
    fn two_handles_claiming_one_name_share_one_row() {
        let mut p = Probe::new(ProbeConfig::enabled());
        let (a, b) = (p.counter("x"), p.counter("x"));
        let (f, g) = (p.busy_family("w", 2), p.busy_family("w", 4));
        {
            let mut h = ProbeHandle::new(us(1), Some(&mut p));
            h.count(&a);
            h.count(&b);
            h.busy(f.at(1), true);
        }
        ProbeHandle::new(us(3), Some(&mut p)).busy(g.at(1), false);
        let r = p.report(us(4));
        assert_eq!(r.counters, vec![("x".to_string(), 2)]);
        assert_eq!(r.stages.len(), 1, "w[1] is one row, not two");
        let w1 = r.stage("w[1]").unwrap();
        assert_eq!(w1.busy_transitions, 2);
        assert!((w1.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "registered on another probe")]
    fn a_handle_from_another_probe_is_caught() {
        let mut other = Probe::new(ProbeConfig::enabled());
        let stray = other.counter("stray");
        let mut p = Probe::new(ProbeConfig::enabled());
        let own = p.counter("own");
        let mut h = ProbeHandle::new(us(1), Some(&mut p));
        h.count(&own);
        h.count(&stray); // the same id as `own`, under another name
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its family")]
    fn an_instance_outside_its_family_is_caught() {
        let mut p = Probe::new(ProbeConfig::enabled());
        p.gauge_family("q", 2).at(2);
    }
}
