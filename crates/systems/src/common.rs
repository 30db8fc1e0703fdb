//! Plumbing shared by every system assembly: the one run harness
//! ([`Assembly`] and [`run`]), addressing conventions, the open-loop client
//! (with its reliability layer), the resilience configuration every
//! assembly accepts, the stale-feedback governor, the lossy client↔server
//! wire with the codec check every frame passes, the serial stage every
//! dispatcher core is built from, the host worker cores every assembly runs
//! requests on, the centralized dispatcher core Shinjuku and
//! Shinjuku-Offload share (with its staleness governor and liveness tick),
//! the client's side of every assembly's event loop, and metric assembly.

use std::collections::{BTreeSet, VecDeque};

use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec, InterruptPath};
use net_wire::ethernet::HEADER_LEN;
use net_wire::{
    Endpoint, EthernetAddress, FrameHeader, FrameSpec, Ipv4Address, MsgKind, MsgRepr, ParsedFrame,
};
use nic_model::{Link, Ring};
use nicsched::{
    Assignment, CoreFeedback, CoreSelector, Dispatcher, FeedbackChannel, PreemptDecision,
    SchedPolicy, Task,
};
use sim_core::faults::FaultConfig;
use sim_core::probe::{Busy, Counter, Family, Gauge, Hop, ProbeHandle};
use sim_core::{
    Ctx, Engine, IdTable, InvariantChecker, InvariantConfig, Model, Probe, ProbeConfig, Rng,
    SimDuration, SimTime,
};
use workload::{
    ArrivalGen, ArrivalProcess, FaultMetrics, LatencyRecorder, ReqClass, RetryPolicy, RunMetrics,
    WorkloadSpec,
};

/// When the dispatcher's view of workers goes stale enough to be dead
/// data, stop steering on it: degrade to RSS-style hashing, and
/// quarantine individual workers that have been silent even longer (a
/// crashed worker must not keep receiving work until its ring drops it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalenessPolicy {
    /// Staleness beyond which the *majority-stale* dispatcher falls back
    /// to hashed selection.
    pub degrade_after: SimDuration,
    /// Per-worker staleness beyond which the worker is quarantined from
    /// selection entirely.
    pub quarantine_after: SimDuration,
    /// Interval between worker liveness heartbeats on the feedback path.
    pub heartbeat: SimDuration,
}

impl StalenessPolicy {
    /// Defaults scaled to the paper's 2.56 µs PCIe feedback gap: workers
    /// heartbeat every 5 µs, the dispatcher tolerates ~5 missed
    /// heartbeats before degrading and ~3× that before quarantining.
    pub fn paper_default() -> StalenessPolicy {
        StalenessPolicy {
            degrade_after: SimDuration::from_micros(25),
            quarantine_after: SimDuration::from_micros(75),
            heartbeat: SimDuration::from_micros(5),
        }
    }
}

/// Cross-assembly fault/reliability configuration, deliberately separate
/// from each assembly's own config struct: [`ServerSystem::run`] is
/// [`ServerSystem::run_resilient`] with `ResilienceConfig::default()`.
///
/// [`ServerSystem::run`]: crate::ServerSystem::run
/// [`ServerSystem::run_resilient`]: crate::ServerSystem::run_resilient
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceConfig {
    /// Timed fault events (loss, crashes, stalls, blackouts).
    pub faults: FaultConfig,
    /// Client-side timeout/retry policy (`None` = fire-and-forget).
    pub retry: Option<RetryPolicy>,
    /// Stale-feedback fallback policy for informed dispatchers.
    pub fallback: Option<StalenessPolicy>,
    /// NIC-side failure detection and orphan re-dispatch: the dispatcher
    /// tracks per-worker leases and reclaims in-flight requests from
    /// suspected workers instead of waiting for the client's retry
    /// timeout. `None` keeps runs bit-identical to the pre-recovery path
    /// (no heartbeat frames, no health ticks).
    pub recovery: Option<nicsched::RecoveryPolicy>,
    /// Runtime invariant checking (the "invcheck" pass): engine
    /// causality/FIFO audits, per-event model self-audits, and end-of-run
    /// conservation checks. Enabled runs are bit-identical to plain runs
    /// and panic with a full violation report if any invariant breaks.
    pub invariants: InvariantConfig,
}

impl ResilienceConfig {
    /// The ISSUE-2 acceptance scenario: 1% wire loss plus a mid-run crash
    /// of `worker` at `at`, with retries and the staleness fallback on.
    pub fn loss_and_crash(worker: usize, at: SimTime) -> ResilienceConfig {
        ResilienceConfig {
            faults: FaultConfig::default()
                .with_wire_loss(0.01)
                .with_crash(worker, at),
            retry: Some(RetryPolicy::paper_default()),
            fallback: Some(StalenessPolicy::paper_default()),
            ..ResilienceConfig::default()
        }
    }

    /// This configuration with NIC-side failure recovery switched on.
    pub fn with_recovery(mut self, policy: nicsched::RecoveryPolicy) -> ResilienceConfig {
        self.recovery = Some(policy);
        self
    }

    /// This configuration with runtime invariant checking switched on.
    pub fn with_invariants(mut self) -> ResilienceConfig {
        self.invariants = InvariantConfig::enabled();
        self
    }
}

/// A complete simulated server that the one harness, [`run`], can build,
/// start and read. Implemented by each assembly's model; its
/// [`Config`](Assembly::Config) is what callers hold (and run through
/// [`ServerSystem`](crate::ServerSystem)).
pub trait Assembly: Model + Sized {
    /// The assembly's configuration.
    type Config: Copy;
    /// What the assembly reports beyond [`RunMetrics`]: Shinjuku's group
    /// imbalance, a baseline's mean provisioned cores, `()` elsewhere.
    type Extra;

    /// Short stable name of the assembly `cfg` describes, for tables and
    /// CSV labels.
    fn name(cfg: &Self::Config) -> &'static str;

    /// Build the model for `spec` under `cfg` and `res`, registering its
    /// probe keys on `probe`.
    fn new(spec: WorkloadSpec, cfg: Self::Config, res: ResilienceConfig, probe: &mut Probe)
        -> Self;

    /// Schedule the run's first events: the client's first send, then
    /// whatever keeps failure detection (heartbeats, health ticks) or
    /// control loops going. An assembly without detection says why here.
    fn seed(engine: &mut Engine<Self>);

    /// The run's metrics at `horizon`, with the assembly's own fault
    /// counters filled in, and its [`Extra`](Assembly::Extra).
    fn metrics(&self, horizon: SimTime) -> (RunMetrics, Self::Extra);

    /// Record what the model still owes `probe` for instants up to
    /// `horizon` that no event visited (see `Stage::settle`), before the
    /// run's report is drawn. Most assemblies owe nothing.
    fn settle(&mut self, _horizon: SimTime, _probe: &mut ProbeHandle<'_>) {}
}

/// Run assembly `A` under `cfg` on `spec`: the one harness every assembly
/// shares. It builds the probe, engine, invariant checker and fault
/// schedule, seeds the run, runs to the horizon, counts ring drops as
/// dropped, settles what the model owes the probe and attaches the stage
/// report when `probe` is on, and
/// closes the invariant audit.
pub fn run<A: Assembly>(
    spec: WorkloadSpec,
    cfg: A::Config,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> (RunMetrics, A::Extra) {
    let mut engine = engine::<A>(spec, cfg, probe, res);
    A::seed(&mut engine);
    let horizon = spec.horizon();
    engine.run_until(horizon);
    let (mut metrics, extra) = engine.model().metrics(horizon);
    metrics.dropped += metrics.faults.ring_dropped;
    if probe.enabled {
        let mut recorder = std::mem::take(engine.probe_mut());
        let mut handle = ProbeHandle::new(horizon, Some(&mut recorder));
        engine.model_mut().settle(horizon, &mut handle);
        metrics.stages = Some(recorder.report(horizon));
    }
    close_invariants(engine.take_invariants(), horizon, &metrics);
    (metrics, extra)
}

/// Assembly `A`'s engine under `cfg` on `spec`, not yet seeded: the model
/// with its probe, invariant checker and fault schedule.
pub(crate) fn engine<A: Assembly>(
    spec: WorkloadSpec,
    cfg: A::Config,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> Engine<A> {
    let mut recorder = Probe::new(probe);
    let mut engine = Engine::new(A::new(spec, cfg, res, &mut recorder));
    engine.set_probe(recorder);
    engine.set_invariants(InvariantChecker::new(res.invariants));
    engine.set_faults(res.faults);
    engine
}

/// Add one dispatcher's recovery counters, and its governor's fallback
/// counters, to `fm`; over several dispatchers the fields sum.
pub(crate) fn absorb_dispatcher<P: SchedPolicy, S: CoreSelector>(
    fm: &mut FaultMetrics,
    disp: &Dispatcher<P, S>,
    governor: Option<&FeedbackGovernor>,
    horizon: SimTime,
) {
    if let Some(gov) = governor {
        fm.fallback_switches += gov.switches;
        fm.fallback_ns += gov.fallback_ns(horizon);
        fm.quarantines += gov.quarantines;
    }
    if let Some(h) = disp.health() {
        fm.recovered += disp.stats.recovered;
        fm.recovery_duplicates += disp.stats.late_duplicates;
        fm.suspicions += h.stats.suspicions;
        fm.readmissions += h.stats.readmissions;
    }
}

/// End-of-run conservation audit, shared by every assembly: the request
/// ledger must close (`launched = completed + abandoned + still-open`,
/// attempts itemised) and the client's bookkeeping must be self-consistent.
/// Then panic with the accumulated report if the run violated anything.
fn close_invariants(mut inv: InvariantChecker, at: SimTime, m: &RunMetrics) {
    if !inv.is_enabled() {
        return;
    }
    let f = &m.faults;
    if f.unaccounted() != 0 {
        inv.record(
            at,
            "ledger-conservation",
            format!("request ledger residue {}: {f:?}", f.unaccounted()),
        );
    }
    inv.check_bound(at, "client attempts vs launched", f.launched, f.attempts);
    inv.check_bound(at, "completions vs launches", f.completed_all, f.launched);
    inv.assert_clean();
}

/// The stale-feedback governor: watches per-worker report staleness
/// through a [`FeedbackChannel`] and drives the dispatcher's degraded /
/// quarantine switches. Owned by a [`DispatchCore`]; baselines are
/// already hash-steered and need none of this.
#[derive(Debug)]
pub(crate) struct FeedbackGovernor {
    channel: FeedbackChannel,
    policy: StalenessPolicy,
    /// When the current degraded interval began; `None` while informed.
    degraded_since: Option<SimTime>,
    quarantined: Vec<bool>,
    /// Informed→hashed transitions taken.
    pub switches: u64,
    /// Closed degraded intervals, accumulated nanoseconds.
    pub degraded_ns: u64,
    /// Quarantine events (workers excluded for silence).
    pub quarantines: u64,
}

impl FeedbackGovernor {
    /// A governor over `n_workers` workers whose feedback path has
    /// one-way `latency`.
    pub fn new(
        n_workers: usize,
        latency: SimDuration,
        policy: StalenessPolicy,
    ) -> FeedbackGovernor {
        FeedbackGovernor {
            channel: FeedbackChannel::new(n_workers, latency),
            policy,
            degraded_since: None,
            quarantined: vec![false; n_workers],
            switches: 0,
            degraded_ns: 0,
            quarantines: 0,
        }
    }

    /// Worker side: a liveness report at `now` (suppressed by the caller
    /// during blackouts, stalls and after crashes — that suppression is
    /// exactly what the governor detects).
    pub fn report(&mut self, now: SimTime, worker: usize, occupancy: u32) {
        self.channel.send(
            now,
            CoreFeedback {
                worker,
                occupancy,
                reported_at: now,
            },
        );
    }

    /// Dispatcher side: re-evaluate staleness at `now` and push the
    /// resulting degrade/quarantine switches into `disp`. Workers that
    /// have never reported count as stale since the start of the run.
    pub fn evaluate<P: SchedPolicy, S: CoreSelector>(
        &mut self,
        now: SimTime,
        disp: &mut Dispatcher<P, S>,
    ) {
        let n = self.quarantined.len();
        let mut stale = 0usize;
        for w in 0..n {
            let age = self
                .channel
                .staleness(now, w)
                .unwrap_or_else(|| now.saturating_duration_since(SimTime::ZERO));
            if age > self.policy.degrade_after {
                stale += 1;
            }
            let quarantine = age > self.policy.quarantine_after;
            if quarantine != self.quarantined[w] {
                self.quarantined[w] = quarantine;
                if quarantine {
                    self.quarantines += 1;
                }
                disp.set_excluded(w, quarantine);
            }
        }
        let degraded = stale * 2 > n;
        if degraded != self.is_degraded() {
            if degraded {
                self.switches += 1;
                self.degraded_since = Some(now);
            } else if let Some(since) = self.degraded_since.take() {
                self.degraded_ns += now.saturating_duration_since(since).as_nanos();
            }
            disp.set_degraded(degraded);
        }
    }

    /// Whether the governor currently holds the dispatcher degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Total nanoseconds spent degraded, closing any open interval at
    /// `now` (for end-of-run metrics).
    pub fn fallback_ns(&self, now: SimTime) -> u64 {
        self.degraded_ns
            + self
                .degraded_since
                .map(|s| now.saturating_duration_since(s).as_nanos())
                .unwrap_or(0)
    }
}

/// The codec edge of an assembly's request path. Hops carry typed
/// [`FrameSpec`]s, and with invariants off this only hands each one on.
/// With them on, [`FrameCodec::build`] also encodes every frame through
/// `net-wire`, parses the bytes back and compares the result with the spec
/// it came from; [`FrameCodec::check_invariants`] reports any difference.
/// Pure observation: no event, draw or output depends on it.
#[derive(Debug, Default)]
pub(crate) struct FrameCodec {
    enabled: bool,
    /// Frames encoded and parsed back.
    built: u64,
    /// Frames whose bytes parsed back equal to their spec.
    intact: u64,
}

impl FrameCodec {
    /// A codec that round-trips frames only when `res` turns invariants on.
    pub fn new(res: &ResilienceConfig) -> FrameCodec {
        FrameCodec {
            enabled: res.invariants.enabled,
            ..FrameCodec::default()
        }
    }

    /// The frame a hop carries: `spec` itself, after its byte round trip
    /// when checking.
    pub fn build(&mut self, spec: FrameSpec) -> FrameSpec {
        if self.enabled {
            let back = ParsedFrame::parse(&spec.build()).map(|p| p.to_spec());
            self.built += 1;
            self.intact += u64::from(back == Ok(spec));
        }
        spec
    }

    /// Report frames whose bytes did not parse back to their spec.
    pub fn check_invariants(&self, now: SimTime, inv: &mut InvariantChecker) {
        inv.check_conservation(
            now,
            "frames (built = parsed back unchanged)",
            self.built,
            self.intact,
        );
    }
}

/// The client↔server Ethernet every assembly shares: a 10 GbE link each
/// way, lossy at the fault schedule's i.i.d. rate.
/// It counts what it drops and schedules the arrival of what it carries.
/// Its codec check covers every frame of the assembly: the wire's own,
/// and the in-machine hops' through `codec`. It also holds the probe keys
/// of the whole client edge, since the client's event handler records
/// through the wire it sends on.
#[derive(Debug)]
pub struct Wire {
    to_server: Link,
    to_client: Link,
    /// The codec check of the assembly's frames.
    pub(crate) codec: FrameCodec,
    keys: EdgeKeys,
    /// Request frames lost on the client→server wire.
    pub req_lost: u64,
    /// Response frames lost on the server→client wire.
    pub resp_lost: u64,
}

/// The client edge's probe keys: the client's and the wire's counters,
/// and the marks that open and close every request's chain.
#[derive(Debug)]
struct EdgeKeys {
    sent: Counter,
    responses: Counter,
    retries: Counter,
    req_lost: Counter,
    resp_lost: Counter,
    send: Hop,
    response: Hop,
}

impl Wire {
    /// Both links, forking one loss stream per direction from `master`
    /// (request side first) only when `res` sets a wire loss rate. The
    /// client edge's keys go on `probe`; `response` names the assembly's
    /// final `path.N_response` mark.
    pub fn new(
        res: &ResilienceConfig,
        master: &mut Rng,
        probe: &mut Probe,
        response: &'static str,
    ) -> Wire {
        let loss = res.faults.wire_loss;
        let link = |master: &mut Rng| {
            if loss > 0.0 {
                Link::ten_gbe().with_loss(loss, master.fork())
            } else {
                Link::ten_gbe()
            }
        };
        Wire {
            to_server: link(master),
            to_client: link(master),
            codec: FrameCodec::new(res),
            keys: EdgeKeys {
                sent: probe.counter("client.sent"),
                responses: probe.counter("client.responses"),
                retries: probe.counter("client.retries"),
                req_lost: probe.counter("wire.req_lost"),
                resp_lost: probe.counter("wire.resp_lost"),
                send: probe.hop("path.0_client_send"),
                response: probe.hop(response),
            },
            req_lost: 0,
            resp_lost: 0,
        }
    }

    /// Transmit a client→server frame now and schedule its arrival at the
    /// server, unless the wire loses it.
    pub(crate) fn request<E: ClientEdge>(&mut self, spec: FrameSpec, ctx: &mut Ctx<'_, E>) {
        let spec = self.codec.build(spec);
        let len = spec.frame_len() - HEADER_LEN;
        match self.to_server.transmit_lossy(ctx.now(), len) {
            Some(at) => ctx.schedule_at(at, E::at_server(spec)),
            None => {
                self.req_lost += 1;
                ctx.probe().count(&self.keys.req_lost);
            }
        }
    }

    /// Transmit a server→client response frame leaving at `depart` and
    /// schedule its arrival at the client, unless the wire
    /// loses it.
    pub(crate) fn response<E: ClientEdge>(
        &mut self,
        spec: FrameSpec,
        depart: SimTime,
        ctx: &mut Ctx<'_, E>,
    ) {
        let spec = self.codec.build(spec);
        let len = spec.frame_len() - HEADER_LEN;
        match self.to_client.transmit_lossy(depart, len) {
            Some(at) => ctx.schedule_at(at, E::client(ClientEv::Response(spec))),
            None => {
                self.resp_lost += 1;
                ctx.probe().count(&self.keys.resp_lost);
            }
        }
    }
}

/// A serial core: one of the offload's networker, queue-manager, TX and RX
/// ARM cores (§3.4.1), or a Shinjuku group's networker or dispatcher
/// thread. It serves one item at a time, FIFO, each for `cost` (or `price`
/// of the item, when set), and reports its busy time and its queue's depth
/// (on every arrival and every departure) to the probe under `name` and
/// `gauge`. There are three ways to drive one:
///
/// - **Live** ([`Stage::new`]): a push event [`Stage::enqueue`]s each item
///   and the stage schedules `done`, whose handler calls
///   [`Stage::complete`] then [`Stage::resume`]. A networker is fed by a
///   NIC RX ring instead, because ring occupancy decides tail drops: it
///   leaves its inbox empty and hands the ring to [`Stage::poll`].
/// - **Booked** ([`Stage::booked`]): every item arrives from its sender a
///   fixed hop later, so the sender [`Stage::book`]s it and gets its
///   departure, `max(arrival, free_at) + cost` (the Lindley recursion), and
///   schedules the item's done event itself: no push event, no inbox.
/// - **Holding** ([`Stage::holding`]): live, except that pushes go through
///   [`Stage::push`], and [`Stage::hold`] keeps the stage busy with pieces
///   of work whose ends no event visits.
///
/// A booked or holding stage owes the probe the records of the instants it
/// skips. It keeps every record of its rows in a [`Ledger`], replays them in
/// the engine's order once no later call can add an earlier one, and
/// replays the rest up to the horizon on [`Stage::settle`], so its rows are
/// those of a stage that simulated every instant.
pub(crate) struct Stage<T> {
    inbox: VecDeque<T>,
    /// An item is in service: its done event is scheduled.
    busy: bool,
    /// When the last booked item leaves, or the current hold ends.
    free_at: SimTime,
    cost: SimDuration,
    price: Option<fn(&T) -> SimDuration>,
    name: Busy,
    gauge: Gauge,
    /// The owed records of a booked or holding stage; `None` for a live
    /// stage, which records as its events run.
    owed: Option<Ledger>,
}

impl<T> Stage<T> {
    /// An idle live stage with an empty inbox whose items each take `cost`.
    pub fn new(name: Busy, gauge: Gauge, cost: SimDuration) -> Stage<T> {
        Stage {
            inbox: VecDeque::new(),
            busy: false,
            free_at: SimTime::ZERO,
            cost,
            price: None,
            name,
            gauge,
            owed: None,
        }
    }

    /// This stage, charging `price(item)` for each item instead.
    pub fn priced(self, price: fn(&T) -> SimDuration) -> Stage<T> {
        Stage {
            price: Some(price),
            ..self
        }
    }

    /// This stage, driven by [`Stage::book`].
    pub fn booked(self) -> Stage<T> {
        Stage {
            owed: Some(Ledger::default()),
            ..self
        }
    }

    /// This stage, driven by [`Stage::push`] and [`Stage::hold`], counting
    /// each held piece of work on `pieces` when it ends.
    pub fn holding(self, pieces: Counter) -> Stage<T> {
        Stage {
            owed: Some(Ledger {
                pieces: Some(pieces),
                ..Ledger::default()
            }),
            ..self
        }
    }

    /// `item` joins the back of a live stage's inbox, then
    /// [`Stage::resume`].
    pub fn enqueue<E>(&mut self, item: T, done: E, ctx: &mut Ctx<'_, E>) {
        debug_assert!(self.owed.is_none(), "a live stage's push");
        self.inbox.push_back(item);
        self.resume(done, ctx);
    }

    /// `item`, sent `hop` ago, joins the back of a holding stage's inbox;
    /// then [`Stage::resume`]. Only how `hop` compares with an item's cost
    /// matters: it orders this arrival against a departure at this instant.
    pub fn push<E>(&mut self, item: T, hop: SimDuration, done: E, ctx: &mut Ctx<'_, E>) {
        self.inbox.push_back(item);
        let now = ctx.now();
        let mut probe = ctx.probe();
        if let Some(ledger) = self.owed.as_mut().filter(|_| probe.enabled()) {
            ledger.arrive_now(now, hop, &self.name, &self.gauge, &mut probe);
        }
        self.resume(done, ctx);
    }

    /// The item in service finished: the stage goes idle and hands it back
    /// (`None` for a stage [`Stage::poll`] feeds). Call [`Stage::resume`]
    /// or [`Stage::poll`] once its work is done.
    pub fn complete<E>(&mut self, ctx: &mut Ctx<'_, E>) -> Option<T> {
        self.busy = false;
        let item = self.inbox.pop_front();
        if self.owed.is_none() {
            ctx.probe().busy(&self.name, false);
            return item;
        }
        // Its done event was scheduled when its service began. The record
        // waits: a push at this instant may still come that the engine
        // would have run first.
        let departure = Departure::of(ctx.now(), self.cost_of(item.as_ref()));
        match &mut self.owed {
            Some(ledger) if ctx.probe().enabled() => ledger.departures.push_back(departure),
            _ => {}
        }
        item
    }

    /// The item that just [`complete`](Stage::complete)d leaves `pieces`
    /// pieces of work behind it, `each` long, back to back: the stage stays
    /// busy until they end, with no event at any of their ends.
    pub fn hold<E>(&mut self, pieces: usize, each: SimDuration, ctx: &mut Ctx<'_, E>) {
        let now = ctx.now();
        self.free_at = now + each * pieces as u64;
        if let Some(ledger) = self.ledger(ctx) {
            let last = ledger.departures.back_mut().expect("a completed item");
            debug_assert_eq!(last.at, now, "a hold starts as an item completes");
            last.joins = pieces;
            if let Some(more) = pieces.checked_sub(1) {
                let first = Departure {
                    more,
                    piece: true,
                    ..Departure::of(now + each, each)
                };
                ledger.departures.push_back(first);
            }
        }
    }

    /// An idle stage starts on its inbox's head, once any hold ends, and
    /// schedules `done` for when it finishes. A live stage first samples
    /// its inbox.
    pub fn resume<E>(&mut self, done: E, ctx: &mut Ctx<'_, E>) {
        let cost = self.cost_of(self.inbox.front());
        if self.owed.is_none() {
            self.serve(self.inbox.len(), cost, done, ctx);
        } else if !self.busy && !self.inbox.is_empty() {
            self.busy = true;
            ctx.schedule_at(ctx.now().max(self.free_at) + cost, done);
        }
    }

    /// [`Stage::resume`] for a live stage fed by `ring`.
    pub fn poll<E>(&mut self, ring: &Ring, done: E, ctx: &mut Ctx<'_, E>) {
        self.serve(ring.len(), self.cost, done, ctx);
    }

    /// Book an item sent now that arrives `hop` later, and return when it
    /// leaves; the caller schedules its done event then. A hop equal to the
    /// stage's cost may replay a same-instant arrival and departure in the
    /// other order than an engine that simulated both would have run them,
    /// which only a depth gauge's `peak` can show.
    pub fn book<E>(&mut self, hop: SimDuration, ctx: &mut Ctx<'_, E>) -> SimTime {
        let arrive = ctx.now() + hop;
        self.free_at = arrive.max(self.free_at) + self.cost;
        let (depart, cost) = (self.free_at, self.cost);
        if let Some(ledger) = self.ledger(ctx) {
            ledger.arrivals.push_back((arrive, hop));
            ledger.departures.push_back(Departure::of(depart, cost));
        }
        depart
    }

    /// Replay what a booked or holding stage still owes the probe, up to
    /// and including `horizon`: what an engine that ran to `horizon` would
    /// have recorded. Nothing later is recorded.
    pub fn settle(&mut self, horizon: SimTime, probe: &mut ProbeHandle<'_>) {
        if let Some(ledger) = &mut self.owed {
            ledger.replay(horizon, true, &self.name, &self.gauge, probe);
        }
    }

    /// The ledger of a booked or holding stage when the probe is on, with
    /// every record before now replayed: nothing can still add one there.
    fn ledger<E>(&mut self, ctx: &mut Ctx<'_, E>) -> Option<&mut Ledger> {
        let now = ctx.now();
        let mut probe = ctx.probe();
        let ledger = self.owed.as_mut().filter(|_| probe.enabled())?;
        ledger.replay(now, false, &self.name, &self.gauge, &mut probe);
        Some(ledger)
    }

    fn cost_of(&self, item: Option<&T>) -> SimDuration {
        match (self.price, item) {
            (Some(price), Some(item)) => price(item),
            _ => self.cost,
        }
    }

    fn serve<E>(&mut self, waiting: usize, cost: SimDuration, done: E, ctx: &mut Ctx<'_, E>) {
        ctx.probe().depth(&self.gauge, waiting);
        if !self.busy && waiting > 0 {
            self.busy = true;
            ctx.probe().busy(&self.name, true);
            ctx.schedule_in(cost, done);
        }
    }
}

/// The records a booked or holding [`Stage`] owes its probe rows, in the
/// order a live stage's push and done events would have made them.
#[derive(Default)]
struct Ledger {
    /// Owed arrivals, in arrival order: each one's instant, and how long
    /// before it the item was sent.
    arrivals: VecDeque<(SimTime, SimDuration)>,
    /// Owed departures, in time order.
    departures: VecDeque<Departure>,
    /// The stage's depth as its gauge has seen it so far.
    queued: usize,
    /// Counted once per held piece of work.
    pieces: Option<Counter>,
}

/// One owed departure from a [`Ledger`], or a run of held pieces of work.
struct Departure {
    at: SimTime,
    /// The departing item's cost: its done event was scheduled this long
    /// before `at`.
    cost: SimDuration,
    /// Pieces of work that join the head of the queue as the item leaves.
    joins: usize,
    /// Whether this is a held piece of work's end.
    piece: bool,
    /// Further pieces, each ending `cost` after the one before.
    more: usize,
}

impl Departure {
    fn of(at: SimTime, cost: SimDuration) -> Departure {
        Departure {
            at,
            cost,
            joins: 0,
            piece: false,
            more: 0,
        }
    }
}

impl Ledger {
    /// Record every owed arrival and departure before `until` (or at it,
    /// when `inclusive`), in the order the engine would have run them.
    fn replay(
        &mut self,
        until: SimTime,
        inclusive: bool,
        name: &Busy,
        gauge: &Gauge,
        probe: &mut ProbeHandle<'_>,
    ) {
        loop {
            // The engine runs same-instant events in the order they were
            // scheduled: an arrival sent `hop` before and a departure
            // scheduled `cost` before.
            let arrival = match (self.arrivals.front(), self.departures.front()) {
                (Some(&(at, hop)), Some(d)) => at < d.at || (at == d.at && hop > d.cost),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            let at = match arrival {
                true => self.arrivals[0].0,
                false => self.departures[0].at,
            };
            if at > until || (at == until && !inclusive) {
                return;
            }
            if arrival {
                self.arrivals.pop_front();
                self.arrive(at, name, gauge, probe);
            } else {
                self.depart(name, gauge, probe);
            }
        }
    }

    /// An item sent `hop` ago arrives now, at a holding stage: record the
    /// owed departures the engine would have run before its push event,
    /// then the arrival.
    fn arrive_now(
        &mut self,
        now: SimTime,
        hop: SimDuration,
        name: &Busy,
        gauge: &Gauge,
        probe: &mut ProbeHandle<'_>,
    ) {
        debug_assert!(self.arrivals.is_empty(), "a booked stage's push");
        while let Some(d) = self.departures.front() {
            if d.at > now || (d.at == now && hop > d.cost) {
                break;
            }
            self.depart(name, gauge, probe);
        }
        self.arrive(now, name, gauge, probe);
    }

    /// An arrival samples the depth and wakes an idle stage.
    fn arrive(&mut self, at: SimTime, name: &Busy, gauge: &Gauge, probe: &mut ProbeHandle<'_>) {
        let mut p = probe.at(at);
        self.queued += 1;
        p.depth(gauge, self.queued);
        if self.queued == 1 {
            p.busy(name, true);
        }
    }

    /// The first owed departure idles the stage, samples the depth, and
    /// wakes the stage again if work is left.
    fn depart(&mut self, name: &Busy, gauge: &Gauge, probe: &mut ProbeHandle<'_>) {
        let d = self.departures.front_mut().expect("an owed departure");
        let mut p = probe.at(d.at);
        p.busy(name, false);
        self.queued = self.queued - 1 + d.joins;
        p.depth(gauge, self.queued);
        if self.queued > 0 {
            p.busy(name, true);
        }
        if let Some(pieces) = self.pieces.as_ref().filter(|_| d.piece) {
            p.count(pieces);
        }
        if d.more > 0 {
            d.at += d.cost;
            d.more -= 1;
        } else {
            self.departures.pop_front();
        }
    }
}

/// What became of a run when its run-end event fired.
#[derive(Debug, PartialEq)]
pub(crate) enum RunEnd {
    /// The worker crashed mid-run: no response and no notification. The
    /// task stays on the dead core, which never polls again.
    Stranded,
    /// The task finished; its context is gone.
    Finished(Task),
    /// The slice expired: taking the interrupt and saving the context
    /// frees the core `free_in` from now; `task` carries the rest.
    Preempted { task: Task, free_in: SimDuration },
    /// The slice expired, but a retransmitted copy is already saved, which
    /// owns the request: this copy is killed (saving it would fork the
    /// request), and taking the interrupt frees the core `free_in` from now.
    DupKilled { task: Task, free_in: SimDuration },
}

/// One host worker core.
struct Worker {
    core: Core,
    /// The task in execution and the work it runs before its run ends.
    running: Option<(Task, SimDuration)>,
    /// When the core last went idle, until it starts its next task.
    idle_since: Option<SimTime>,
}

/// An assembly's host worker cores, indexed machine-wide as the fault
/// schedule is, and the one way a core runs a request: the paper holds the
/// workers fixed and varies only where dispatch runs and how work reaches a
/// core.
/// They share one context pool, its costs on the host core spec, how a
/// slice ends, and the count of tasks stranded on crashed workers. The
/// caller polls, starts and ends runs, and sends what its transport sends.
pub(crate) struct Workers {
    cores: Vec<Worker>,
    contexts: ContextPool,
    costs: ContextCosts,
    host: CoreSpec,
    /// The configured slice a task's grant resolves against.
    slice: Option<SimDuration>,
    /// How the slice-end interrupt reaches a core; `None` runs every task
    /// to completion.
    interrupt: Option<InterruptPath>,
    /// Tasks that died with a crashed worker, running or delivered to it.
    pub stranded: u64,
    keys: WorkerKeys,
}

/// The worker cores' probe keys.
struct WorkerKeys {
    busy: Family<Busy>,
    start: Hop,
    done: Hop,
    idle_gap: Option<Hop>,
    stranded: Counter,
    completed: Counter,
    preempted: Counter,
    dup_killed: Counter,
}

impl Workers {
    /// `n` idle host cores that run every task to completion, recording a
    /// task's start and end as the marks `start` and `done` of its path.
    pub fn new(n: usize, probe: &mut Probe, start: &'static str, done: &'static str) -> Workers {
        let t0 = SimTime::ZERO;
        let host = CoreSpec::host_x86();
        Workers {
            cores: (0..n)
                .map(|w| Worker {
                    core: Core::new(CoreId(w as u32), host, t0),
                    running: None,
                    idle_since: Some(t0),
                })
                .collect(),
            contexts: ContextPool::new(),
            costs: ContextCosts::default(),
            host,
            slice: None,
            interrupt: None,
            stranded: 0,
            keys: WorkerKeys {
                busy: probe.busy_family("worker", n),
                start: probe.hop(start),
                done: probe.hop(done),
                idle_gap: None,
                stranded: probe.counter("worker.stranded"),
                completed: probe.counter("worker.completed"),
                preempted: probe.counter("worker.preempted"),
                dup_killed: probe.counter("worker.dup_killed"),
            },
        }
    }

    /// These workers, preempting a task when the slice its grant resolves
    /// to against `slice` ends, by an interrupt on `interrupt`.
    pub fn preemptive(self, slice: Option<SimDuration>, interrupt: InterruptPath) -> Workers {
        Workers {
            slice,
            interrupt: Some(interrupt),
            ..self
        }
    }

    /// These workers, also recording how long each sat idle before its
    /// next task as `worker.idle_gap`: the measured feedback gap.
    pub fn with_idle_gaps(mut self, probe: &mut Probe) -> Workers {
        self.keys.idle_gap = Some(probe.hop("worker.idle_gap"));
        self
    }

    /// Whether worker `w` holds a task (a crashed one keeps the task it
    /// died running).
    #[inline]
    pub fn is_running(&self, w: usize) -> bool {
        self.cores[w].running.is_some()
    }

    /// Worker `w`'s busy time up to `now`.
    pub fn busy_time(&self, w: usize, now: SimTime) -> SimDuration {
        self.cores[w].core.busy_time(now)
    }

    /// Mean utilization of the workers over a run ending at `horizon`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        let sum: f64 = self.cores.iter().map(|w| w.core.utilization(horizon)).sum();
        sum / self.cores.len() as f64
    }

    /// Preemptions taken across the workers.
    pub fn preemptions(&self) -> u64 {
        self.cores.iter().map(|w| w.core.preemptions).sum()
    }

    /// Whether worker `w` may take work now. A running or crashed worker
    /// may not; nor may a stalled one, which gets `wake` when the stall
    /// ends.
    #[inline]
    pub fn may_take<E>(&self, w: usize, wake: E, ctx: &mut Ctx<'_, E>) -> bool {
        if self.is_running(w) {
            return false;
        }
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            return false; // dead silicon never polls again
        }
        if let Some(resume) = ctx.faults().worker_stalled_until(w, now) {
            ctx.schedule_at(resume, wake);
            return false;
        }
        true
    }

    /// Worker `w` found no work: its core is idle from `at` (now, or when
    /// it finishes sending), the probe sees it idle now, and its idle gap
    /// starts now unless it already has.
    #[inline]
    pub fn idle<E>(&mut self, w: usize, at: SimTime, ctx: &mut Ctx<'_, E>) {
        let worker = &mut self.cores[w];
        worker.core.set_idle(at);
        ctx.probe().busy(self.keys.busy.at(w), false);
        worker.idle_since.get_or_insert(ctx.now());
    }

    /// If worker `w` has crashed, `req_id` delivered to it never runs:
    /// count it stranded, drop any saved context of it (a retransmitted
    /// copy must start fresh), and return `true`.
    #[inline]
    pub fn strand_if_crashed<E>(&mut self, w: usize, req_id: u64, ctx: &mut Ctx<'_, E>) -> bool {
        let now = ctx.now();
        if !ctx.faults().worker_crashed(w, now) {
            return false;
        }
        self.strand(req_id, ctx);
        true
    }

    /// Drop any saved context of `req_id`: this copy of it never runs.
    pub fn discard(&mut self, req_id: u64) {
        self.contexts.discard(req_id);
    }

    fn strand<E>(&mut self, req_id: u64, ctx: &mut Ctx<'_, E>) {
        self.discard(req_id);
        self.stranded += 1;
        ctx.probe().count(&self.keys.stranded);
    }

    /// Start `task` on idle worker `w` after `fixed` overhead of the
    /// caller's own (receive, first touch, steal), plus the context spawn
    /// or restore and, when the task's grant resolves to a slice, arming a
    /// local timer. The run ends with `run_end`, the only run-end event
    /// pending for `w`: it fires when the task finishes or its slice ends,
    /// whichever comes first, and `w` starts nothing before it.
    #[inline]
    pub fn start<E>(
        &mut self,
        w: usize,
        task: Task,
        fixed: SimDuration,
        ctx: &mut Ctx<'_, E>,
        run_end: E,
    ) {
        let now = ctx.now();
        let worker = &mut self.cores[w];
        debug_assert!(worker.running.is_none(), "worker {w} is already running");
        if let Some(since) = worker.idle_since.take() {
            if let Some(gap) = &self.keys.idle_gap {
                ctx.probe().hop(gap, now.saturating_duration_since(since));
            }
        }
        ctx.probe().mark(task.req_id, &self.keys.start);
        ctx.probe().busy(self.keys.busy.at(w), true);
        let op = self.contexts.begin(task.req_id);
        let mut overhead = fixed + ContextPool::op_cost(op, &self.costs, &self.host);
        let slice = self
            .interrupt
            .and_then(|path| Some((task.preempt.resolve(self.slice)?, path)));
        let run = match slice {
            Some((slice, path)) => {
                if let InterruptPath::LocalTimer(mode) = path {
                    overhead += mode.set_cost(&self.host);
                }
                // An interrupt sent from the NIC lands one transport
                // latency after the slice ends, so the run overruns by that
                // much: §3.4.4's argument against packet-based preemption.
                task.remaining.min(slice + path.transport_latency())
            }
            None => task.remaining,
        };
        worker.core.set_busy(now);
        let end = now + overhead + run;
        worker.running = Some((task, run));
        ctx.schedule_at(end, run_end);
    }

    /// Worker `w`'s run-end event fired: what became of the run.
    #[inline]
    pub fn end_run<E>(&mut self, w: usize, ctx: &mut Ctx<'_, E>) -> RunEnd {
        let worker = &mut self.cores[w];
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            let (task, _) = worker.running.expect("a started run");
            self.strand(task.req_id, ctx);
            return RunEnd::Stranded;
        }
        let (task, run) = worker.running.take().expect("a started run");
        if task.remaining <= run {
            ctx.probe().count(&self.keys.completed);
            ctx.probe().mark(task.req_id, &self.keys.done);
            self.contexts.discard(task.req_id);
            return RunEnd::Finished(task);
        }
        let task = task.after_preemption(run);
        let interrupt = (self.interrupt).map_or(SimDuration::ZERO, |i| i.receive_cost(&self.host));
        if self.contexts.is_saved(task.req_id) {
            ctx.probe().count(&self.keys.dup_killed);
            let free_in = interrupt;
            return RunEnd::DupKilled { task, free_in };
        }
        ctx.probe().count(&self.keys.preempted);
        worker.core.preemptions += 1;
        self.contexts.save(task.req_id);
        let free_in = interrupt + self.costs.save(&self.host);
        RunEnd::Preempted { task, free_in }
    }

    /// Report any worker that holds a task while still marked idle: its
    /// idle gap would double-book the time.
    pub fn check_invariants(&self, now: SimTime, inv: &mut InvariantChecker) {
        for (w, worker) in self.cores.iter().enumerate() {
            if worker.running.is_some() && worker.idle_since.is_some() {
                let what = format!("worker {w} runs a task but is still marked idle");
                inv.record(now, "worker-state", what);
            }
        }
    }
}

/// What a dispatcher core consumes: a request its networker parsed, or a
/// worker's report (worker indices are the dispatcher's own).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Notice {
    NewTask(Task),
    /// The worker finished `req_id`, or killed a duplicate copy of it.
    Done {
        worker: usize,
        req_id: u64,
    },
    /// The worker's slice expired; `task` carries the remaining work.
    Preempted {
        worker: usize,
        task: Task,
    },
    /// A lease renewal (recovery only).
    Heartbeat {
        worker: usize,
    },
}

/// A dispatcher core's probe keys, registered once per assembly and shared
/// by its dispatcher cores.
#[derive(Clone, Copy)]
pub(crate) struct DispatchKeys {
    enqueued: Counter,
    done: Counter,
    requeued: Counter,
    heartbeats: Counter,
    fallback_switch: Counter,
    redispatch: Counter,
    admit: Hop,
}

impl DispatchKeys {
    /// Register an assembly's counters of admitted, done, re-queued and
    /// heartbeat notices, in that order, the mark `admit` an admitted or
    /// re-queued request reaches, and the governor's and recovery's
    /// counters.
    pub fn new(probe: &mut Probe, counters: [&'static str; 4], admit: &'static str) -> Self {
        let [enqueued, done, requeued, heartbeats] = counters.map(|name| probe.counter(name));
        DispatchKeys {
            enqueued,
            done,
            requeued,
            heartbeats,
            fallback_switch: probe.counter("fallback.switch"),
            redispatch: probe.counter("recovery.redispatch"),
            admit: probe.hop(admit),
        }
    }
}

/// A centralized dispatcher and everything around it that does not depend
/// on where it runs: the [`Dispatcher`] under the run's recovery policy,
/// the staleness governor, the workers' liveness tick, the notices it
/// consumes and the fault metrics it adds. The offload's queue-manager core
/// runs one, as does each Shinjuku group's dispatcher thread; each keeps
/// its own transport for notices, renewals and assignments.
pub(crate) struct DispatchCore<S> {
    pub dispatcher: Dispatcher<Box<dyn SchedPolicy>, S>,
    governor: Option<FeedbackGovernor>,
    /// The liveness tick's interval; `None` when neither the governor nor
    /// recovery is on, and no tick runs (a running one starts at time
    /// zero for every worker).
    pub heartbeat: Option<SimDuration>,
    horizon: SimTime,
    keys: DispatchKeys,
    central: Gauge,
}

impl<S: CoreSelector> DispatchCore<S> {
    /// `dispatcher` under `res`, whose governor sees worker feedback
    /// `feedback` late, for a run ending at `horizon`; it samples its
    /// central queue's depth on `central`.
    pub fn new(
        mut dispatcher: Dispatcher<Box<dyn SchedPolicy>, S>,
        feedback: SimDuration,
        horizon: SimTime,
        res: &ResilienceConfig,
        keys: DispatchKeys,
        central: Gauge,
    ) -> DispatchCore<S> {
        if let Some(policy) = res.recovery {
            dispatcher.enable_recovery(policy);
        }
        let n = dispatcher.worker_count();
        let governor = res.fallback.map(|p| FeedbackGovernor::new(n, feedback, p));
        let beats = [
            res.fallback.map(|p| p.heartbeat),
            res.recovery.map(|p| p.heartbeat),
        ];
        DispatchCore {
            dispatcher,
            governor,
            heartbeat: beats.into_iter().flatten().min(),
            horizon,
            keys,
            central,
        }
    }

    /// Apply `notice`, sample the central queue, and return the assignments
    /// the notice decided.
    #[inline]
    pub fn apply<E>(&mut self, notice: Notice, ctx: &mut Ctx<'_, E>) -> Vec<Assignment> {
        let now = ctx.now();
        let (keys, disp) = (&self.keys, &mut self.dispatcher);
        let assignments = match notice {
            Notice::NewTask(task) => {
                ctx.probe().count(&keys.enqueued);
                ctx.probe().mark(task.req_id, &keys.admit);
                disp.on_request(now, task)
            }
            Notice::Done { worker, req_id } => {
                ctx.probe().count(&keys.done);
                disp.on_done(now, worker, req_id)
            }
            Notice::Preempted { worker, task } => {
                ctx.probe().count(&keys.requeued);
                ctx.probe().mark(task.req_id, &keys.admit);
                disp.on_preempted(now, worker, task)
            }
            Notice::Heartbeat { worker } => {
                ctx.probe().count(&keys.heartbeats);
                disp.on_heartbeat(now, worker)
            }
        };
        ctx.probe().depth(&self.central, disp.queue_len());
        assignments
    }

    /// Dispatcher index `worker`'s liveness tick (`global` in the fault
    /// schedule), `None` at the horizon. A worker that is down or blacked out
    /// neither reports to the governor nor renews its lease; that silence
    /// is what both detect, on this tick.
    /// Returns the occupancy a renewal reports (`None` when silenced or
    /// recovery is off), the assignments decided and the interval to the
    /// next tick; the caller sends the renewal, hands out the assignments
    /// and ticks again, in that order.
    pub fn tick<E>(
        &mut self,
        worker: usize,
        global: usize,
        ctx: &mut Ctx<'_, E>,
    ) -> Option<(Option<u32>, Vec<Assignment>, SimDuration)> {
        let now = ctx.now();
        let next = self.heartbeat.filter(|_| now < self.horizon)?;
        let silenced = ctx.faults().worker_down(global, now) || ctx.faults().feedback_blackout(now);
        let disp = &mut self.dispatcher;
        let occupancy = disp.outstanding(worker);
        let mut assignments = Vec::new();
        if let Some(gov) = self.governor.as_mut() {
            if !silenced {
                gov.report(now, worker, occupancy);
            }
            let was_degraded = gov.is_degraded();
            gov.evaluate(now, disp);
            if gov.is_degraded() != was_degraded {
                ctx.probe().count(&self.keys.fallback_switch);
            }
            assignments = disp.kick(now);
        }
        // A no-op unless recovery is on.
        let recovered = disp.check_health(now);
        if !recovered.is_empty() {
            ctx.probe().count(&self.keys.redispatch);
        }
        assignments.extend(recovered);
        let renew = disp.recovery_enabled() && !silenced;
        ctx.probe().depth(&self.central, disp.queue_len());
        Some((renew.then_some(occupancy), assignments, next))
    }

    /// Add this core's recovery and fallback counters to `fm`.
    pub fn absorb(&self, fm: &mut FaultMetrics, horizon: SimTime) {
        absorb_dispatcher(fm, &self.dispatcher, self.governor.as_ref(), horizon);
    }
}

/// The client's three events, the same in every assembly.
#[doc(hidden)]
pub enum ClientEv {
    /// The client emits its next request.
    Send,
    /// A response frame reaches the client.
    Response(FrameSpec),
    /// A retransmit timer fires for one attempt of one request.
    Timeout {
        /// Request id the timer guards.
        req_id: u64,
        /// Attempt number the timer was armed for (stale if superseded).
        attempt: u32,
    },
}

/// How an assembly's event type carries the client edge: it wraps
/// [`ClientEv`] and names the event a request frame arriving at the server
/// becomes.
pub(crate) trait ClientEdge: Sized {
    /// Wrap a client event.
    fn client(ev: ClientEv) -> Self;
    /// A request frame reaching the server.
    fn at_server(spec: FrameSpec) -> Self;
}

/// Deterministic MAC/IP addressing plan for a simulated testbed.
///
/// * client: `02:00:00:00:00:01` / 10.0.0.1
/// * dispatcher (NIC ARM or host networker): `02:00:00:00:01:00` / 10.0.1.0
/// * worker `i`'s SR-IOV VF: `02:00:00:00:02:<i>` / 10.0.2.`i`
#[derive(Debug, Clone, Copy)]
pub struct AddressPlan;

impl AddressPlan {
    /// Client NIC MAC.
    pub fn client_mac() -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, 1)
    }

    /// Client UDP endpoint.
    pub fn client_ep() -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000)
    }

    /// Dispatcher-side interface MAC (the server's externally visible MAC).
    pub fn dispatcher_mac() -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 1, 0)
    }

    /// Dispatcher UDP endpoint (the service address clients target).
    pub fn dispatcher_ep() -> Endpoint {
        Endpoint::new(Ipv4Address::new(10, 0, 1, 0), 6000)
    }

    /// Worker `i`'s virtual-function MAC (§3.4.2: one VF per worker).
    pub fn worker_mac(i: usize) -> EthernetAddress {
        assert!(i < 256, "worker index out of addressing range");
        EthernetAddress::new(0x02, 0, 0, 0, 2, i as u8)
    }

    /// Worker `i`'s UDP endpoint.
    pub fn worker_ep(i: usize) -> Endpoint {
        assert!(i < 256, "worker index out of addressing range");
        Endpoint::new(Ipv4Address::new(10, 0, 2, i as u8), 6000)
    }
}

/// The `kind` message about `task`: its id, client, service time and send
/// stamp, with no remaining work, body or slice grant (a hop that carries
/// those sets them).
pub(crate) fn task_msg(kind: MsgKind, task: &Task) -> MsgRepr {
    MsgRepr {
        kind,
        req_id: task.req_id,
        client_id: task.client_id,
        service_ns: task.service.as_nanos(),
        remaining_ns: 0,
        sent_at_ns: task.sent_at.as_nanos(),
        body_len: 0,
        grant_code: 0,
    }
}

/// The task `msg` carries, arriving at `arrived_at`, with the remaining
/// work, body and slice grant the message states (a request's remaining
/// work is its service time, and its grant byte 0 inherits the slice).
pub(crate) fn msg_task(msg: &MsgRepr, arrived_at: SimTime) -> Task {
    Task {
        req_id: msg.req_id,
        client_id: msg.client_id,
        service: SimDuration::from_nanos(msg.service_ns),
        remaining: SimDuration::from_nanos(msg.remaining_ns),
        sent_at: SimTime::from_nanos(msg.sent_at_ns),
        arrived_at,
        body_len: msg.body_len,
        preemptions: 0,
        preempt: PreemptDecision::from_grant_code(msg.grant_code),
    }
}

/// Worker `w`'s response frame to the client for `task`, sent from
/// `src_mac`.
pub(crate) fn response_frame(src_mac: EthernetAddress, w: usize, task: &Task) -> FrameSpec {
    FrameSpec {
        src_mac,
        dst_mac: AddressPlan::client_mac(),
        src: AddressPlan::worker_ep(w),
        dst: AddressPlan::client_ep(),
        msg: MsgRepr {
            body_len: task.body_len,
            ..task_msg(MsgKind::Response, task)
        },
    }
}

/// Just-in-time pacing state (§5.2's congestion-control co-design): the
/// NIC stamps its instantaneous scheduler load into departing responses;
/// the client throttles multiplicatively above `target_depth` and
/// recovers additively below it, so requests arrive "just in time for
/// processing" instead of piling into the centralized queue.
#[derive(Debug, Clone, Copy)]
pub struct JitPacing {
    /// Queue-depth setpoint the client aims to keep the server at.
    pub target_depth: u64,
    /// Current rate multiplier in `(0, 1]`.
    pub scale: f64,
}

impl JitPacing {
    /// Start at full rate with the given setpoint.
    pub fn new(target_depth: u64) -> JitPacing {
        JitPacing {
            target_depth,
            scale: 1.0,
        }
    }

    /// Absorb one load report.
    pub fn observe(&mut self, depth: u64) {
        if depth > self.target_depth {
            self.scale = (self.scale * 0.99).max(0.05);
        } else {
            self.scale = (self.scale + 0.002).min(1.0);
        }
    }
}

/// What became of a response frame arriving at the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseOutcome {
    /// First response for the request: latency recorded.
    Recorded,
    /// The request had already completed — a retransmission raced the
    /// original; suppressed.
    Duplicate,
    /// The client had already abandoned the request; the work was wasted.
    Orphaned,
}

/// What a per-attempt timeout resolves to.
#[derive(Clone, Debug, PartialEq)]
pub enum TimeoutOutcome {
    /// The attempt already resolved, or a newer attempt superseded it.
    Stale,
    /// Retransmit `frame` now and arm a fresh timeout.
    Retry {
        /// The rebuilt request frame (same request id, original send
        /// timestamp, so recorded latency spans the full ordeal).
        frame: FrameSpec,
        /// The new attempt number (1-based).
        attempt: u32,
        /// Timeout to arm for this attempt (backed off, capped).
        timeout: SimDuration,
    },
    /// Attempt budget exhausted: the request is abandoned.
    Abandoned,
}

/// Per-request reliability state.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    msg: MsgRepr,
    attempt: u32,
}

/// The mutilate-style open-loop client (§4): Poisson arrivals, synthetic
/// service times stamped into request frames, latency recording from
/// responses.
#[derive(Debug)]
pub struct Client {
    arrivals: ArrivalGen,
    service_rng: Rng,
    spec: WorkloadSpec,
    next_id: u64,
    /// Requests sent.
    pub sent: u64,
    /// Response latency recorder.
    pub recorder: LatencyRecorder,
    /// Client id stamped into requests.
    pub client_id: u32,
    /// Source ports rotate so RSS-based systems see many flows (the
    /// paper's baselines need flow diversity to spread load at all).
    port_cursor: u16,
    /// When set, responses carry server-load feedback and the client
    /// paces itself (§5.2 co-design). `None` = pure open loop (§4).
    pub pacing: Option<JitPacing>,
    /// Timeout/retry policy; `None` = fire-and-forget (requests are still
    /// tracked so the run ledger closes).
    retry: Option<RetryPolicy>,
    /// Requests awaiting their first response. Iterates in request-id
    /// order, so any walk (ledger dumps, horizon accounting) is
    /// deterministic.
    outstanding: IdTable<PendingReq>,
    /// Requests whose response was recorded (including during warmup).
    /// An issued id that is neither outstanding nor given up is done.
    done: u64,
    /// Requests abandoned after the attempt budget.
    gave_up: BTreeSet<u64>,
    /// Retransmissions sent.
    pub retries: u64,
    /// Timeouts that fired while their attempt was live.
    pub timeouts: u64,
    /// Suppressed duplicate responses.
    pub duplicates: u64,
    /// Responses that arrived after abandonment.
    pub orphaned: u64,
    /// Requests abandoned.
    pub abandoned: u64,
}

impl Client {
    /// Build a client for `spec`, forking its streams from `master`.
    ///
    /// # Panics
    /// Panics if `spec.body_len` exceeds [`net_wire::MAX_BODY_LEN`]: no
    /// frame could carry such a request.
    pub fn new(spec: WorkloadSpec, master: &mut Rng) -> Client {
        assert!(
            spec.body_len <= net_wire::MAX_BODY_LEN,
            "request body of {} bytes exceeds the {}-byte frame limit",
            spec.body_len,
            net_wire::MAX_BODY_LEN
        );
        Client {
            arrivals: ArrivalGen::new(
                ArrivalProcess::Poisson {
                    rate_rps: spec.offered_rps,
                },
                master.fork(),
            ),
            service_rng: master.fork(),
            spec,
            next_id: 1,
            sent: 0,
            recorder: LatencyRecorder::new(spec.warmup_until()),
            client_id: 1,
            port_cursor: 0,
            pacing: None,
            retry: None,
            outstanding: IdTable::new(),
            done: 0,
            gave_up: BTreeSet::new(),
            retries: 0,
            timeouts: 0,
            duplicates: 0,
            orphaned: 0,
            abandoned: 0,
        }
    }

    /// Arm the reliability layer: each request gets a per-attempt timeout
    /// and up to `policy.max_attempts` transmissions.
    pub fn enable_retries(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Gap until the first/next request (stretched by JIT pacing when
    /// enabled).
    pub fn next_gap(&mut self) -> SimDuration {
        let gap = self.arrivals.next_gap();
        match self.pacing {
            Some(p) => gap.mul_f64(1.0 / p.scale),
            None => gap,
        }
    }

    /// Emit the next request frame at `now`, addressed to the service.
    pub fn make_request(&mut self, now: SimTime) -> FrameSpec {
        let service = self.spec.dist.sample(&mut self.service_rng);
        let id = self.next_id;
        self.next_id += 1;
        self.sent += 1;
        self.port_cursor = self.port_cursor.wrapping_add(1);
        let msg = MsgRepr::request(
            id,
            self.client_id,
            service.as_nanos(),
            now.as_nanos(),
            self.spec.body_len,
        );
        self.outstanding.insert(id, PendingReq { msg, attempt: 1 });
        Client::request_frame(u64::from(self.port_cursor), msg)
    }

    /// The timeout to arm right after transmitting `req_id` (`None` when
    /// reliability is off or the request already resolved). Returns the
    /// attempt number to stamp into the timeout event, so stale firings
    /// from superseded attempts can be ignored (the engine never cancels
    /// an event).
    pub fn arm_timeout(&self, req_id: u64) -> Option<(u32, SimDuration)> {
        let policy = self.retry?;
        let pending = self.outstanding.get(req_id)?;
        Some((pending.attempt, policy.timeout_for(pending.attempt)))
    }

    /// The frame carrying `msg` to the service from client port
    /// `7000 + port % 1024`: 1024 distinct source ports make plenty of
    /// flows for RSS.
    fn request_frame(port: u64, msg: MsgRepr) -> FrameSpec {
        let mut src = AddressPlan::client_ep();
        src.port = 7000 + (port % 1024) as u16;
        FrameSpec {
            src_mac: AddressPlan::client_mac(),
            dst_mac: AddressPlan::dispatcher_mac(),
            src,
            dst: AddressPlan::dispatcher_ep(),
            msg,
        }
    }

    /// A timeout armed for (`req_id`, `attempt`) fired at `now`: the live
    /// attempt will never get a response, so either retransmit (bumping
    /// the attempt) or abandon the request.
    pub fn on_timeout(&mut self, _now: SimTime, req_id: u64, attempt: u32) -> TimeoutOutcome {
        let Some(pending) = self.outstanding.get_mut(req_id) else {
            return TimeoutOutcome::Stale; // resolved
        };
        if pending.attempt != attempt {
            return TimeoutOutcome::Stale; // superseded
        }
        self.timeouts += 1;
        let Some(policy) = self.retry else {
            return TimeoutOutcome::Stale;
        };
        if !policy.may_retry(pending.attempt) {
            self.outstanding.remove(req_id);
            self.gave_up.insert(req_id);
            self.abandoned += 1;
            return TimeoutOutcome::Abandoned;
        }
        pending.attempt += 1;
        let attempt = pending.attempt;
        let msg = pending.msg;
        self.retries += 1;
        TimeoutOutcome::Retry {
            // The message is byte-identical to the original (same id,
            // service time and send timestamp: latency is measured from the
            // first transmission); only the source port is re-derived, from
            // the id, so the flow stays stable for RSS.
            frame: Client::request_frame(msg.req_id, msg),
            attempt,
            timeout: policy.timeout_for(attempt),
        }
    }

    /// Absorb a response frame at `now`. In Response messages the
    /// `remaining_ns` field is repurposed as the NIC's load stamp (§5.2);
    /// when pacing is on, the client reacts to it. Duplicate responses
    /// (a retransmission raced the original) and orphans (the request was
    /// already abandoned, or was never issued) are counted and suppressed,
    /// never recorded.
    pub fn on_response(&mut self, now: SimTime, frame: &impl FrameHeader) -> ResponseOutcome {
        let msg = *frame.msg();
        if let Some(p) = &mut self.pacing {
            p.observe(msg.remaining_ns);
        }
        if self.outstanding.remove(msg.req_id).is_none() {
            let issued = (1..self.next_id).contains(&msg.req_id);
            if issued && !self.gave_up.contains(&msg.req_id) {
                self.duplicates += 1;
                return ResponseOutcome::Duplicate;
            }
            self.orphaned += 1;
            return ResponseOutcome::Orphaned;
        }
        self.done += 1;
        let service = SimDuration::from_nanos(msg.service_ns);
        let sent_at = SimTime::from_nanos(msg.sent_at_ns);
        let class = self.spec.class_of(service);
        self.recorder.record(now, sent_at, service, class);
        ResponseOutcome::Recorded
    }

    /// Handle one client event: send the next request (until the horizon),
    /// record a response, or retransmit after a timeout.
    pub(crate) fn on_event<E: ClientEdge>(
        &mut self,
        ev: ClientEv,
        wire: &mut Wire,
        ctx: &mut Ctx<'_, E>,
    ) {
        let now = ctx.now();
        let outcome = match ev {
            ClientEv::Send => {
                if now >= self.spec.horizon() {
                    return;
                }
                let spec = self.make_request(now);
                let req_id = spec.msg.req_id;
                ctx.probe().count(&wire.keys.sent);
                ctx.probe().mark(req_id, &wire.keys.send);
                wire.request(spec, ctx);
                if let Some((attempt, timeout)) = self.arm_timeout(req_id) {
                    ctx.schedule_in(timeout, E::client(ClientEv::Timeout { req_id, attempt }));
                }
                let gap = self.next_gap();
                ctx.schedule_in(gap, E::client(ClientEv::Send));
                return;
            }
            ClientEv::Response(spec) => {
                ctx.probe().count(&wire.keys.responses);
                ctx.probe().finish(spec.msg.req_id, &wire.keys.response);
                self.on_response(now, &spec);
                return;
            }
            ClientEv::Timeout { req_id, attempt } => self.on_timeout(now, req_id, attempt),
        };
        if let TimeoutOutcome::Retry {
            frame,
            attempt,
            timeout,
        } = outcome
        {
            ctx.probe().count(&wire.keys.retries);
            let req_id = frame.msg.req_id;
            wire.request(frame, ctx);
            ctx.schedule_in(timeout, E::client(ClientEv::Timeout { req_id, attempt }));
        }
    }

    /// Audit client bookkeeping: every issued request id lives in exactly
    /// one of `outstanding` / `done` / `gave_up`, so their sizes must sum
    /// to the number of requests sent. O(1), called per event on invcheck
    /// runs.
    pub fn check_invariants(&self, now: SimTime, inv: &mut InvariantChecker) {
        inv.check_conservation(
            now,
            "client requests (sent = done + gave_up + outstanding)",
            self.sent,
            self.done + (self.gave_up.len() + self.outstanding.len()) as u64,
        );
    }

    /// The client-side half of the fault ledger (assemblies overlay the
    /// model-side counters: link losses, ring drops, strandings).
    pub fn fault_metrics(&self) -> FaultMetrics {
        FaultMetrics {
            attempts: self.sent + self.retries,
            launched: self.sent,
            completed_all: self.done,
            retries: self.retries,
            timeouts: self.timeouts,
            duplicates: self.duplicates,
            orphaned: self.orphaned,
            abandoned: self.abandoned,
            open_at_horizon: self.outstanding.len() as u64,
            ..FaultMetrics::default()
        }
    }
}

/// Assemble [`RunMetrics`] at `horizon` from a client, its wire and the
/// worker cores; `dropped` counts the wire's losses, to which an assembly
/// adds its own.
pub(crate) fn assemble_metrics(
    client: &Client,
    wire: &Wire,
    workers: &Workers,
    horizon: SimTime,
) -> RunMetrics {
    let rec = &client.recorder;
    RunMetrics {
        offered_rps: client.spec.offered_rps,
        achieved_rps: rec.achieved_rps(),
        p50: rec.p50().unwrap_or(SimDuration::ZERO),
        p99: rec.p99().unwrap_or(SimDuration::ZERO),
        p999: rec.p999().unwrap_or(SimDuration::ZERO),
        p99_short: rec
            .class_histogram(ReqClass::Short)
            .p99()
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO),
        p99_long: rec
            .class_histogram(ReqClass::Long)
            .p99()
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO),
        mean: rec.mean().unwrap_or(SimDuration::ZERO),
        completed: rec.completed,
        dropped: wire.req_lost + wire.resp_lost,
        preemptions: workers.preemptions(),
        worker_utilization: workers.utilization(horizon),
        stages: None,
        faults: FaultMetrics {
            req_link_lost: wire.req_lost,
            resp_link_lost: wire.resp_lost,
            stranded: workers.stranded,
            ..client.fault_metrics()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ServiceDist;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)))
    }

    #[test]
    fn addressing_is_unique() {
        let mut macs = std::collections::BTreeSet::new();
        macs.insert(AddressPlan::client_mac());
        macs.insert(AddressPlan::dispatcher_mac());
        for i in 0..16 {
            macs.insert(AddressPlan::worker_mac(i));
        }
        assert_eq!(macs.len(), 18, "all MACs distinct");
    }

    #[test]
    fn client_request_frames_parse_back() {
        let mut master = Rng::new(7);
        let mut client = Client::new(spec(), &mut master);
        let f = client.make_request(SimTime::from_micros(3));
        let parsed = ParsedFrame::parse(&f.build()).unwrap();
        assert_eq!(parsed.msg.req_id, 1);
        assert_eq!(parsed.msg.service_ns, 5_000);
        assert_eq!(parsed.msg.sent_at_ns, 3_000);
        assert_eq!(parsed.eth.dst_addr, AddressPlan::dispatcher_mac());
        assert_eq!(client.sent, 1);
    }

    #[test]
    fn the_longest_frame_body_is_accepted() {
        let mut s = spec();
        s.body_len = net_wire::MAX_BODY_LEN;
        let mut client = Client::new(s, &mut Rng::new(7));
        let f = client.make_request(SimTime::ZERO);
        assert_eq!(ParsedFrame::parse(&f.build()).unwrap().to_spec(), f);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65465-byte frame limit")]
    fn a_body_no_frame_can_carry_is_rejected() {
        let mut s = spec();
        s.body_len = net_wire::MAX_BODY_LEN + 1;
        Client::new(s, &mut Rng::new(7));
    }

    #[test]
    fn the_codec_checks_frames_only_under_invariants() {
        let frame = Client::new(spec(), &mut Rng::new(7)).make_request(SimTime::ZERO);
        let mut off = FrameCodec::new(&ResilienceConfig::default());
        assert_eq!(off.build(frame), frame);
        assert_eq!(off.built, 0, "a plain run never touches the bytes");
        let mut on = FrameCodec::new(&ResilienceConfig::default().with_invariants());
        assert_eq!(on.build(frame), frame);
        assert_eq!((on.built, on.intact), (1, 1));
        let mut inv = InvariantChecker::new(InvariantConfig::enabled());
        on.check_invariants(SimTime::ZERO, &mut inv);
        inv.assert_clean();
        // A frame whose bytes came back different is a violation.
        on.built += 1;
        on.check_invariants(SimTime::ZERO, &mut inv);
        assert_eq!(inv.violations().len(), 1);
    }

    #[test]
    fn request_ids_are_sequential_and_ports_rotate() {
        let mut master = Rng::new(7);
        let mut client = Client::new(spec(), &mut master);
        let a = client.make_request(SimTime::ZERO);
        let b = client.make_request(SimTime::ZERO);
        assert_eq!(a.msg.req_id + 1, b.msg.req_id);
        assert_ne!(a.src.port, b.src.port, "flows should differ for RSS");
    }

    #[test]
    fn response_round_trip_records_latency() {
        let mut master = Rng::new(9);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        let req = client.make_request(SimTime::from_micros(10));
        let resp_spec = FrameSpec {
            msg: req.msg.response(),
            ..req
        };
        let parsed = ParsedFrame::parse(&resp_spec.build()).unwrap();
        client.on_response(SimTime::from_micros(30), &parsed);
        assert_eq!(client.recorder.completed, 1);
        assert_eq!(client.recorder.p99(), Some(SimDuration::from_micros(20)));
    }

    #[test]
    fn retry_flow_retransmits_then_abandons() {
        let mut master = Rng::new(5);
        let mut client = Client::new(spec(), &mut master);
        let policy = RetryPolicy {
            timeout: SimDuration::from_micros(100),
            backoff: 2.0,
            max_timeout: SimDuration::from_micros(300),
            max_attempts: 3,
        };
        client.enable_retries(policy);
        let f = client.make_request(SimTime::ZERO);
        let id = f.msg.req_id;
        let (attempt, t) = client.arm_timeout(id).unwrap();
        assert_eq!((attempt, t), (1, SimDuration::from_micros(100)));
        // First timeout: retransmit with doubled timeout.
        let out = client.on_timeout(SimTime::from_micros(100), id, 1);
        let TimeoutOutcome::Retry {
            frame,
            attempt,
            timeout,
        } = out
        else {
            panic!("expected retry, got {out:?}");
        };
        assert_eq!(frame.msg, f.msg, "retransmit is byte-identical");
        assert_eq!(attempt, 2);
        assert_eq!(timeout, SimDuration::from_micros(200));
        // A stale firing of the superseded attempt is ignored.
        assert_eq!(
            client.on_timeout(SimTime::from_micros(150), id, 1),
            TimeoutOutcome::Stale
        );
        // Second timeout: third (= last) attempt.
        assert!(matches!(
            client.on_timeout(SimTime::from_micros(300), id, 2),
            TimeoutOutcome::Retry { attempt: 3, .. }
        ));
        // Third timeout: budget exhausted.
        assert_eq!(
            client.on_timeout(SimTime::from_micros(600), id, 3),
            TimeoutOutcome::Abandoned
        );
        assert_eq!(client.retries, 2);
        assert_eq!(client.timeouts, 3);
        assert_eq!(client.abandoned, 1);
        let fm = client.fault_metrics();
        assert_eq!(fm.attempts, 3);
        assert_eq!(fm.launched, 1);
        assert_eq!(fm.unaccounted(), 0, "abandonment closes the ledger");
    }

    #[test]
    fn duplicate_and_orphan_responses_are_suppressed() {
        let mut master = Rng::new(5);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        client.enable_retries(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::paper_default()
        });
        let req = client.make_request(SimTime::ZERO);
        let resp = ParsedFrame::parse(
            &FrameSpec {
                msg: req.msg.response(),
                ..req
            }
            .build(),
        )
        .unwrap();
        assert_eq!(
            client.on_response(SimTime::from_micros(10), &resp),
            ResponseOutcome::Recorded
        );
        assert_eq!(
            client.on_response(SimTime::from_micros(12), &resp),
            ResponseOutcome::Duplicate
        );
        assert_eq!(client.recorder.completed, 1, "recorded exactly once");
        // An abandoned request's late response is an orphan.
        let req2 = client.make_request(SimTime::ZERO);
        assert_eq!(
            client.on_timeout(SimTime::from_millis(1), req2.msg.req_id, 1),
            TimeoutOutcome::Abandoned
        );
        let resp2 = ParsedFrame::parse(
            &FrameSpec {
                msg: req2.msg.response(),
                ..req2
            }
            .build(),
        )
        .unwrap();
        assert_eq!(
            client.on_response(SimTime::from_millis(2), &resp2),
            ResponseOutcome::Orphaned
        );
        let fm = client.fault_metrics();
        assert_eq!(fm.duplicates, 1);
        assert_eq!(fm.orphaned, 1);
        assert_eq!(fm.unaccounted(), 0);
    }

    #[test]
    fn responses_for_unissued_ids_are_orphans() {
        let mut master = Rng::new(5);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        client.enable_retries(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::paper_default()
        });
        let respond = |req: &FrameSpec, req_id: u64| {
            let mut msg = req.msg.response();
            msg.req_id = req_id;
            ParsedFrame::parse(&FrameSpec { msg, ..*req }.build()).unwrap()
        };
        let done = client.make_request(SimTime::ZERO);
        let lost = client.make_request(SimTime::ZERO);
        let open = client.make_request(SimTime::ZERO);
        assert_eq!(
            client.on_timeout(SimTime::from_millis(1), lost.msg.req_id, 1),
            TimeoutOutcome::Abandoned
        );
        let cases = [
            (done.msg.req_id, ResponseOutcome::Recorded),
            // Duplicate after done.
            (done.msg.req_id, ResponseOutcome::Duplicate),
            // Late after abandon.
            (lost.msg.req_id, ResponseOutcome::Orphaned),
            // Never issued: id 0, the next id, a hostile id.
            (0, ResponseOutcome::Orphaned),
            (open.msg.req_id + 1, ResponseOutcome::Orphaned),
            (1 << 60, ResponseOutcome::Orphaned),
        ];
        for (at, (req_id, want)) in cases.into_iter().enumerate() {
            let now = SimTime::from_millis(2 + at as u64);
            assert_eq!(
                client.on_response(now, &respond(&done, req_id)),
                want,
                "response for id {req_id}"
            );
        }
        assert_eq!(client.recorder.completed, 1, "recorded exactly once");
        let fm = client.fault_metrics();
        assert_eq!(fm.completed_all, 1);
        assert_eq!(fm.duplicates, 1);
        assert_eq!(fm.orphaned, 4);
        assert_eq!(fm.open_at_horizon, 1);
        assert_eq!(fm.unaccounted(), 0, "sent = done + gave_up + outstanding");
        let mut inv = InvariantChecker::new(InvariantConfig::enabled());
        client.check_invariants(SimTime::from_millis(9), &mut inv);
        assert!(inv.violations().is_empty());
    }

    #[test]
    fn governor_degrades_quarantines_and_recovers() {
        use nicsched::{Fcfs, LeastOutstanding};
        let us = SimTime::from_micros;
        let policy = StalenessPolicy {
            degrade_after: SimDuration::from_micros(25),
            quarantine_after: SimDuration::from_micros(75),
            heartbeat: SimDuration::from_micros(5),
        };
        let mut gov = FeedbackGovernor::new(2, SimDuration::from_micros(2), policy);
        let mut disp = Dispatcher::new(2, 1, Fcfs::new(), LeastOutstanding);
        // Both workers report early: healthy.
        gov.report(us(1), 0, 0);
        gov.report(us(1), 1, 0);
        gov.evaluate(us(5), &mut disp);
        assert!(!gov.is_degraded());
        // Worker 1 goes silent; worker 0 keeps reporting. Evaluate after the
        // 2 µs channel latency so the fresh report has actually landed.
        gov.report(us(30), 0, 0);
        gov.evaluate(us(33), &mut disp);
        assert!(!gov.is_degraded(), "one stale of two is not a majority");
        gov.report(us(80), 0, 0);
        gov.evaluate(us(83), &mut disp);
        assert!(disp.is_excluded(1), "silent worker quarantined");
        assert!(!disp.is_excluded(0));
        assert_eq!(gov.quarantines, 1);
        // Total blackout: both silent long enough -> hashed fallback.
        gov.evaluate(us(130), &mut disp);
        assert!(gov.is_degraded());
        assert!(disp.is_degraded());
        assert_eq!(gov.switches, 1);
        // Both resume reporting: fallback lifts, quarantine releases.
        gov.report(us(140), 0, 0);
        gov.report(us(140), 1, 0);
        gov.evaluate(us(143), &mut disp);
        assert!(!gov.is_degraded());
        assert!(!disp.is_excluded(1));
        assert_eq!(gov.fallback_ns(us(143)), gov.degraded_ns);
        assert!(gov.degraded_ns >= 13_000, "degraded 130->143us");
    }

    #[test]
    fn overloaded_dispatcher_cores_close_their_ledgers_under_retries() {
        use crate::offload::OffloadConfig;
        use crate::shinjuku::ShinjukuConfig;
        use crate::ServerSystem;
        // Overload every assembly built on a dispatcher core, about 1.5x
        // capacity: 4 workers of 5 µs requests at 1.2M/s, with retries and
        // the invariant checker on. 17 ms is long enough for the backlog to
        // outgrow every retry timeout.
        let spec = WorkloadSpec {
            offered_rps: 1_200_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(15),
            seed: 42,
        };
        let two_groups = ShinjukuConfig {
            groups: 2,
            ..ShinjukuConfig::paper(2)
        };
        let systems: [&dyn ServerSystem; 3] = [
            &OffloadConfig::paper(4, 4),
            &ShinjukuConfig::paper(4),
            &two_groups,
        ];
        let res = ResilienceConfig {
            retry: Some(RetryPolicy::paper_default()),
            ..ResilienceConfig::default()
        }
        .with_invariants();
        for sys in systems {
            let name = sys.name();
            let m = sys.run_resilient(spec, ProbeConfig::disabled(), res);
            // The central queue grows without bound, so clients time out
            // and retry; every request must still be accounted for.
            assert!(m.faults.timeouts > 0, "{name}: overload must time out");
            assert_eq!(m.faults.unaccounted(), 0, "{name}: {:?}", m.faults);
        }
    }

    #[test]
    fn a_task_delivered_to_a_crashed_worker_drops_its_saved_context() {
        use crate::offload::{self, Offload, OffloadConfig};
        use crate::rpcvalet::{self, RpcValet, RpcValetConfig};
        use crate::shinjuku::{self, Shinjuku, ShinjukuConfig};
        // Worker 0 is dead from the start, and request 7 has a saved
        // context (it was preempted). Each assembly delivers it to worker 0
        // on its own transport: the request strands, and its context must
        // go, or a retransmitted copy would pay a restore (and be killed as
        // a duplicate if preempted).
        fn strands<A: Assembly>(
            cfg: A::Config,
            deliver: A::Event,
            pool: fn(&mut A) -> &mut Workers,
        ) {
            let res = ResilienceConfig {
                faults: FaultConfig::default().with_crash(0, SimTime::ZERO),
                ..ResilienceConfig::default()
            };
            let mut engine = engine::<A>(spec(), cfg, ProbeConfig::disabled(), res);
            pool(engine.model_mut()).contexts.save(7);
            engine.schedule_at(SimTime::from_micros(1), deliver);
            engine.run_until(SimTime::from_micros(2));
            let workers = pool(engine.model_mut());
            assert_eq!(workers.stranded, 1, "{}", A::name(&cfg));
            assert!(!workers.contexts.is_saved(7), "{}", A::name(&cfg));
        }
        let t0 = SimTime::ZERO;
        let task = Task::new(7, 1, SimDuration::from_micros(100), t0, t0, 64);
        let assign = FrameSpec {
            src_mac: AddressPlan::dispatcher_mac(),
            dst_mac: AddressPlan::worker_mac(0),
            src: AddressPlan::dispatcher_ep(),
            dst: AddressPlan::worker_ep(0),
            msg: task_msg(MsgKind::Assign, &task),
        };
        strands::<Offload>(
            OffloadConfig::paper(2, 2),
            offload::Ev::WorkerFrame(0, assign),
            |m| &mut m.workers,
        );
        strands::<Shinjuku>(
            ShinjukuConfig::paper(2),
            shinjuku::Ev::WorkerTask(0, task),
            |m| &mut m.workers,
        );
        strands::<RpcValet>(
            RpcValetConfig { workers: 2 },
            rpcvalet::Ev::Deliver(0, task),
            |m| &mut m.workers,
        );
    }

    /// The work each assembly does, not only its outputs: the events one
    /// short, fixed `fig2-bimodal`-like run processes (the paper's bimodal
    /// mix at 400 k rps on 4 workers per dispatcher, 10 µs slice). A change
    /// that elides or adds events moves these counts and must update them
    /// here. None of the runs keeps enough events pending to engage the
    /// queue's wheel.
    #[test]
    fn fig2_bimodal_event_counts_are_pinned() {
        use crate::baseline::{Baseline, BaselineConfig, BaselineKind};
        use crate::offload::{Offload, OffloadConfig};
        use crate::rpcvalet::{RpcValet, RpcValetConfig};
        use crate::shinjuku::{Shinjuku, ShinjukuConfig};
        fn events<A: Assembly>(cfg: A::Config) -> u64 {
            let spec = WorkloadSpec {
                warmup: SimDuration::from_millis(1),
                measure: SimDuration::from_millis(4),
                seed: 0,
                ..WorkloadSpec::new(400_000.0, ServiceDist::paper_bimodal())
            };
            let mut engine = engine::<A>(
                spec,
                cfg,
                ProbeConfig::disabled(),
                ResilienceConfig::default(),
            );
            A::seed(&mut engine);
            engine.run_until(spec.horizon());
            assert_eq!(engine.wheel_engagements(), 0, "{}", A::name(&cfg));
            engine.events_processed()
        }
        let counts = [
            events::<Offload>(OffloadConfig::paper(4, 4)),
            events::<Shinjuku>(ShinjukuConfig::paper(4)),
            events::<Baseline>(BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            }),
            events::<RpcValet>(RpcValetConfig { workers: 4 }),
            events::<Shinjuku>(ShinjukuConfig::split(10, 2)),
        ];
        // Offload, Shinjuku, RSS, RPCValet, two-group Shinjuku. Booking
        // the queue manager and the TX core took offload from 31,580: 4,007
        // `QmPush` and 2,030 `TxPush` events went. Holding the dispatcher
        // thread for the assignments a notice decides took 2,030 `DispDone`s
        // off each Shinjuku (26,102 and 26,104 before).
        assert_eq!(counts, [25_543, 24_072, 10_686, 9_918, 24_074]);
    }

    /// Offload's booked queue manager and TX core keep one done event
    /// pending per queued item, so at 1 M rps of 1 µs requests on 16
    /// workers it holds up to 38 events. The queue's wheel must stay idle
    /// on every seed: on the seeds that engaged it, its bucket storage
    /// (~90 KB) made the run's peak heap depend on the seed.
    #[test]
    fn offload_at_a_million_rps_keeps_off_the_wheel() {
        use crate::offload::{Offload, OffloadConfig};
        // Seeds that engaged the wheel under the queue's former bound.
        for seed in [4, 14] {
            let spec = WorkloadSpec {
                warmup: SimDuration::from_millis(5),
                measure: SimDuration::from_millis(95),
                seed,
                ..WorkloadSpec::new(1e6, ServiceDist::Fixed(SimDuration::from_micros(1)))
            };
            let cfg = OffloadConfig {
                time_slice: None,
                ..OffloadConfig::paper(16, 5)
            };
            let mut engine = engine::<Offload>(
                spec,
                cfg,
                ProbeConfig::disabled(),
                ResilienceConfig::default(),
            );
            Offload::seed(&mut engine);
            engine.run_until(spec.horizon());
            assert_eq!(engine.wheel_engagements(), 0, "seed {seed}");
        }
    }

    #[test]
    fn metrics_assembly() {
        let mut master = Rng::new(9);
        let mut s = spec();
        s.warmup = SimDuration::ZERO;
        let mut client = Client::new(s, &mut master);
        let req = client.make_request(SimTime::ZERO);
        let resp = ParsedFrame::parse(
            &FrameSpec {
                msg: req.msg.response(),
                ..req
            }
            .build(),
        )
        .unwrap();
        client.on_response(SimTime::from_micros(15), &resp);
        let mut probe = Probe::default();
        let wire = Wire::new(
            &ResilienceConfig::default(),
            &mut master,
            &mut probe,
            "path.1_response",
        );
        let mut workers = Workers::new(2, &mut probe, "path.s", "path.d");
        workers.cores[1].core.preemptions = 3;
        workers.stranded = 2;
        let m = assemble_metrics(&client, &wire, &workers, SimTime::from_micros(20));
        assert_eq!(m.completed, 1);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.preemptions, 3);
        assert_eq!(m.faults.stranded, 2);
        assert_eq!(m.worker_utilization, 0.0);
        assert_eq!(m.p99, SimDuration::from_micros(15));
    }

    /// Differential checks of the booked and holding stages against live
    /// ones that simulate every push and done event: on seeded arrival
    /// streams with same-instant arrivals and departures, back-to-back
    /// busy periods and a horizon that falls inside a busy period, both
    /// give the same departures and the same stage rows.
    mod owed {
        use super::*;
        use sim_core::StageReport;

        const SENDS: usize = 400;

        /// `SENDS` send instants whose gaps are multiples of 10 ns up to
        /// `max_gap`, so arrivals often share an instant with each other and
        /// with a departure.
        fn sends(rng: &mut Rng, max_gap: u64) -> Vec<SimTime> {
            let mut at = SimTime::ZERO;
            (0..SENDS)
                .map(|_| {
                    at += SimDuration::from_nanos(10 * (rng.next_u64() % (max_gap / 10 + 1)));
                    at
                })
                .collect()
        }

        /// A horizon in the second half of the run: usually inside a busy
        /// period at these loads.
        fn horizon(rng: &mut Rng, sends: &[SimTime]) -> SimTime {
            let i = SENDS / 2 + (rng.next_u64() % (SENDS as u64 / 2 - 1)) as usize;
            sends[i] + SimDuration::from_nanos(rng.next_u64() % 400)
        }

        /// Run `model` to `horizon` with the probe on, settle what it owes
        /// the probe, and report.
        fn report<M: Model>(
            model: M,
            seed: impl FnOnce(&mut Engine<M>),
            horizon: SimTime,
            settle: impl FnOnce(&mut M, &mut ProbeHandle<'_>),
        ) -> (M, StageReport) {
            let mut engine = Engine::new(model);
            engine.set_probe(Probe::new(ProbeConfig::enabled()));
            seed(&mut engine);
            engine.run_until(horizon);
            let mut recorder = std::mem::take(engine.probe_mut());
            settle(
                engine.model_mut(),
                &mut ProbeHandle::new(horizon, Some(&mut recorder)),
            );
            let report = recorder.report(horizon);
            (engine.into_model(), report)
        }

        fn stage(probe: &mut Probe, cost: SimDuration) -> Stage<()> {
            Stage::new(probe.busy("stage"), probe.gauge("stage.inbox"), cost)
        }

        enum LiveEv {
            Send,
            Push,
            Done,
        }

        /// Every item pushed `hop` after it is sent, and done by event.
        struct Live {
            stage: Stage<()>,
            hop: SimDuration,
            departures: Vec<SimTime>,
        }

        impl Model for Live {
            type Event = LiveEv;
            fn handle(&mut self, ev: LiveEv, ctx: &mut Ctx<'_, LiveEv>) {
                match ev {
                    LiveEv::Send => ctx.schedule_in(self.hop, LiveEv::Push),
                    LiveEv::Push => self.stage.enqueue((), LiveEv::Done, ctx),
                    LiveEv::Done => {
                        self.stage.complete(ctx);
                        self.departures.push(ctx.now());
                        self.stage.resume(LiveEv::Done, ctx);
                    }
                }
            }
        }

        enum BookedEv {
            Send,
            Done,
        }

        /// The same items, booked by their sender.
        struct Booked {
            stage: Stage<()>,
            hop: SimDuration,
            departures: Vec<SimTime>,
            /// Whether an item arrived by the horizon and left after it.
            straddles: bool,
            horizon: SimTime,
        }

        impl Model for Booked {
            type Event = BookedEv;
            fn handle(&mut self, ev: BookedEv, ctx: &mut Ctx<'_, BookedEv>) {
                match ev {
                    BookedEv::Send => {
                        let done = self.stage.book(self.hop, ctx);
                        let arrive = ctx.now() + self.hop;
                        self.straddles |= arrive <= self.horizon && done > self.horizon;
                        ctx.schedule_at(done, BookedEv::Done);
                    }
                    BookedEv::Done => self.departures.push(ctx.now()),
                }
            }
        }

        #[test]
        fn a_booked_stage_departs_and_reports_as_a_live_one() {
            let ns = SimDuration::from_nanos;
            // Offload's queue manager (hop above cost), its TX core (hop
            // below cost), and the ideal NIC's zero hop.
            let shapes = [(ns(250), ns(140)), (ns(250), ns(680)), (ns(0), ns(10))];
            let mut straddled = 0;
            for (hop, cost) in shapes {
                for seed in 0..12 {
                    let mut rng = Rng::new(seed);
                    let max_gap = 2 * cost.as_nanos().max(20);
                    let sends = sends(&mut rng, max_gap);
                    let horizon = horizon(&mut rng, &sends);
                    let mut probe = Probe::new(ProbeConfig::enabled());
                    let live = Live {
                        stage: stage(&mut probe, cost),
                        hop,
                        departures: Vec::new(),
                    };
                    let booked = Booked {
                        stage: stage(&mut probe, cost).booked(),
                        hop,
                        departures: Vec::new(),
                        straddles: false,
                        horizon,
                    };
                    let (live, want) = report(
                        live,
                        |e| sends.iter().for_each(|&at| e.schedule_at(at, LiveEv::Send)),
                        horizon,
                        |_, _| {},
                    );
                    let (booked, got) = report(
                        booked,
                        |e| {
                            sends
                                .iter()
                                .for_each(|&at| e.schedule_at(at, BookedEv::Send))
                        },
                        horizon,
                        |m, p| m.stage.settle(horizon, p),
                    );
                    let what = format!("hop {hop}, cost {cost}, seed {seed}");
                    assert_eq!(booked.departures, live.departures, "{what}");
                    assert!(!want.stages.is_empty(), "{what}");
                    assert_eq!(got.stages, want.stages, "{what}");
                    straddled += usize::from(booked.straddles);
                }
            }
            assert!(straddled > 12, "too few horizons inside a busy period");
        }

        /// A dispatcher thread's inbox: notices that decide `k`
        /// assignments, and work a heartbeat unparked.
        #[derive(Clone, Copy)]
        enum Item {
            Notice(usize),
            Unparked,
            Emit,
        }

        const ASSIGN: SimDuration = SimDuration::from_nanos(80);
        const HOP: SimDuration = SimDuration::from_nanos(450);

        fn price(item: &Item) -> SimDuration {
            match item {
                Item::Notice(_) => SimDuration::from_nanos(60),
                Item::Unparked | Item::Emit => ASSIGN,
            }
        }

        /// A notice is pushed a queue hop after it is sent; unparked work
        /// the instant it is.
        fn hop(item: &Item) -> SimDuration {
            match item {
                Item::Notice(_) => HOP,
                _ => SimDuration::ZERO,
            }
        }

        enum ThreadEv {
            Send(Item),
            Push(Item),
            Done,
        }

        /// Today's dispatcher thread, as a live stage that put a notice's
        /// assignments at the head of its inbox and served each by event.
        struct Oracle {
            inbox: VecDeque<Item>,
            busy: bool,
            name: Busy,
            gauge: Gauge,
            assigned: Counter,
            written: Vec<SimTime>,
        }

        impl Oracle {
            fn resume(&mut self, ctx: &mut Ctx<'_, ThreadEv>) {
                ctx.probe().depth(&self.gauge, self.inbox.len());
                if let Some(head) = self.inbox.front().filter(|_| !self.busy) {
                    self.busy = true;
                    ctx.probe().busy(&self.name, true);
                    ctx.schedule_in(price(head), ThreadEv::Done);
                }
            }
        }

        impl Model for Oracle {
            type Event = ThreadEv;
            fn handle(&mut self, ev: ThreadEv, ctx: &mut Ctx<'_, ThreadEv>) {
                match ev {
                    ThreadEv::Send(item) => ctx.schedule_in(hop(&item), ThreadEv::Push(item)),
                    ThreadEv::Push(item) => {
                        self.inbox.push_back(item);
                        self.resume(ctx);
                    }
                    ThreadEv::Done => {
                        self.busy = false;
                        ctx.probe().busy(&self.name, false);
                        match self.inbox.pop_front().expect("an item in service") {
                            Item::Notice(k) => {
                                (0..k).for_each(|_| self.inbox.push_front(Item::Emit))
                            }
                            Item::Unparked | Item::Emit => {
                                ctx.probe().count(&self.assigned);
                                self.written.push(ctx.now());
                            }
                        }
                        self.resume(ctx);
                    }
                }
            }
        }

        /// The same thread, holding for a notice's assignments.
        struct Holding {
            thread: Stage<Item>,
            assigned: Counter,
            written: Vec<SimTime>,
        }

        impl Model for Holding {
            type Event = ThreadEv;
            fn handle(&mut self, ev: ThreadEv, ctx: &mut Ctx<'_, ThreadEv>) {
                match ev {
                    ThreadEv::Send(item) => ctx.schedule_in(hop(&item), ThreadEv::Push(item)),
                    ThreadEv::Push(item) => self.thread.push(item, hop(&item), ThreadEv::Done, ctx),
                    ThreadEv::Done => {
                        let now = ctx.now();
                        match self.thread.complete(ctx).expect("an item in service") {
                            Item::Notice(k) => {
                                let ends = (1..=k as u64).map(|i| now + ASSIGN * i);
                                self.written.extend(ends);
                                self.thread.hold(k, ASSIGN, ctx);
                            }
                            Item::Unparked | Item::Emit => {
                                ctx.probe().count(&self.assigned);
                                self.written.push(now);
                            }
                        }
                        self.thread.resume(ThreadEv::Done, ctx);
                    }
                }
            }
        }

        #[test]
        fn a_holding_stage_departs_and_reports_as_a_live_one() {
            let mut straddled = 0;
            for seed in 0..40 {
                let mut rng = Rng::new(seed);
                let sends = sends(&mut rng, 400);
                let items: Vec<Item> = (0..SENDS)
                    .map(|_| match rng.next_u64() % 8 {
                        0 => Item::Unparked,
                        k => Item::Notice(k as usize % 5),
                    })
                    .collect();
                let horizon = horizon(&mut rng, &sends);
                let mut probe = Probe::new(ProbeConfig::enabled());
                let (name, gauge) = (probe.busy("thread"), probe.gauge("thread.inbox"));
                let assigned = probe.counter("assigned");
                let oracle = Oracle {
                    inbox: VecDeque::new(),
                    busy: false,
                    name,
                    gauge,
                    assigned,
                    written: Vec::new(),
                };
                let holding = Holding {
                    thread: Stage::new(name, gauge, ASSIGN)
                        .priced(price)
                        .holding(assigned),
                    assigned,
                    written: Vec::new(),
                };
                fn send<M: Model<Event = ThreadEv>>(
                    e: &mut Engine<M>,
                    at: &[SimTime],
                    items: &[Item],
                ) {
                    for (&at, &item) in at.iter().zip(items) {
                        e.schedule_at(at, ThreadEv::Send(item));
                    }
                }
                let (oracle, want) =
                    report(oracle, |e| send(e, &sends, &items), horizon, |_, _| {});
                let (mut holding, got) = report(
                    holding,
                    |e| send(e, &sends, &items),
                    horizon,
                    |m, p| m.thread.settle(horizon, p),
                );
                holding.written.retain(|&at| at <= horizon);
                straddled += usize::from(holding.thread.free_at > horizon);
                assert_eq!(holding.written, oracle.written, "seed {seed}");
                assert_eq!(got.stages, want.stages, "seed {seed}");
                assert_eq!(got.counters, want.counters, "seed {seed}");
            }
            assert!(straddled > 4, "too few horizons inside a hold");
        }
    }

    /// One `Workers` driven directly through `start` and `end_run`.
    mod workers {
        use super::*;
        use cpu_model::TimerMode;

        const SLICE: SimDuration = SimDuration::from_micros(10);
        const PATH: InterruptPath = InterruptPath::LocalTimer(TimerMode::DuneMapped);

        enum Ev {
            Start(usize, Task),
            RunEnd(usize),
        }

        /// Starts what it is told to and records every run end.
        struct Driver {
            workers: Workers,
            ends: Vec<(SimTime, usize, RunEnd)>,
        }

        impl Model for Driver {
            type Event = Ev;
            fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
                match ev {
                    Ev::Start(w, task) => {
                        let fixed = SimDuration::ZERO;
                        self.workers.start(w, task, fixed, ctx, Ev::RunEnd(w));
                    }
                    Ev::RunEnd(w) => {
                        let end = self.workers.end_run(w, ctx);
                        self.ends.push((ctx.now(), w, end));
                    }
                }
            }
        }

        fn task(req_id: u64, service_us: u64) -> Task {
            let service = SimDuration::from_micros(service_us);
            Task::new(req_id, 0, service, SimTime::ZERO, SimTime::ZERO, 64)
        }

        /// Two preemptive workers under `faults`, given each `(at, worker,
        /// task)` start, run to the end. Every start must end in exactly
        /// one run-end event.
        fn drive(starts: &[(SimTime, usize, Task)], faults: FaultConfig) -> Engine<Driver> {
            let mut probe = Probe::new(ProbeConfig::enabled());
            let workers = Workers::new(2, &mut probe, "worker.start", "worker.done")
                .preemptive(Some(SLICE), PATH);
            let mut engine = Engine::new(Driver {
                workers,
                ends: Vec::new(),
            });
            engine.set_probe(probe);
            engine.set_faults(faults);
            for &(at, w, task) in starts {
                engine.schedule_at(at, Ev::Start(w, task));
            }
            engine.run();
            assert_eq!(engine.events_processed(), 2 * starts.len() as u64);
            assert_eq!(engine.model().ends.len(), starts.len());
            engine
        }

        /// When a fresh task started at `at` on an idle core ends `run` later.
        fn fresh_end(at: SimTime, run: SimDuration) -> SimTime {
            let host = CoreSpec::host_x86();
            at + ContextCosts::default().spawn(&host) + TimerMode::DuneMapped.set_cost(&host) + run
        }

        fn counter(engine: &mut Engine<Driver>, name: &str) -> u64 {
            let now = engine.now();
            engine.probe_mut().report(now).counter(name)
        }

        #[test]
        fn a_task_shorter_than_its_slice_finishes() {
            let t = task(1, 5);
            let mut e = drive(&[(SimTime::ZERO, 0, t)], FaultConfig::default());
            let end = fresh_end(SimTime::ZERO, t.service);
            assert_eq!(e.model().ends, vec![(end, 0, RunEnd::Finished(t))]);
            assert!(!e.model().workers.is_running(0));
            assert_eq!(e.model().workers.contexts.resident(), 0);
            assert_eq!(counter(&mut e, "worker.completed"), 1);
        }

        #[test]
        fn a_task_longer_than_its_slice_is_preempted_and_saved() {
            let t = task(2, 25);
            let mut e = drive(&[(SimTime::ZERO, 1, t)], FaultConfig::default());
            let host = CoreSpec::host_x86();
            let left = t.after_preemption(SLICE);
            assert_eq!(left.remaining, SimDuration::from_micros(15));
            let free_in = PATH.receive_cost(&host) + ContextCosts::default().save(&host);
            let end = RunEnd::Preempted {
                task: left,
                free_in,
            };
            let at = fresh_end(SimTime::ZERO, SLICE);
            assert_eq!(e.model().ends, vec![(at, 1, end)]);
            let workers = &e.model().workers;
            assert!(workers.contexts.is_saved(2), "the context is saved");
            assert!(!workers.is_running(1));
            assert_eq!(workers.preemptions(), 1);
            assert_eq!(counter(&mut e, "worker.preempted"), 1);
        }

        #[test]
        fn a_second_copy_of_a_saved_request_is_killed() {
            // Two copies of request 7 (a retransmission) on two workers:
            // the first to reach its slice end is saved and owns the
            // request, so the other is killed rather than saved again.
            let t = task(7, 25);
            let later = SimTime::from_micros(1);
            let mut e = drive(
                &[(SimTime::ZERO, 0, t), (later, 1, t)],
                FaultConfig::default(),
            );
            let left = t.after_preemption(SLICE);
            let host = CoreSpec::host_x86();
            let (at, w, end) = &e.model().ends[1];
            assert_eq!((*at, *w), (fresh_end(later, SLICE), 1));
            let free_in = PATH.receive_cost(&host);
            assert_eq!(
                *end,
                RunEnd::DupKilled {
                    task: left,
                    free_in
                }
            );
            assert!(matches!(e.model().ends[0].2, RunEnd::Preempted { .. }));
            assert_eq!(e.model().workers.contexts.resident(), 1, "one saved copy");
            assert_eq!(e.model().workers.preemptions(), 1);
            assert_eq!(counter(&mut e, "worker.dup_killed"), 1);
        }

        #[test]
        fn a_crash_mid_run_strands_the_task() {
            let t = task(3, 5);
            let faults = FaultConfig::default().with_crash(0, SimTime::from_micros(2));
            let mut e = drive(&[(SimTime::ZERO, 0, t)], faults);
            let end = fresh_end(SimTime::ZERO, t.service);
            assert_eq!(e.model().ends, vec![(end, 0, RunEnd::Stranded)]);
            let workers = &e.model().workers;
            assert!(workers.is_running(0), "the dead core keeps its task");
            assert_eq!(workers.stranded, 1);
            assert_eq!(counter(&mut e, "worker.stranded"), 1);
        }
    }
}
