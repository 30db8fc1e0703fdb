//! Plumbing shared by every system assembly: addressing conventions, the
//! open-loop client (with its reliability layer), the resilience
//! configuration every assembly accepts, the stale-feedback governor, the
//! lossy client↔server wire with the codec check every frame passes, the
//! serial [`Stage`] every dispatcher core is built from, the client's side
//! of every assembly's event loop, and metric assembly.

use std::collections::{BTreeSet, VecDeque};

use cpu_model::Core;
use net_wire::{
    Endpoint, EthernetAddress, FrameHeader, FrameSpec, Ipv4Address, MsgKind, MsgRepr, ParsedFrame,
};
use nic_model::{Link, Ring};
use nicsched::{
    AdmissionPolicy, CoreFeedback, CoreSelector, Dispatcher, FeedbackChannel, SchedPolicy, Task,
};
use sim_core::faults::FaultConfig;
use sim_core::probe::{Busy, Counter, Gauge, Hop};
use sim_core::{Ctx, IdTable, InvariantChecker, InvariantConfig, Probe, Rng, SimDuration, SimTime};
use workload::{
    ArrivalGen, ArrivalProcess, FaultMetrics, LatencyRecorder, ReqClass, RetryPolicy, RunMetrics,
    WorkloadSpec,
};

/// Seed salt for the fault plan's private random stream, so fault
/// decisions never perturb the workload's own streams.
pub const FAULT_SEED_SALT: u64 = 0x5EED_FA17;

/// Stretch a duration by a slowdown factor (thermal-throttle windows
/// multiply wall time while the amount of useful work is unchanged).
/// Delegates to the canonical float boundary in sim-core rather than
/// casting here, so simlint's time-float-cast rule has one waiver site.
pub(crate) fn scale_duration(d: SimDuration, factor: f64) -> SimDuration {
    d.mul_f64(factor)
}

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
/// from each assembly's own config struct so existing call sites stay
/// untouched: `run_probed` is `run_resilient_probed` with
/// `ResilienceConfig::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceConfig {
    /// Timed fault events (loss, bursts, crashes, stalls, blackouts).
    pub faults: FaultConfig,
    /// Client-side timeout/retry policy (`None` = fire-and-forget).
    pub retry: Option<RetryPolicy>,
    /// Dispatcher admission policy (ignored by assemblies without a
    /// central dispatcher, where per-worker rings already tail-drop).
    pub admission: AdmissionPolicy,
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
    /// Whether anything here deviates from the legacy fault-free path.
    pub fn is_active(&self) -> bool {
        !self.faults.is_none()
            || self.retry.is_some()
            || !self.admission.is_open()
            || self.fallback.is_some()
            || self.recovery.is_some()
    }

    /// The ISSUE-2 acceptance scenario: 1% wire loss plus a mid-run crash
    /// of `worker` at `at`, with retries and the staleness fallback on.
    pub fn loss_and_crash(worker: usize, at: SimTime) -> ResilienceConfig {
        ResilienceConfig {
            faults: FaultConfig::default()
                .with_wire_loss(0.01)
                .with_crash(worker, at),
            retry: Some(RetryPolicy::paper_default()),
            admission: AdmissionPolicy::Open,
            fallback: Some(StalenessPolicy::paper_default()),
            recovery: None,
            invariants: InvariantConfig::disabled(),
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

/// Build the engine-resident invariant checker for `res` (disabled unless
/// the config asks for the invcheck pass).
pub(crate) fn checker_for(res: &ResilienceConfig) -> InvariantChecker {
    InvariantChecker::new(res.invariants)
}

/// End-of-run conservation audit, shared by every assembly: the request
/// ledger must close (`launched = completed + abandoned + still-open`,
/// attempts itemised) and the client's bookkeeping must be self-consistent.
/// Then panic with the accumulated report if the run violated anything.
pub(crate) fn close_invariants(mut inv: InvariantChecker, at: SimTime, m: &RunMetrics) {
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
/// quarantine switches. Owned by the informed assemblies; baselines are
/// already hash-steered and need none of this.
#[derive(Debug)]
pub struct FeedbackGovernor {
    channel: FeedbackChannel,
    policy: StalenessPolicy,
    degraded: bool,
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
            degraded: false,
            degraded_since: None,
            quarantined: vec![false; n_workers],
            switches: 0,
            degraded_ns: 0,
            quarantines: 0,
        }
    }

    /// The governor's staleness policy.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// Worker side: a liveness report at `now` (suppressed by the caller
    /// during blackouts, stalls and after crashes — that suppression is
    /// exactly what the governor detects).
    pub fn report(&mut self, now: SimTime, worker: usize, occupancy: u32, busy: bool) {
        self.channel.send(
            now,
            CoreFeedback {
                worker,
                occupancy,
                busy,
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
        if degraded != self.degraded {
            if degraded {
                self.switches += 1;
                self.degraded_since = Some(now);
            } else if let Some(since) = self.degraded_since.take() {
                self.degraded_ns += now.saturating_duration_since(since).as_nanos();
            }
            self.degraded = degraded;
            disp.set_degraded(degraded);
        }
    }

    /// Whether the governor currently holds the dispatcher degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
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
/// way, lossy at the fault plan's i.i.d. rate, plus the plan's burst loss.
/// It counts what it drops and schedules the arrival of what it carries.
/// Its codec check covers every frame of the assembly: the wire's own,
/// and the in-machine hops' through `codec`. It also holds the probe keys
/// of the whole client edge, since [`Client::on_event`] records through
/// the wire it sends on.
#[derive(Debug)]
pub struct Wire {
    to_server: Link,
    to_client: Link,
    /// The codec check of the assembly's frames.
    pub(crate) codec: FrameCodec,
    keys: EdgeKeys,
    /// Request frames lost on the client→server wire (i.i.d. + burst).
    pub req_lost: u64,
    /// Response/NACK frames lost on the server→client wire.
    pub resp_lost: u64,
    /// Early NACK frames sent for shed requests.
    pub nacks: u64,
}

/// The client edge's probe keys: the client's and the wire's counters,
/// and the marks that open and close every request's chain.
#[derive(Debug)]
struct EdgeKeys {
    sent: Counter,
    nacks: Counter,
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
                nacks: probe.counter("client.nacks"),
                responses: probe.counter("client.responses"),
                retries: probe.counter("client.retries"),
                req_lost: probe.counter("wire.req_lost"),
                resp_lost: probe.counter("wire.resp_lost"),
                send: probe.hop("path.0_client_send"),
                response: probe.hop(response),
            },
            req_lost: 0,
            resp_lost: 0,
            nacks: 0,
        }
    }

    /// Transmit a client→server frame now and schedule its arrival at the
    /// server, unless the wire loses it.
    pub(crate) fn request<E: ClientEdge>(&mut self, spec: FrameSpec, ctx: &mut Ctx<'_, E>) {
        let spec = self.codec.build(spec);
        match transmit(&mut self.to_server, spec, ctx.now(), ctx) {
            Some(at) => ctx.schedule_at(at, E::at_server(spec)),
            None => {
                self.req_lost += 1;
                ctx.probe().count(&self.keys.req_lost);
            }
        }
    }

    /// Transmit a server→client frame (response or NACK) leaving at
    /// `depart` and schedule its arrival at the client, unless the wire
    /// loses it.
    pub(crate) fn response<E: ClientEdge>(
        &mut self,
        spec: FrameSpec,
        depart: SimTime,
        ctx: &mut Ctx<'_, E>,
    ) {
        let spec = self.codec.build(spec);
        match transmit(&mut self.to_client, spec, depart, ctx) {
            Some(at) => ctx.schedule_at(at, E::client(ClientEv::Response(spec))),
            None => {
                self.resp_lost += 1;
                ctx.probe().count(&self.keys.resp_lost);
            }
        }
    }

    /// Tell the client, by a NACK frame leaving at `depart`, that the
    /// dispatcher shed `task`, so it retries without waiting for its
    /// timeout.
    pub(crate) fn nack<E: ClientEdge>(
        &mut self,
        task: &Task,
        depart: SimTime,
        ctx: &mut Ctx<'_, E>,
    ) {
        self.nacks += 1;
        let spec = FrameSpec {
            src_mac: AddressPlan::dispatcher_mac(),
            dst_mac: AddressPlan::client_mac(),
            src: AddressPlan::dispatcher_ep(),
            dst: AddressPlan::client_ep(),
            msg: MsgRepr {
                service_ns: 0,
                ..task_msg(MsgKind::Nack, task)
            },
        };
        self.response(spec, depart, ctx);
    }
}

/// A serial core: one of the offload's networker, queue-manager, TX and RX
/// ARM cores (§3.4.1), or a Shinjuku group's networker or dispatcher
/// thread. It serves one item at a time from its FIFO inbox, each for
/// `cost` (or `price` of the item, when set), and reports its busy time and
/// its queue's depth (on every push and every finished item) to the probe
/// under `name` and `gauge`. A networker is
/// fed by a NIC RX ring instead, because ring occupancy decides tail drops:
/// it leaves its inbox empty and hands the ring to [`Stage::poll`].
pub(crate) struct Stage<T> {
    inbox: VecDeque<T>,
    busy: bool,
    cost: SimDuration,
    price: Option<fn(&T) -> SimDuration>,
    name: Busy,
    gauge: Gauge,
}

impl<T> Stage<T> {
    /// An idle stage with an empty inbox whose items each take `cost`.
    pub fn new(name: Busy, gauge: Gauge, cost: SimDuration) -> Stage<T> {
        Stage {
            inbox: VecDeque::new(),
            busy: false,
            cost,
            price: None,
            name,
            gauge,
        }
    }

    /// This stage, charging `price(item)` for each item instead.
    pub fn priced(self, price: fn(&T) -> SimDuration) -> Stage<T> {
        Stage {
            price: Some(price),
            ..self
        }
    }

    /// `item` joins the back of the inbox, then [`Stage::resume`].
    pub fn enqueue<E>(&mut self, item: T, done: E, ctx: &mut Ctx<'_, E>) {
        self.inbox.push_back(item);
        self.resume(done, ctx);
    }

    /// `item` goes to the head of the inbox, to be served next.
    pub fn push_front(&mut self, item: T) {
        self.inbox.push_front(item);
    }

    /// The item in service finished: the stage goes idle and hands it back
    /// (`None` for a stage [`Stage::poll`] feeds). Call [`Stage::resume`]
    /// or [`Stage::poll`] once its work is done.
    pub fn complete<E>(&mut self, ctx: &mut Ctx<'_, E>) -> Option<T> {
        self.set_busy(false, ctx);
        self.inbox.pop_front()
    }

    /// Sample the inbox; an idle stage then starts on its head item and
    /// schedules `done` for when it finishes.
    pub fn resume<E>(&mut self, done: E, ctx: &mut Ctx<'_, E>) {
        let cost = match (self.price, self.inbox.front()) {
            (Some(price), Some(item)) => price(item),
            _ => self.cost,
        };
        self.serve(self.inbox.len(), cost, done, ctx);
    }

    /// [`Stage::resume`] for a stage fed by `ring`.
    pub fn poll<E>(&mut self, ring: &Ring, done: E, ctx: &mut Ctx<'_, E>) {
        self.serve(ring.len(), self.cost, done, ctx);
    }

    fn serve<E>(&mut self, waiting: usize, cost: SimDuration, done: E, ctx: &mut Ctx<'_, E>) {
        ctx.probe().depth(&self.gauge, waiting);
        if !self.busy && waiting > 0 {
            self.set_busy(true, ctx);
            ctx.schedule_in(cost, done);
        }
    }

    fn set_busy<E>(&mut self, busy: bool, ctx: &mut Ctx<'_, E>) {
        self.busy = busy;
        ctx.probe().busy(&self.name, busy);
    }
}

/// The client's three events, the same in every assembly.
pub(crate) enum ClientEv {
    /// The client emits its next request.
    Send,
    /// A response or NACK frame reaches the client.
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

/// Apply burst loss, then the link's own loss, to a frame of the spec's
/// wire length: its arrival time, or `None` if it was lost.
fn transmit<E>(
    link: &mut Link,
    spec: FrameSpec,
    at: SimTime,
    ctx: &mut Ctx<'_, E>,
) -> Option<SimTime> {
    if ctx.faults().burst_frame_lost(at) {
        return None;
    }
    link.transmit_lossy(at, spec.frame_len() - net_wire::ethernet::HEADER_LEN)
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

/// What a per-attempt timeout (or early NACK) resolves to.
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

    /// The retry policy, if reliability is armed.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// The workload being generated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Replace the arrival process (e.g. a bursty MMPP instead of the
    /// default Poisson at `spec.offered_rps`), keeping determinism by
    /// forking the stream from `master`.
    pub fn override_arrivals(&mut self, process: ArrivalProcess, master: &mut Rng) {
        self.arrivals = ArrivalGen::new(process, master.fork());
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
        let mut src = AddressPlan::client_ep();
        // 1024 distinct source ports → plenty of flows for RSS.
        src.port = 7000 + (self.port_cursor % 1024);
        let msg = MsgRepr::request(
            id,
            self.client_id,
            service.as_nanos(),
            now.as_nanos(),
            self.spec.body_len,
        );
        self.outstanding.insert(id, PendingReq { msg, attempt: 1 });
        FrameSpec {
            src_mac: AddressPlan::client_mac(),
            dst_mac: AddressPlan::dispatcher_mac(),
            src,
            dst: AddressPlan::dispatcher_ep(),
            msg,
        }
    }

    /// The timeout to arm right after transmitting `req_id` (`None` when
    /// reliability is off or the request already resolved). Returns the
    /// attempt number to stamp into the timeout event, so stale firings
    /// from superseded attempts can be ignored (the engine's
    /// generation-counter cancellation idiom).
    pub fn arm_timeout(&self, req_id: u64) -> Option<(u32, SimDuration)> {
        let policy = self.retry?;
        let pending = self.outstanding.get(req_id)?;
        Some((pending.attempt, policy.timeout_for(pending.attempt)))
    }

    /// Rebuild the wire frame for a retransmission of `req_id`. The
    /// message is byte-identical to the original (same id, service time
    /// and send timestamp — latency is measured from the *first*
    /// transmission); only the source port is re-derived so the flow
    /// stays stable for RSS.
    fn rebuild_frame(&self, msg: MsgRepr) -> FrameSpec {
        let mut src = AddressPlan::client_ep();
        src.port = 7000 + (msg.req_id % 1024) as u16;
        FrameSpec {
            src_mac: AddressPlan::client_mac(),
            dst_mac: AddressPlan::dispatcher_mac(),
            src,
            dst: AddressPlan::dispatcher_ep(),
            msg,
        }
    }

    /// Resolve a live attempt that will never get a response: either
    /// retransmit (bumping the attempt) or abandon the request.
    fn expire(&mut self, req_id: u64) -> TimeoutOutcome {
        let Some(policy) = self.retry else {
            return TimeoutOutcome::Stale;
        };
        let Some(pending) = self.outstanding.get_mut(req_id) else {
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
            frame: self.rebuild_frame(msg),
            attempt,
            timeout: policy.timeout_for(attempt),
        }
    }

    /// A timeout armed for (`req_id`, `attempt`) fired at `now`.
    pub fn on_timeout(&mut self, _now: SimTime, req_id: u64, attempt: u32) -> TimeoutOutcome {
        match self.outstanding.get(req_id) {
            Some(p) if p.attempt == attempt => {}
            _ => return TimeoutOutcome::Stale, // resolved or superseded
        }
        self.timeouts += 1;
        self.expire(req_id)
    }

    /// An early NACK for `req_id` arrived at `now`: the dispatcher shed
    /// the current attempt, so resolve it immediately instead of waiting
    /// for the timeout.
    pub fn on_nack(&mut self, _now: SimTime, req_id: u64) -> TimeoutOutcome {
        if !self.outstanding.contains_key(req_id) {
            return TimeoutOutcome::Stale;
        }
        self.expire(req_id)
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
    /// record a response, or retransmit after a NACK or a timeout.
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
            ClientEv::Response(spec) if spec.msg.kind == MsgKind::Nack => {
                ctx.probe().count(&wire.keys.nacks);
                self.on_nack(now, spec.msg.req_id)
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
    /// model-side counters: link losses, ring drops, sheds, strandings).
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

/// Mean utilization of `cores` over a run ending at `horizon`.
pub(crate) fn mean_utilization<'a>(
    cores: impl Iterator<Item = &'a Core> + Clone,
    horizon: SimTime,
) -> f64 {
    cores.clone().map(|c| c.utilization(horizon)).sum::<f64>() / cores.count() as f64
}

/// Assemble [`RunMetrics`] from a client, its wire and system counters;
/// `dropped` counts the wire's losses, to which an assembly adds its own.
pub fn assemble_metrics(
    client: &Client,
    wire: &Wire,
    preemptions: u64,
    worker_utilization: f64,
) -> RunMetrics {
    let rec = &client.recorder;
    RunMetrics {
        offered_rps: client.spec().offered_rps,
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
        preemptions,
        worker_utilization,
        stages: None,
        faults: FaultMetrics {
            req_link_lost: wire.req_lost,
            resp_link_lost: wire.resp_lost,
            nacks: wire.nacks,
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
    fn nack_triggers_immediate_retry() {
        let mut master = Rng::new(5);
        let mut client = Client::new(spec(), &mut master);
        client.enable_retries(RetryPolicy::paper_default());
        let f = client.make_request(SimTime::ZERO);
        let out = client.on_nack(SimTime::from_micros(5), f.msg.req_id);
        assert!(matches!(out, TimeoutOutcome::Retry { attempt: 2, .. }));
        assert_eq!(client.timeouts, 0, "a NACK is not a timeout");
        assert_eq!(client.retries, 1);
        assert_eq!(
            client.on_nack(SimTime::from_micros(5), 999),
            TimeoutOutcome::Stale
        );
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
        gov.report(us(1), 0, 0, false);
        gov.report(us(1), 1, 0, false);
        gov.evaluate(us(5), &mut disp);
        assert!(!gov.is_degraded());
        // Worker 1 goes silent; worker 0 keeps reporting. Evaluate after the
        // 2 µs channel latency so the fresh report has actually landed.
        gov.report(us(30), 0, 0, false);
        gov.evaluate(us(33), &mut disp);
        assert!(!gov.is_degraded(), "one stale of two is not a majority");
        gov.report(us(80), 0, 0, false);
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
        gov.report(us(140), 0, 0, false);
        gov.report(us(140), 1, 0, false);
        gov.evaluate(us(143), &mut disp);
        assert!(!gov.is_degraded());
        assert!(!disp.is_excluded(1));
        assert_eq!(gov.fallback_ns(us(143)), gov.degraded_ns);
        assert!(gov.degraded_ns >= 13_000, "degraded 130->143us");
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
        let wire = Wire::new(
            &ResilienceConfig::default(),
            &mut master,
            &mut Probe::default(),
            "path.1_response",
        );
        let m = assemble_metrics(&client, &wire, 3, 0.5);
        assert_eq!(m.completed, 1);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.preemptions, 3);
        assert_eq!(m.p99, SimDuration::from_micros(15));
    }
}
