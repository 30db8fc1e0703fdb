//! Shinjuku-Offload: the networking subsystem and dispatcher on the
//! SmartNIC, workers on host cores (§3.4).
//!
//! The packet path follows Figure 1 of the paper:
//!
//! 1. A request frame arrives at the SmartNIC and is steered by MAC to the
//!    ARM-side interface, where the **networker** stage parses it.
//! 2. The networker hands the request to the dispatcher's **queue-manager**
//!    core over ARM shared memory (§3.4.1 splits the dispatcher across
//!    three ARM cores).
//! 3. The queue manager runs the centralized FIFO + queuing-optimization
//!    logic ([`nicsched::Dispatcher`]) and passes assignments to the **TX**
//!    core, which constructs a UDP frame to the worker's SR-IOV VF
//!    (§3.4.2) — the expensive step that makes TX the bottleneck stage.
//! 4. The worker polls its VF ring, spawns/restores a context, runs the
//!    request, and preempts itself with a Dune-mapped APIC timer when the
//!    slice expires (§3.4.4).
//! 5. Finished → response to the client + `Done` to the NIC; preempted →
//!    `Preempted` with remaining work. Either way the **RX** core parses
//!    the notification and feeds it back to the queue manager.
//!
//! Every hop carries a typed Ethernet/IPv4/UDP frame (`net_wire::FrameSpec`)
//! whose length sets link time and DDIO footprint; under invariant checking
//! each one is also built into bytes and parsed back by `net-wire`. The
//! system is generic over [`NicProfile`], which is how the CXL /
//! ideal-NIC ablations reuse this assembly unchanged.

use std::collections::{BTreeMap, VecDeque};

use cpu_model::{
    ContextCosts, ContextPool, Core, CoreId, CoreSpec, InterruptPath, OneShotTimer, Topology,
    CROSS_SOCKET_PENALTY,
};
use net_wire::{FrameSpec, MsgKind, MsgRepr};
use nic_model::{packet_lines, Ddio, IfaceId, NicDevice, Placement, QueueSteering};
use nicsched::{
    params, AdmitOutcome, Assignment, CoreSelector, Dispatcher, LeastOutstanding, NicProfile,
    PolicySpec, PreemptDecision, RecoveryPolicy, SchedPolicy, SocketAffinity, Task,
};
use sim_core::probe::{Busy, Counter, Family, Gauge, Hop};
use sim_core::{Ctx, Engine, Model, Probe, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    absorb_dispatcher, assemble_metrics, mean_utilization, scale_duration, task_msg, AddressPlan,
    Assembly, Client, ClientEdge, ClientEv, FeedbackGovernor, ResilienceConfig, Stage, Wire,
};

/// Configuration of a Shinjuku-Offload instance.
#[derive(Debug, Clone, Copy)]
pub struct OffloadConfig {
    /// Host worker cores (the offload frees one extra vs vanilla Shinjuku).
    pub workers: usize,
    /// Outstanding-requests cap per worker (§3.4.5; the paper settles on 5).
    pub outstanding_cap: u32,
    /// Preemption time slice; `None` disables preemption (the paper turns
    /// it off for the fixed-service-time figures).
    pub time_slice: Option<SimDuration>,
    /// The NIC hardware design point.
    pub profile: NicProfile,
    /// DDIO cache-placement configuration.
    pub ddio_l1: bool,
    /// Centralized queue policy (the paper's prototype uses FCFS, §3.4.1;
    /// the framework makes it programmable, §5.1(4)). Any shipped policy
    /// with its parameters, e.g. `PolicySpec::parse("edf:deadline=50us")`.
    pub policy: PolicySpec,
    /// Model the dual-socket host (§1/§4): workers split across two
    /// sockets; DDIO pre-loads into socket 0's LLC (where the NIC hangs),
    /// so socket-1 workers pay a QPI/UPI hop per packet line.
    pub dual_socket: bool,
    /// Use the socket-aware core selector (prefer NIC-socket workers)
    /// instead of plain least-outstanding. Only meaningful with
    /// `dual_socket`.
    pub socket_aware: bool,
    /// §5.2 congestion-control co-design: the NIC stamps its scheduler
    /// load into responses and the client paces itself toward this queue
    /// depth. `None` = the paper's pure open loop.
    pub jit_target_depth: Option<u64>,
    /// Per-frame corruption probability on the client↔server wire
    /// (request and response frames only — the in-machine dispatcher paths
    /// are PCIe, not a lossy cable). 0.0 = pristine.
    pub wire_loss: f64,
    /// Override the client's arrival process (default: Poisson at
    /// `spec.offered_rps`). Lets experiments drive bursty MMPP arrivals.
    pub arrivals: Option<workload::ArrivalProcess>,
}

impl OffloadConfig {
    /// The paper's §4 configuration: Stingray profile, 10 µs slice.
    pub fn paper(workers: usize, outstanding_cap: u32) -> OffloadConfig {
        OffloadConfig {
            workers,
            outstanding_cap,
            time_slice: Some(params::TIME_SLICE),
            profile: NicProfile::stingray(),
            ddio_l1: false,
            policy: PolicySpec::FCFS,
            dual_socket: false,
            socket_aware: false,
            jit_target_depth: None,
            wire_loss: 0.0,
            arrivals: None,
        }
    }
}

/// Events of the offload model.
#[doc(hidden)]
pub enum Ev {
    /// The client sends, receives, or times out.
    Client(ClientEv),
    /// A frame from the client link reaches the NIC.
    WireToNic(FrameSpec),
    /// The networker stage finished parsing one frame.
    NetworkerDone,
    /// An item crosses ARM shared memory into the queue manager.
    QmPush(QmItem),
    /// The queue-manager stage finished one item.
    QmDone,
    /// An assignment crosses ARM shared memory into the TX core.
    TxPush(Assignment),
    /// The TX stage finished building one worker frame.
    TxDone,
    /// An assignment frame lands in a worker's VF RX ring.
    WorkerFrame(usize, FrameSpec),
    /// A worker polls its ring for work.
    WorkerPoll(usize),
    /// A worker's current execution ends (finish or slice expiry).
    WorkerRunEnd {
        /// Worker index.
        worker: usize,
        /// Timer generation guarding against stale firings.
        gen: u64,
    },
    /// A worker notification frame reaches the ARM RX core.
    RxNotif(FrameSpec),
    /// The RX stage finished parsing one notification.
    RxDone,
    /// A worker's periodic liveness heartbeat to the NIC-side governor.
    Heartbeat(usize),
}

impl ClientEdge for Ev {
    fn client(ev: ClientEv) -> Ev {
        Ev::Client(ev)
    }
    fn at_server(spec: FrameSpec) -> Ev {
        Ev::WireToNic(spec)
    }
}

/// Items crossing into the queue-manager core.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum QmItem {
    NewTask(Task),
    Done {
        worker: usize,
        req_id: u64,
    },
    Preempted {
        worker: usize,
        task: Task,
    },
    /// A lease-renewal heartbeat frame from a worker (recovery only).
    Heartbeat {
        worker: usize,
    },
}

/// Per-worker state.
struct Worker {
    core: Core,
    timer: OneShotTimer,
    running: Option<Running>,
    /// DDIO placements for frames queued in this worker's ring, FIFO.
    pending_placement: VecDeque<Placement>,
    /// When this worker last went idle (probe-only: measures the feedback
    /// gap as the idle interval before the next assignment arrives).
    idle_since: Option<SimTime>,
}

struct Running {
    task: Task,
    /// Time this dispatch will execute before finish/preemption.
    run: SimDuration,
}

/// The offload's probe keys beyond its stages and client edge, registered
/// once at construction.
struct Keys {
    rx_frames: Counter,
    parsed: Counter,
    enqueued: Counter,
    shed: Counter,
    done: Counter,
    requeued: Counter,
    heartbeats: Counter,
    tx_built: Counter,
    notifs: Counter,
    stranded: Counter,
    completed: Counter,
    dup_killed: Counter,
    preempted: Counter,
    ring_drops: Counter,
    fallback_switch: Counter,
    redispatch: Counter,
    central: Gauge,
    ring: Family<Gauge>,
    worker: Family<Busy>,
    idle_gap: Hop,
    nic_parse: Hop,
    qm_admit: Hop,
    tx_build: Hop,
    worker_start: Hop,
    worker_done: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            parsed: probe.counter("networker.parsed"),
            enqueued: probe.counter("qm.enqueue"),
            shed: probe.counter("qm.shed"),
            done: probe.counter("qm.done"),
            requeued: probe.counter("qm.preempt_requeue"),
            heartbeats: probe.counter("qm.heartbeat"),
            tx_built: probe.counter("tx.built"),
            notifs: probe.counter("rx.notifs"),
            stranded: probe.counter("worker.stranded"),
            completed: probe.counter("worker.completed"),
            dup_killed: probe.counter("worker.dup_killed"),
            preempted: probe.counter("worker.preempted"),
            ring_drops: probe.counter("worker.ring_drops"),
            fallback_switch: probe.counter("fallback.switch"),
            redispatch: probe.counter("recovery.redispatch"),
            central: probe.gauge("qm.central"),
            ring: probe.gauge_family("worker.ring", workers),
            worker: probe.busy_family("worker", workers),
            idle_gap: probe.hop("worker.idle_gap"),
            nic_parse: probe.hop("path.1_nic_parse"),
            qm_admit: probe.hop("path.2_qm_admit"),
            tx_build: probe.hop("path.3_tx_build"),
            worker_start: probe.hop("path.4_worker_start"),
            worker_done: probe.hop("path.5_worker_done"),
        }
    }
}

/// The Shinjuku-Offload model; run it through [`crate::common::run`] or
/// [`ServerSystem`](crate::ServerSystem) on an [`OffloadConfig`].
pub struct Offload {
    cfg: OffloadConfig,
    client: Client,
    horizon: SimTime,
    wire: Wire,
    nic: NicDevice,
    disp_iface: IfaceId,
    worker_iface: Vec<IfaceId>,
    worker_by_mac: BTreeMap<net_wire::EthernetAddress, usize>,

    networker: Stage<()>,
    qm: Stage<QmItem>,
    tx: Stage<Assignment>,
    rx: Stage<FrameSpec>,

    dispatcher: Dispatcher<Box<dyn SchedPolicy>, Box<dyn CoreSelector>>,
    topology: Topology,
    /// First-arrival instants, so re-queued tasks keep their admission
    /// time. O(1) per request; any walk is in request-id order.
    task_meta: sim_core::IdTable<SimTime>,

    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    ddio: Ddio,
    host: CoreSpec,

    preemptions: u64,

    governor: Option<FeedbackGovernor>,
    /// NIC-side failure-detection policy, when recovery is enabled. The
    /// dispatcher owns the tracker; this copy drives the heartbeat cadence.
    recovery: Option<RecoveryPolicy>,
    /// Work that died with a crashed worker (running or in its ring).
    stranded: u64,
    keys: Keys,
}

impl Assembly for Offload {
    type Config = OffloadConfig;
    type Extra = ();

    fn name(_: &OffloadConfig) -> &'static str {
        "shinjuku-offload"
    }

    fn new(
        spec: WorkloadSpec,
        cfg: OffloadConfig,
        res: ResilienceConfig,
        probe: &mut Probe,
    ) -> Offload {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(target) = cfg.jit_target_depth {
            client.pacing = Some(crate::common::JitPacing::new(target));
        }
        if let Some(process) = cfg.arrivals {
            client.override_arrivals(process, &mut master);
        }
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        // The resilience plan's loss rate overrides the per-config knob.
        let faults = if res.faults.wire_loss > 0.0 {
            res.faults
        } else {
            res.faults.with_wire_loss(cfg.wire_loss)
        };
        let wire = Wire::new(
            &ResilienceConfig { faults, ..res },
            &mut master,
            probe,
            "path.6_response",
        );

        let mut nic = NicDevice::new(params::PCIE_DMA);
        let disp_iface = nic.add_iface(
            AddressPlan::dispatcher_mac(),
            1,
            1024,
            QueueSteering::Single,
        );
        let mut worker_iface = Vec::new();
        let mut worker_by_mac = BTreeMap::new();
        for w in 0..cfg.workers {
            let mac = AddressPlan::worker_mac(w);
            worker_iface.push(nic.add_iface(mac, 1, 128, QueueSteering::Single));
            worker_by_mac.insert(mac, w);
        }

        let t0 = SimTime::ZERO;
        let workers = (0..cfg.workers)
            .map(|w| Worker {
                core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                timer: OneShotTimer::new(),
                running: None,
                pending_placement: VecDeque::new(),
                idle_since: Some(t0),
            })
            .collect();

        let topology = if cfg.dual_socket {
            Topology::dual(cfg.workers as u8)
        } else {
            Topology::single(cfg.workers as u8)
        };
        let selector: Box<dyn CoreSelector> = if cfg.dual_socket && cfg.socket_aware {
            let sockets = (0..cfg.workers).map(|w| topology.socket_of(w)).collect();
            Box::new(SocketAffinity::new(sockets, 0))
        } else {
            Box::new(LeastOutstanding)
        };

        let mut dispatcher = Dispatcher::new(
            cfg.workers,
            cfg.outstanding_cap,
            cfg.policy.build(),
            selector,
        );
        dispatcher.set_admission(res.admission);
        if let Some(policy) = res.recovery {
            dispatcher.enable_recovery(policy);
        }
        let governor = res
            .fallback
            .map(|p| FeedbackGovernor::new(cfg.workers, cfg.profile.from_worker, p));
        // Each ARM stage's per-item compute cost under the profile.
        let arm = |host_cycles| cfg.profile.compute.stage_cost(host_cycles);

        Offload {
            dispatcher,
            topology,
            cfg,
            horizon: spec.horizon(),
            client,
            wire,
            nic,
            disp_iface,
            worker_iface,
            worker_by_mac,
            networker: Stage::new(
                probe.busy("networker"),
                probe.gauge("networker.ring"),
                arm(params::ARM_NET_PARSE_CYCLES),
            ),
            qm: Stage::new(
                probe.busy("qm"),
                probe.gauge("qm.inbox"),
                arm(params::ARM_QUEUE_OP_CYCLES),
            ),
            tx: Stage::new(
                probe.busy("tx"),
                probe.gauge("tx.queue"),
                arm(params::ARM_TX_BUILD_CYCLES),
            ),
            rx: Stage::new(
                probe.busy("rx"),
                probe.gauge("rx.queue"),
                arm(params::ARM_RX_PARSE_CYCLES),
            ),
            task_meta: sim_core::IdTable::new(),
            workers,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            ddio: if cfg.ddio_l1 {
                Ddio::informed_l1(4096)
            } else {
                Ddio::classic(4096)
            },
            host: CoreSpec::host_x86(),
            preemptions: 0,
            governor,
            recovery: res.recovery,
            stranded: 0,
            keys: Keys::new(probe, cfg.workers),
        }
    }

    fn seed(engine: &mut Engine<Offload>) {
        engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
        let model = engine.model();
        if model.governor.is_some() || model.recovery.is_some() {
            for w in 0..model.cfg.workers {
                engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(w));
            }
        }
    }

    fn metrics(&self, horizon: SimTime) -> (RunMetrics, ()) {
        let util = mean_utilization(self.workers.iter().map(|w| &w.core), horizon);
        let mut metrics = assemble_metrics(&self.client, &self.wire, self.preemptions, util);
        let fm = &mut metrics.faults;
        fm.ring_dropped = self.nic.total_drops();
        fm.stranded = self.stranded;
        absorb_dispatcher(fm, &self.dispatcher, self.governor.as_ref(), horizon);
        (metrics, ())
    }
}

impl Offload {
    /// Route a batch of dispatcher assignments toward the TX core.
    fn emit_assignments(&mut self, mut assignments: Vec<Assignment>, ctx: &mut Ctx<'_, Ev>) {
        for a in assignments.drain(..) {
            ctx.schedule_in(self.cfg.profile.stage_hop, Ev::TxPush(a));
        }
        self.dispatcher.recycle(assignments);
    }

    // ---- worker helpers -------------------------------------------------

    /// Start the next stashed request on an idle worker, if any.
    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.workers[w].running.is_some() {
            return;
        }
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            return; // dead silicon never polls again
        }
        if let Some(resume) = ctx.faults().worker_stalled_until(w, now) {
            ctx.schedule_at(resume, Ev::WorkerPoll(w));
            return;
        }
        let iface = self.worker_iface[w];
        let Some(frame) = self.nic.iface_mut(iface).rx[0].pop() else {
            self.workers[w].core.set_idle(ctx.now());
            ctx.probe().busy(self.keys.worker.at(w), false);
            if self.workers[w].idle_since.is_none() {
                self.workers[w].idle_since = Some(ctx.now());
            }
            return;
        };
        let ring_depth = self.nic.iface(iface).rx[0].len();
        ctx.probe().depth(self.keys.ring.at(w), ring_depth);
        // The measured feedback gap: how long this worker sat idle before
        // the NIC's (stale) view caught up and delivered more work.
        if let Some(idle_at) = self.workers[w].idle_since.take() {
            let gap = ctx.now().saturating_duration_since(idle_at);
            ctx.probe().hop(&self.keys.idle_gap, gap);
        }
        let msg = frame.spec.msg;
        if msg.kind != MsgKind::Assign {
            // Only the TX core addresses this VF, and only with Assign
            // frames; anything else is dropped and the worker keeps polling.
            self.workers[w].pending_placement.pop_front();
            ctx.schedule_now(Ev::WorkerPoll(w));
            return;
        }
        let placement = self.workers[w]
            .pending_placement
            .pop_front()
            .unwrap_or(Placement::Dram);

        let task = Task {
            req_id: msg.req_id,
            client_id: msg.client_id,
            service: SimDuration::from_nanos(msg.service_ns),
            remaining: SimDuration::from_nanos(msg.remaining_ns),
            sent_at: SimTime::from_nanos(msg.sent_at_ns),
            arrived_at: ctx.now(),
            body_len: msg.body_len,
            preemptions: 0,
            // The policy's slice grant rode the Assign frame's grant byte.
            preempt: PreemptDecision::from_grant_code(msg.grant_code),
        };

        // Overheads before useful work: parse, context spawn/restore,
        // first touch of the DMA'd payload, timer arming.
        let ctx_op = self.ctx_pool.begin(task.req_id);
        // Cross-socket first touch: DDIO homed the packet on socket 0's
        // LLC; a socket-1 worker pays the interconnect per line (§1).
        let interconnect = if self.cfg.dual_socket && self.topology.is_remote(w, 0) {
            CROSS_SOCKET_PENALTY
        } else {
            SimDuration::ZERO
        };
        let mut overhead = params::WORKER_RX_COST
            + ContextPool::op_cost(ctx_op, &self.ctx_costs, &self.host)
            + self.ddio.first_touch_from(
                placement,
                packet_lines(net_wire::message::HEADER_LEN + task.body_len as usize),
                interconnect,
            );
        self.ddio.release(
            placement,
            packet_lines(net_wire::message::HEADER_LEN + task.body_len as usize),
        );

        // The policy's per-dispatch grant resolves against the configured
        // slice (`Inherit` — grant byte 0 — reproduces the static timer).
        let run = match task.preempt.resolve(self.cfg.time_slice) {
            Some(slice) => {
                overhead += self.timer_set_cost();
                // A NIC-initiated interrupt lands one transport latency
                // after the slice expires, so the request overruns by that
                // much — §3.4.4's argument against packet-based preemption.
                let effective = slice + self.cfg.profile.interrupt.transport_latency();
                task.remaining.min(effective)
            }
            None => task.remaining,
        };

        ctx.probe().mark(task.req_id, &self.keys.worker_start);
        ctx.probe().busy(self.keys.worker.at(w), true);
        // A slowdown window stretches wall time; `run` stays in work units
        // so the finish/preempt decision at run end is unchanged.
        let slow = {
            let now = ctx.now();
            ctx.faults().worker_slowdown(w, now)
        };
        let wall = if slow > 1.0 {
            scale_duration(overhead + run, slow)
        } else {
            overhead + run
        };
        let worker = &mut self.workers[w];
        worker.core.set_busy(ctx.now());
        let end = ctx.now() + wall;
        let gen = worker.timer.arm(end);
        worker.running = Some(Running { task, run });
        ctx.schedule_at(end, Ev::WorkerRunEnd { worker: w, gen });
    }

    fn timer_set_cost(&self) -> SimDuration {
        match self.cfg.profile.interrupt {
            InterruptPath::LocalTimer(mode) => mode.set_cost(&self.host),
            // NIC-initiated interrupts need no worker-side arming.
            _ => SimDuration::ZERO,
        }
    }

    fn preempt_receive_cost(&self) -> SimDuration {
        self.cfg.profile.interrupt.receive_cost(&self.host)
    }

    /// Build the notification frame a worker sends to the dispatcher.
    fn notif_spec(&self, w: usize, msg: MsgRepr) -> FrameSpec {
        FrameSpec {
            src_mac: AddressPlan::worker_mac(w),
            dst_mac: AddressPlan::dispatcher_mac(),
            src: AddressPlan::worker_ep(w),
            dst: AddressPlan::dispatcher_ep(),
            msg,
        }
    }

    fn worker_run_end(&mut self, w: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        if !self.workers[w].timer.accept(gen) {
            return; // stale firing
        }
        let Running { task, run } = self.workers[w].running.take().expect("running");
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            // The worker died mid-request: no response, no Done. The
            // dispatcher's outstanding slot leaks until quarantine stops
            // feeding the corpse.
            self.ctx_pool.discard(task.req_id);
            self.stranded += 1;
            ctx.probe().count(&self.keys.stranded);
            return;
        }
        let finished = task.remaining <= run;

        if finished {
            ctx.probe().count(&self.keys.completed);
            ctx.probe().mark(task.req_id, &self.keys.worker_done);
            // Response to the client and Done to the dispatcher: two
            // packets, built back to back (§3.4.3).
            let resp_built = now + params::WORKER_TX_COST;
            let resp = FrameSpec {
                src_mac: AddressPlan::worker_mac(w),
                dst_mac: AddressPlan::client_mac(),
                src: AddressPlan::worker_ep(w),
                dst: AddressPlan::client_ep(),
                msg: MsgRepr {
                    // The NIC sees every departing response; in the §5.2
                    // co-design it stamps its instantaneous scheduler load
                    // (queued + in flight) for the client's pacer.
                    remaining_ns: self.dispatcher.queue_len() as u64
                        + self.dispatcher.total_outstanding() as u64,
                    body_len: task.body_len,
                    ..task_msg(MsgKind::Response, &task)
                },
            };
            let depart = resp_built + self.nic.dma_latency;
            self.wire.response(resp, depart, ctx);

            let notif_built = resp_built + params::WORKER_TX_COST;
            let done = self.notif_spec(w, task_msg(MsgKind::Done, &task));
            ctx.schedule_at(
                notif_built + self.cfg.profile.from_worker,
                Ev::RxNotif(self.wire.codec.build(done)),
            );

            self.ctx_pool.discard(task.req_id);
            self.workers[w].core.requests_run += 1;
            // The worker is free once both packets are built; it
            // immediately pulls the next stashed request (§3.4.5).
            ctx.schedule_at(notif_built, Ev::WorkerPoll(w));
        } else {
            // Slice expiry: take the interrupt, save the context, notify.
            let after = task.after_preemption(run);
            if self.ctx_pool.is_saved(after.req_id) {
                // A retransmitted copy of this request is already suspended
                // in DRAM: saving a second context would fork the request.
                // Kill this copy — the saved context owns the request — and
                // release the worker slot with a Done notification.
                ctx.probe().count(&self.keys.dup_killed);
                let free_at = now + self.preempt_receive_cost() + params::WORKER_TX_COST;
                let done = self.notif_spec(w, task_msg(MsgKind::Done, &after));
                ctx.schedule_at(
                    free_at + self.cfg.profile.from_worker,
                    Ev::RxNotif(self.wire.codec.build(done)),
                );
                ctx.schedule_at(free_at, Ev::WorkerPoll(w));
                return;
            }
            ctx.probe().count(&self.keys.preempted);
            self.preemptions += 1;
            self.workers[w].core.preemptions += 1;
            self.ctx_pool.save(after.req_id);
            let free_at = now
                + self.preempt_receive_cost()
                + self.ctx_costs.save(&self.host)
                + params::WORKER_TX_COST;
            let notif = self.notif_spec(
                w,
                MsgRepr {
                    remaining_ns: after.remaining.as_nanos(),
                    body_len: after.body_len,
                    ..task_msg(MsgKind::Preempted, &after)
                },
            );
            ctx.schedule_at(
                free_at + self.cfg.profile.from_worker,
                Ev::RxNotif(self.wire.codec.build(notif)),
            );
            ctx.schedule_at(free_at, Ev::WorkerPoll(w));
        }
    }
}

impl Model for Offload {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.nic.check_invariants(now, inv);
        self.client.check_invariants(now, inv);
        self.wire.codec.check_invariants(now, inv);
    }

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::Client(ev) => self.client.on_event(ev, &mut self.wire, ctx),
            Ev::WireToNic(spec) => {
                if let Some(d) = self.nic.steer(&spec) {
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), spec);
                    if d.iface == self.disp_iface {
                        ctx.probe().count(&self.keys.rx_frames);
                        self.networker
                            .poll(&self.nic.iface(d.iface).rx[0], Ev::NetworkerDone, ctx);
                    }
                }
            }
            Ev::NetworkerDone => {
                self.networker.complete(ctx);
                ctx.probe().count(&self.keys.parsed);
                if let Some(frame) = self.nic.iface_mut(self.disp_iface).rx[0].pop() {
                    let msg = frame.spec.msg;
                    if msg.kind == MsgKind::Request {
                        ctx.probe().mark(msg.req_id, &self.keys.nic_parse);
                        let task = Task::new(
                            msg.req_id,
                            msg.client_id,
                            SimDuration::from_nanos(msg.service_ns),
                            SimTime::from_nanos(msg.sent_at_ns),
                            ctx.now(),
                            msg.body_len,
                        );
                        ctx.schedule_in(
                            self.cfg.profile.stage_hop,
                            Ev::QmPush(QmItem::NewTask(task)),
                        );
                    }
                }
                let ring = &self.nic.iface(self.disp_iface).rx[0];
                self.networker.poll(ring, Ev::NetworkerDone, ctx);
            }
            Ev::QmPush(item) => self.qm.enqueue(item, Ev::QmDone, ctx),
            Ev::QmDone => {
                if let Some(item) = self.qm.complete(ctx) {
                    let now = ctx.now();
                    let assignments = match item {
                        QmItem::NewTask(task) => match self.dispatcher.offer(now, task) {
                            AdmitOutcome::Admitted(assignments) => {
                                ctx.probe().count(&self.keys.enqueued);
                                ctx.probe().mark(task.req_id, &self.keys.qm_admit);
                                self.task_meta.insert(task.req_id, task.arrived_at);
                                assignments
                            }
                            AdmitOutcome::Shed { nack } => {
                                ctx.probe().count(&self.keys.shed);
                                if nack {
                                    self.wire.nack(&task, now + self.nic.dma_latency, ctx);
                                }
                                Vec::new()
                            }
                        },
                        QmItem::Done { worker, req_id } => {
                            ctx.probe().count(&self.keys.done);
                            self.task_meta.remove(req_id);
                            self.dispatcher.on_done(now, worker, req_id)
                        }
                        QmItem::Preempted { worker, task } => {
                            ctx.probe().count(&self.keys.requeued);
                            ctx.probe().mark(task.req_id, &self.keys.qm_admit);
                            self.dispatcher.on_preempted(now, worker, task)
                        }
                        QmItem::Heartbeat { worker } => {
                            ctx.probe().count(&self.keys.heartbeats);
                            self.dispatcher.on_heartbeat(now, worker)
                        }
                    };
                    ctx.probe()
                        .depth(&self.keys.central, self.dispatcher.queue_len());
                    self.emit_assignments(assignments, ctx);
                }
                self.qm.resume(Ev::QmDone, ctx);
            }
            Ev::TxPush(a) => self.tx.enqueue(a, Ev::TxDone, ctx),
            Ev::TxDone => {
                ctx.probe().count(&self.keys.tx_built);
                if let Some(a) = self.tx.complete(ctx) {
                    ctx.probe().mark(a.task.req_id, &self.keys.tx_build);
                    let t = a.task;
                    let spec = FrameSpec {
                        src_mac: AddressPlan::dispatcher_mac(),
                        dst_mac: AddressPlan::worker_mac(a.worker),
                        src: AddressPlan::dispatcher_ep(),
                        dst: AddressPlan::worker_ep(a.worker),
                        msg: MsgRepr {
                            remaining_ns: t.remaining.as_nanos(),
                            body_len: t.body_len,
                            // The slice grant must survive the wire: the
                            // worker rebuilds its Task from this frame.
                            grant_code: t.preempt.grant_code(),
                            ..task_msg(MsgKind::Assign, &t)
                        },
                    };
                    ctx.schedule_in(
                        self.cfg.profile.to_worker,
                        Ev::WorkerFrame(a.worker, self.wire.codec.build(spec)),
                    );
                }
                self.tx.resume(Ev::TxDone, ctx);
            }
            Ev::WorkerFrame(w, spec) => {
                let now = ctx.now();
                if ctx.faults().worker_crashed(w, now) {
                    // Delivered to a dead worker's ring: nobody will ever
                    // poll it out.
                    self.stranded += 1;
                    ctx.probe().count(&self.keys.stranded);
                    return;
                }
                // DDIO placement happens at DMA time.
                let lines = packet_lines(spec.frame_len());
                let resident: usize = self.workers[w]
                    .pending_placement
                    .iter()
                    .filter(|p| **p == Placement::L1)
                    .count()
                    * lines;
                let placement = self.ddio.place(lines, resident);
                let iface = self.worker_iface[w];
                if self.nic.iface_mut(iface).rx[0].push(ctx.now(), spec) {
                    let depth = self.nic.iface(iface).rx[0].len();
                    ctx.probe().depth(self.keys.ring.at(w), depth);
                    self.workers[w].pending_placement.push_back(placement);
                    if self.workers[w].running.is_none() {
                        ctx.schedule_now(Ev::WorkerPoll(w));
                    }
                } else {
                    ctx.probe().count(&self.keys.ring_drops);
                    self.ddio.release(placement, lines);
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd { worker, gen } => self.worker_run_end(worker, gen, ctx),
            Ev::RxNotif(spec) => self.rx.enqueue(spec, Ev::RxDone, ctx),
            Ev::RxDone => {
                ctx.probe().count(&self.keys.notifs);
                if let Some(spec) = self.rx.complete(ctx) {
                    if let Some(&w) = self.worker_by_mac.get(&spec.src_mac) {
                        let msg = spec.msg;
                        let item = match msg.kind {
                            MsgKind::Done => Some(QmItem::Done {
                                worker: w,
                                req_id: msg.req_id,
                            }),
                            MsgKind::Preempted => {
                                let arrived =
                                    self.task_meta.get(msg.req_id).copied().unwrap_or(ctx.now());
                                Some(QmItem::Preempted {
                                    worker: w,
                                    task: Task {
                                        req_id: msg.req_id,
                                        client_id: msg.client_id,
                                        service: SimDuration::from_nanos(msg.service_ns),
                                        remaining: SimDuration::from_nanos(msg.remaining_ns),
                                        sent_at: SimTime::from_nanos(msg.sent_at_ns),
                                        arrived_at: arrived,
                                        body_len: msg.body_len,
                                        preemptions: 0,
                                        preempt: PreemptDecision::Inherit,
                                    },
                                })
                            }
                            MsgKind::Heartbeat => Some(QmItem::Heartbeat { worker: w }),
                            _ => None,
                        };
                        if let Some(item) = item {
                            ctx.schedule_in(self.cfg.profile.stage_hop, Ev::QmPush(item));
                        }
                    }
                }
                self.rx.resume(Ev::RxDone, ctx);
            }
            Ev::Heartbeat(w) => {
                let now = ctx.now();
                if now >= self.horizon {
                    return;
                }
                let silenced =
                    ctx.faults().worker_down(w, now) || ctx.faults().feedback_blackout(now);
                let occupancy = self.dispatcher.outstanding(w);
                let busy = self.workers[w].running.is_some();
                let mut assignments = Vec::new();
                let mut next = None;
                if let Some(gov) = self.governor.as_mut() {
                    if !silenced {
                        gov.report(now, w, occupancy, busy);
                    }
                    let was_degraded = gov.is_degraded();
                    gov.evaluate(now, &mut self.dispatcher);
                    if gov.is_degraded() != was_degraded {
                        ctx.probe().count(&self.keys.fallback_switch);
                    }
                    assignments = self.dispatcher.kick(now);
                    next = Some(gov.policy().heartbeat);
                }
                if let Some(policy) = self.recovery {
                    // Worker side: lease renewal rides a real Heartbeat
                    // frame over the notification wire — a silenced worker
                    // (crashed, stalled, or blacked out) cannot renew.
                    if !silenced {
                        let hb = self.notif_spec(
                            w,
                            MsgRepr {
                                kind: MsgKind::Heartbeat,
                                req_id: 0,
                                client_id: 0,
                                service_ns: 0,
                                remaining_ns: occupancy as u64,
                                sent_at_ns: now.as_nanos(),
                                body_len: 0,
                                grant_code: 0,
                            },
                        );
                        ctx.schedule_at(
                            now + self.cfg.profile.from_worker,
                            Ev::RxNotif(self.wire.codec.build(hb)),
                        );
                    }
                    // NIC side: expire leases and re-dispatch orphans on the
                    // same tick, so detection shares the indexed event queue
                    // with everything else (no wall clocks).
                    let recovered = self.dispatcher.check_health(now);
                    if !recovered.is_empty() {
                        ctx.probe().count(&self.keys.redispatch);
                    }
                    assignments.extend(recovered);
                    next = Some(
                        next.map_or(policy.heartbeat, |n: SimDuration| n.min(policy.heartbeat)),
                    );
                }
                self.emit_assignments(assignments, ctx);
                if let Some(interval) = next {
                    ctx.schedule_in(interval, Ev::Heartbeat(w));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: OffloadConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist,
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        }
    }

    #[test]
    fn light_load_completes_everything() {
        let spec = quick_spec(50_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, OffloadConfig::paper(4, 4));
        assert!(m.completed > 500, "completed {}", m.completed);
        assert!(
            !m.saturated(0.05),
            "should not saturate at 50k rps: {}",
            m.row()
        );
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn latency_includes_the_nic_round_trip() {
        // At near-zero load a 1us request still pays: wire, networker, QM,
        // TX build + 1.88us, worker overheads, 1us work, response path.
        let spec = quick_spec(5_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let m = run(spec, OffloadConfig::paper(2, 2));
        assert!(
            m.p50 > SimDuration::from_micros(5),
            "p50 {} should include the NIC path",
            m.p50
        );
        assert!(
            m.p50 < SimDuration::from_micros(20),
            "p50 {} suspiciously high",
            m.p50
        );
    }

    #[test]
    fn saturation_at_overload() {
        // 4 workers at 5us = 800k rps ideal capacity; offer way beyond it.
        let spec = quick_spec(1_500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, OffloadConfig::paper(4, 4));
        assert!(m.saturated(0.05), "must saturate: {}", m.row());
        assert!(m.achieved_rps < 900_000.0, "achieved {}", m.achieved_rps);
        assert!(m.worker_utilization > 0.9, "workers should be pegged");
    }

    #[test]
    fn preemption_bounds_short_request_tail_under_dispersion() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let with = run(spec, OffloadConfig::paper(4, 4));
        let without = run(
            spec,
            OffloadConfig {
                time_slice: None,
                ..OffloadConfig::paper(4, 4)
            },
        );
        assert!(
            with.preemptions > 0,
            "bimodal load must trigger preemptions"
        );
        assert_eq!(without.preemptions, 0);
        assert!(
            with.p99 < without.p99,
            "preemption should cut the tail: with={} without={}",
            with.p99,
            without.p99
        );
    }

    #[test]
    fn queuing_optimization_raises_throughput() {
        // The Figure 3 effect: more outstanding requests hide the NIC
        // round trip on short requests.
        let spec = quick_spec(1_200_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let k1 = run(
            spec,
            OffloadConfig {
                time_slice: None,
                ..OffloadConfig::paper(4, 1)
            },
        );
        let k5 = run(
            spec,
            OffloadConfig {
                time_slice: None,
                ..OffloadConfig::paper(4, 5)
            },
        );
        assert!(
            k5.achieved_rps > k1.achieved_rps * 1.5,
            "outstanding=5 ({:.0}) should beat outstanding=1 ({:.0}) by a lot",
            k5.achieved_rps,
            k1.achieved_rps
        );
    }

    #[test]
    fn ideal_profile_beats_stingray_on_short_requests() {
        let spec = quick_spec(1_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let stingray = run(spec, OffloadConfig::paper(4, 5));
        let ideal = run(
            spec,
            OffloadConfig {
                profile: NicProfile::ideal(),
                ..OffloadConfig::paper(4, 5)
            },
        );
        assert!(
            ideal.achieved_rps >= stingray.achieved_rps,
            "ideal {:.0} vs stingray {:.0}",
            ideal.achieved_rps,
            stingray.achieved_rps
        );
        assert!(
            ideal.p99 < stingray.p99,
            "ideal {} vs stingray {}",
            ideal.p99,
            stingray.p99
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = quick_spec(200_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, OffloadConfig::paper(3, 4));
        let b = run(spec, OffloadConfig::paper(3, 4));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.preemptions, b.preemptions);
    }
}

#[cfg(test)]
mod socket_tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: OffloadConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            // Short requests with big bodies: the packet-touch cost is a
            // visible fraction of the work.
            dist: ServiceDist::Fixed(SimDuration::from_micros(2)),
            body_len: 1024,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        }
    }

    #[test]
    fn dual_socket_costs_latency_vs_single() {
        let single = run(quick_spec(400_000.0), OffloadConfig::paper(8, 2));
        let dual = run(
            quick_spec(400_000.0),
            OffloadConfig {
                dual_socket: true,
                ..OffloadConfig::paper(8, 2)
            },
        );
        assert!(
            dual.p50 >= single.p50,
            "remote first touches must not make things faster: {} vs {}",
            dual.p50,
            single.p50
        );
    }

    #[test]
    fn socket_aware_selection_recovers_some_of_the_cost() {
        // At moderate load the socket-aware selector can keep most work on
        // socket 0 and avoid the QPI hop.
        let blind = run(
            quick_spec(300_000.0),
            OffloadConfig {
                dual_socket: true,
                ..OffloadConfig::paper(8, 2)
            },
        );
        let aware = run(
            quick_spec(300_000.0),
            OffloadConfig {
                dual_socket: true,
                socket_aware: true,
                ..OffloadConfig::paper(8, 2)
            },
        );
        assert!(
            aware.p50 <= blind.p50,
            "socket-aware selection should not be slower: {} vs {}",
            aware.p50,
            blind.p50
        );
        assert!(!aware.saturated(0.05) && !blind.saturated(0.05));
    }

    #[test]
    fn socket_aware_still_uses_remote_workers_at_high_load() {
        // Work conservation: at load beyond socket 0's capacity the
        // selector must spill to socket 1 rather than queue forever.
        // 4us requests with 64B bodies, so neither the 10GbE wire nor the
        // ARM TX stage binds before the local socket does: 4 local workers
        // cap at 1M; anything beyond proves remote workers are used.
        let spec = WorkloadSpec {
            offered_rps: 1_800_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_micros(4)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        };
        let m = run(
            spec,
            OffloadConfig {
                dual_socket: true,
                socket_aware: true,
                time_slice: None,
                ..OffloadConfig::paper(8, 2)
            },
        );
        assert!(
            m.achieved_rps > 1_050_000.0,
            "must spill to the remote socket: {:.0}",
            m.achieved_rps
        );
    }
}

#[cfg(test)]
mod jit_tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: OffloadConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn over_capacity_spec() -> WorkloadSpec {
        // 4 workers x 5.475us mean = ~730k capacity; offer 850k.
        WorkloadSpec {
            offered_rps: 850_000.0,
            dist: ServiceDist::paper_bimodal(),
            body_len: 64,
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(30),
            seed: 42,
        }
    }

    #[test]
    fn jit_pacing_bounds_the_tail_under_overload() {
        let open = run(over_capacity_spec(), OffloadConfig::paper(4, 4));
        let jit = run(
            over_capacity_spec(),
            OffloadConfig {
                jit_target_depth: Some(16),
                ..OffloadConfig::paper(4, 4)
            },
        );
        // Open loop over capacity: the centralized queue grows without
        // bound and the tail explodes. JIT throttles to ~capacity and
        // keeps the queue at the setpoint (§5.2: "just in time for
        // processing").
        assert!(
            open.saturated(0.05),
            "open loop must saturate: {}",
            open.row()
        );
        assert!(
            jit.p99 < open.p99 / 4,
            "JIT should collapse the overload tail: {} vs {}",
            jit.p99,
            open.p99
        );
        // The price: JIT gives up some throughput to hold the setpoint.
        assert!(
            jit.achieved_rps > open.achieved_rps * 0.75,
            "JIT throughput {:.0} should stay near capacity {:.0}",
            jit.achieved_rps,
            open.achieved_rps
        );
    }

    #[test]
    fn jit_is_inert_below_capacity() {
        let spec = WorkloadSpec {
            offered_rps: 300_000.0,
            ..over_capacity_spec()
        };
        let open = run(spec, OffloadConfig::paper(4, 4));
        let jit = run(
            spec,
            OffloadConfig {
                jit_target_depth: Some(16),
                ..OffloadConfig::paper(4, 4)
            },
        );
        // Below the setpoint the pacer stays at full rate.
        assert!(!jit.saturated(0.05), "{}", jit.row());
        let ratio = jit.achieved_rps / open.achieved_rps;
        assert!((0.97..1.03).contains(&ratio), "throughput ratio {ratio}");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::{ArrivalProcess, ServiceDist};

    fn run(spec: WorkloadSpec, cfg: OffloadConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(25),
            seed: 42,
        }
    }

    #[test]
    fn one_percent_wire_loss_costs_about_two_percent_goodput() {
        // Requests and responses each cross a 1%-lossy wire: expect ~2%
        // of round trips to fail — and nothing to wedge.
        let clean = run(quick_spec(300_000.0), OffloadConfig::paper(4, 4));
        let lossy = run(
            quick_spec(300_000.0),
            OffloadConfig {
                wire_loss: 0.01,
                ..OffloadConfig::paper(4, 4)
            },
        );
        let ratio = lossy.achieved_rps / clean.achieved_rps;
        assert!(
            (0.955..0.995).contains(&ratio),
            "goodput ratio {ratio} should reflect ~2% round-trip loss"
        );
        // The tail of *delivered* responses is unaffected — loss is not
        // congestion.
        assert!(lossy.p99 < clean.p99 * 2, "{} vs {}", lossy.p99, clean.p99);
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let cfg = OffloadConfig {
            wire_loss: 0.02,
            ..OffloadConfig::paper(4, 4)
        };
        let a = run(quick_spec(200_000.0), cfg);
        let b = run(quick_spec(200_000.0), cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        // The ISSUE-2 acceptance scenario: 1% wire loss plus worker 1
        // crashing mid-run, with retries and the staleness governor on.
        let spec = quick_spec(300_000.0);
        let res = crate::common::ResilienceConfig::loss_and_crash(1, SimTime::from_millis(10));
        let m = OffloadConfig::paper(4, 4).run_resilient(spec, ProbeConfig::disabled(), res);
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger must close: {f:?}");
        assert!(f.in_pipe() >= 0, "attempt ledger went negative: {f:?}");
        assert!(
            f.in_pipe() < 200,
            "attempt residue should be pipeline-depth bounded: {f:?}"
        );
        assert!(f.retries > 0, "1% loss must trigger retries");
        assert!(f.link_lost() > 0, "losses must be counted");
        assert!(
            f.quarantines >= 1,
            "the crashed worker must be quarantined: {f:?}"
        );
        assert!(
            f.stranded > 0,
            "work on the crashed worker must be stranded, not lost silently"
        );
        // Three healthy workers still carry the offered load.
        assert!(m.completed > 1000, "completed {}", m.completed);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let spec = quick_spec(250_000.0);
        let res = crate::common::ResilienceConfig::loss_and_crash(0, SimTime::from_millis(8));
        let cfg = OffloadConfig::paper(4, 4);
        let a = cfg.run_resilient(spec, ProbeConfig::disabled(), res);
        let b = cfg.run_resilient(spec, ProbeConfig::disabled(), res);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn feedback_blackout_degrades_then_recovers() {
        use sim_core::faults::FaultConfig;
        let spec = quick_spec(200_000.0);
        let res = crate::common::ResilienceConfig {
            faults: FaultConfig::default()
                .with_blackout(SimTime::from_millis(8), SimTime::from_millis(12)),
            retry: Some(workload::RetryPolicy::paper_default()),
            fallback: Some(crate::common::StalenessPolicy::paper_default()),
            ..Default::default()
        };
        let m = OffloadConfig::paper(4, 4).run_resilient(spec, ProbeConfig::disabled(), res);
        let f = &m.faults;
        assert!(
            f.fallback_switches >= 1,
            "a 4 ms blackout must trip the hashed fallback: {f:?}"
        );
        assert!(
            f.fallback_ns > 3_000_000,
            "fallback should cover most of the blackout: {} ns",
            f.fallback_ns
        );
        assert!(
            f.fallback_ns < 8_000_000,
            "fallback must lift after reports resume: {} ns",
            f.fallback_ns
        );
        assert_eq!(f.unaccounted(), 0);
    }

    #[test]
    fn nack_shedding_beats_silent_drops_on_reaction_time() {
        use nicsched::AdmissionPolicy;
        // Overload the system so admission control actually bites.
        let spec = quick_spec(1_200_000.0);
        let base = crate::common::ResilienceConfig {
            retry: Some(workload::RetryPolicy::paper_default()),
            ..Default::default()
        };
        let silent = OffloadConfig::paper(4, 4).run_resilient(
            spec,
            ProbeConfig::disabled(),
            crate::common::ResilienceConfig {
                admission: AdmissionPolicy::TailDrop { cap: 64 },
                ..base
            },
        );
        let nacked = OffloadConfig::paper(4, 4).run_resilient(
            spec,
            ProbeConfig::disabled(),
            crate::common::ResilienceConfig {
                admission: AdmissionPolicy::NackShed { cap: 64 },
                ..base
            },
        );
        assert!(silent.faults.shed > 0 && nacked.faults.shed > 0);
        assert_eq!(silent.faults.nacks, 0);
        assert!(nacked.faults.nacks > 0, "NACK frames must be sent");
        // NACKs tell the client immediately; silent shedding burns the
        // full timeout per drop, so clients learn late and time out more.
        assert!(
            nacked.faults.timeouts < silent.faults.timeouts,
            "early NACKs should pre-empt timeouts: {} vs {}",
            nacked.faults.timeouts,
            silent.faults.timeouts
        );
        assert_eq!(silent.faults.unaccounted(), 0);
        assert_eq!(nacked.faults.unaccounted(), 0);
    }

    #[test]
    fn bursty_arrivals_inflate_the_tail_at_equal_mean_load() {
        let mean_rate = 400_000.0;
        let poisson = run(quick_spec(mean_rate), OffloadConfig::paper(4, 4));
        let bursty = run(
            quick_spec(mean_rate),
            OffloadConfig {
                // Short dwells so the 25ms window averages many
                // calm/burst cycles; bursts run near the 4-worker
                // capacity (800k) while the long-run mean stays 400k.
                arrivals: Some(ArrivalProcess::Bursty {
                    calm_rps: 100_000.0,
                    burst_rps: 700_000.0,
                    calm_dwell: SimDuration::from_micros(200),
                    burst_dwell: SimDuration::from_micros(200),
                }),
                ..OffloadConfig::paper(4, 4)
            },
        );
        // Same long-run rate...
        assert!(
            (bursty.achieved_rps / poisson.achieved_rps - 1.0).abs() < 0.1,
            "{:.0} vs {:.0}",
            bursty.achieved_rps,
            poisson.achieved_rps
        );
        // ...but bursts above capacity back the queue up.
        assert!(
            bursty.p99 > poisson.p99,
            "bursts must inflate the tail: {} vs {}",
            bursty.p99,
            poisson.p99
        );
    }
}
