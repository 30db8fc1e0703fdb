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

use cpu_model::{Topology, CROSS_SOCKET_PENALTY};
use net_wire::{FrameSpec, MsgKind, MsgRepr};
use nic_model::{packet_lines, Ddio, IfaceId, NicDevice, Placement, QueueSteering};
use nicsched::{
    params, Assignment, CoreSelector, Dispatcher, LeastOutstanding, NicProfile, PolicySpec,
    SocketAffinity,
};
use sim_core::probe::{Counter, Family, Gauge, Hop};
use sim_core::{Ctx, Engine, Model, Probe, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, msg_task, response_frame, task_msg, AddressPlan, Assembly, Client,
    ClientEdge, ClientEv, DispatchCore, DispatchKeys, Notice, ResilienceConfig, RunEnd, Stage,
    Wire, Workers,
};

/// The host's socket layout, and how the dispatcher picks a worker on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sockets {
    /// One socket: every worker shares the NIC's LLC.
    Single,
    /// Two sockets (§1/§4): workers split across them; DDIO pre-loads
    /// into socket 0's LLC (where the NIC hangs), so socket-1 workers pay
    /// a QPI/UPI hop per packet line. Workers are picked load-blind, by
    /// least outstanding.
    Dual,
    /// Two sockets, with the socket-aware selector that prefers
    /// NIC-socket workers.
    DualAware,
}

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
    /// The host's socket layout and worker selection.
    pub sockets: Sockets,
    /// §5.2 congestion-control co-design: the NIC stamps its scheduler
    /// load into responses and the client paces itself toward this queue
    /// depth. `None` = the paper's pure open loop.
    pub jit_target_depth: Option<u64>,
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
            sockets: Sockets::Single,
            jit_target_depth: None,
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
    /// A notice crosses ARM shared memory into the queue manager.
    QmPush(Notice),
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
    /// A worker's run ends (finish or slice expiry); the timer generation
    /// guards against stale firings.
    WorkerRunEnd(usize, u64),
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

/// The offload's probe keys beyond its stages, dispatcher core and client
/// edge, registered once at construction.
struct Keys {
    rx_frames: Counter,
    parsed: Counter,
    tx_built: Counter,
    notifs: Counter,
    ring_drops: Counter,
    ring: Family<Gauge>,
    nic_parse: Hop,
    tx_build: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            parsed: probe.counter("networker.parsed"),
            tx_built: probe.counter("tx.built"),
            notifs: probe.counter("rx.notifs"),
            ring_drops: probe.counter("worker.ring_drops"),
            ring: probe.gauge_family("worker.ring", workers),
            nic_parse: probe.hop("path.1_nic_parse"),
            tx_build: probe.hop("path.3_tx_build"),
        }
    }
}

/// The Shinjuku-Offload model; run it through [`crate::common::run`] or
/// [`ServerSystem`](crate::ServerSystem) on an [`OffloadConfig`].
pub struct Offload {
    cfg: OffloadConfig,
    client: Client,
    wire: Wire,
    nic: NicDevice,
    disp_iface: IfaceId,
    worker_iface: Vec<IfaceId>,
    worker_by_mac: BTreeMap<net_wire::EthernetAddress, usize>,

    networker: Stage<()>,
    qm: Stage<Notice>,
    tx: Stage<Assignment>,
    rx: Stage<FrameSpec>,

    /// The dispatcher the queue-manager core runs.
    core: DispatchCore<Box<dyn CoreSelector>>,
    topology: Topology,
    /// First-arrival instants, so re-queued tasks keep their admission
    /// time. O(1) per request; any walk is in request-id order.
    task_meta: sim_core::IdTable<SimTime>,

    pub(crate) workers: Workers,
    /// DDIO placements of the frames queued in each worker's ring, FIFO.
    placements: Vec<VecDeque<Placement>>,
    ddio: Ddio,
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
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let wire = Wire::new(&res, &mut master, probe, "path.6_response");

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

        let workers = Workers::new(
            cfg.workers,
            probe,
            "path.4_worker_start",
            "path.5_worker_done",
        )
        .preemptive(cfg.time_slice, cfg.profile.interrupt)
        .with_idle_gaps(probe);

        let topology = match cfg.sockets {
            Sockets::Single => Topology::single(cfg.workers as u8),
            Sockets::Dual | Sockets::DualAware => Topology::dual(cfg.workers as u8),
        };
        let selector: Box<dyn CoreSelector> = if cfg.sockets == Sockets::DualAware {
            let sockets = (0..cfg.workers).map(|w| topology.socket_of(w)).collect();
            Box::new(SocketAffinity::new(sockets, 0))
        } else {
            Box::new(LeastOutstanding)
        };

        let policy = cfg.policy.build();
        let dispatcher = Dispatcher::new(cfg.workers, cfg.outstanding_cap, policy, selector);
        let counters = [
            "qm.enqueue",
            "qm.done",
            "qm.preempt_requeue",
            "qm.heartbeat",
        ];
        let keys = DispatchKeys::new(probe, counters, "path.2_qm_admit");
        let central = probe.gauge("qm.central");
        let latency = cfg.profile.from_worker;
        let core = DispatchCore::new(dispatcher, latency, spec.horizon(), &res, keys, central);
        // Each ARM stage's per-item compute cost under the profile.
        let arm = |host_cycles| cfg.profile.compute.stage_cost(host_cycles);

        Offload {
            core,
            topology,
            cfg,
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
            placements: vec![VecDeque::new(); cfg.workers],
            ddio: if cfg.ddio_l1 {
                Ddio::informed_l1(4096)
            } else {
                Ddio::classic(4096)
            },
            keys: Keys::new(probe, cfg.workers),
        }
    }

    fn seed(engine: &mut Engine<Offload>) {
        engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
        let model = engine.model();
        if model.core.heartbeat.is_some() {
            for w in 0..model.cfg.workers {
                engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(w));
            }
        }
    }

    fn metrics(&self, horizon: SimTime) -> (RunMetrics, ()) {
        let mut metrics = assemble_metrics(&self.client, &self.wire, &self.workers, horizon);
        metrics.faults.ring_dropped = self.nic.total_drops();
        self.core.absorb(&mut metrics.faults, horizon);
        (metrics, ())
    }
}

impl Offload {
    /// Route a batch of dispatcher assignments toward the TX core.
    fn emit_assignments(&mut self, mut assignments: Vec<Assignment>, ctx: &mut Ctx<'_, Ev>) {
        for a in assignments.drain(..) {
            ctx.schedule_in(self.cfg.profile.stage_hop, Ev::TxPush(a));
        }
        self.core.dispatcher.recycle(assignments);
    }

    // ---- worker helpers -------------------------------------------------

    /// Start the next stashed request on an idle worker, if any.
    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if !self.workers.may_take(w, Ev::WorkerPoll(w), ctx) {
            return;
        }
        let iface = self.worker_iface[w];
        let Some(frame) = self.nic.iface_mut(iface).rx[0].pop() else {
            self.workers.idle(w, ctx.now(), ctx);
            return;
        };
        let ring_depth = self.nic.iface(iface).rx[0].len();
        ctx.probe().depth(self.keys.ring.at(w), ring_depth);
        let placement = self.placements[w].pop_front().unwrap_or(Placement::Dram);
        let msg = frame.spec.msg;
        // Only the TX core addresses this VF, and only with Assign frames.
        debug_assert_eq!(msg.kind, MsgKind::Assign);
        // The policy's slice grant rode the Assign frame's grant byte.
        let task = msg_task(&msg, ctx.now());
        // This transport's overheads before useful work: parsing the frame
        // and the first touch of its DMA'd payload. DDIO homed the packet
        // on socket 0's LLC; a socket-1 worker pays the interconnect per
        // line (§1).
        let interconnect = if self.cfg.sockets != Sockets::Single && self.topology.is_remote(w, 0) {
            CROSS_SOCKET_PENALTY
        } else {
            SimDuration::ZERO
        };
        let lines = packet_lines(net_wire::message::HEADER_LEN + task.body_len as usize);
        let fixed =
            params::WORKER_RX_COST + self.ddio.first_touch_from(placement, lines, interconnect);
        self.ddio.release(placement, lines);
        self.workers
            .start(w, task, fixed, ctx, |gen| Ev::WorkerRunEnd(w, gen));
    }

    /// Send `msg` from worker `w` to the RX core in a notification frame
    /// built at `built`.
    fn notify(&mut self, w: usize, built: SimTime, msg: MsgRepr, ctx: &mut Ctx<'_, Ev>) {
        let spec = FrameSpec {
            src_mac: AddressPlan::worker_mac(w),
            dst_mac: AddressPlan::dispatcher_mac(),
            src: AddressPlan::worker_ep(w),
            dst: AddressPlan::dispatcher_ep(),
            msg,
        };
        ctx.schedule_at(
            built + self.cfg.profile.from_worker,
            Ev::RxNotif(self.wire.codec.build(spec)),
        );
    }

    fn worker_run_end(&mut self, w: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        let Some(end) = self.workers.end_run(w, gen, ctx) else {
            return;
        };
        let now = ctx.now();
        let (msg, free_at) = match end {
            // No response and no Done: the dispatcher's outstanding slot
            // leaks until quarantine stops feeding the corpse.
            RunEnd::Stranded => return,
            RunEnd::Finished(task) => {
                // Response to the client and Done to the dispatcher: two
                // packets, built back to back (§3.4.3).
                let resp_built = now + params::WORKER_TX_COST;
                let mut resp = response_frame(AddressPlan::worker_mac(w), w, &task);
                // The NIC sees every departing response; in the §5.2
                // co-design it stamps its instantaneous scheduler load
                // (queued + in flight) for the client's pacer.
                let disp = &self.core.dispatcher;
                resp.msg.remaining_ns = disp.queue_len() as u64 + disp.total_outstanding() as u64;
                self.wire
                    .response(resp, resp_built + self.nic.dma_latency, ctx);
                let notif_built = resp_built + params::WORKER_TX_COST;
                (task_msg(MsgKind::Done, &task), notif_built)
            }
            // Release the worker slot with a Done notification.
            RunEnd::DupKilled { task, free_in } => (
                task_msg(MsgKind::Done, &task),
                now + free_in + params::WORKER_TX_COST,
            ),
            // Slice expiry: hand the remaining work back.
            RunEnd::Preempted { task, free_in } => {
                let preempted = MsgRepr {
                    remaining_ns: task.remaining.as_nanos(),
                    body_len: task.body_len,
                    ..task_msg(MsgKind::Preempted, &task)
                };
                (preempted, now + free_in + params::WORKER_TX_COST)
            }
        };
        self.notify(w, free_at, msg, ctx);
        // The worker is free once its packets are built; it immediately
        // pulls the next stashed request (§3.4.5).
        ctx.schedule_at(free_at, Ev::WorkerPoll(w));
    }
}

impl Model for Offload {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.nic.check_invariants(now, inv);
        self.client.check_invariants(now, inv);
        self.wire.codec.check_invariants(now, inv);
        self.workers.check_invariants(now, inv);
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
                        let task = msg_task(&msg, ctx.now());
                        ctx.schedule_in(
                            self.cfg.profile.stage_hop,
                            Ev::QmPush(Notice::NewTask(task)),
                        );
                    }
                }
                let ring = &self.nic.iface(self.disp_iface).rx[0];
                self.networker.poll(ring, Ev::NetworkerDone, ctx);
            }
            Ev::QmPush(notice) => self.qm.enqueue(notice, Ev::QmDone, ctx),
            Ev::QmDone => {
                if let Some(notice) = self.qm.complete(ctx) {
                    match notice {
                        Notice::NewTask(task) => {
                            self.task_meta.insert(task.req_id, task.arrived_at);
                        }
                        Notice::Done { req_id, .. } => {
                            self.task_meta.remove(req_id);
                        }
                        _ => {}
                    }
                    let assignments = self.core.apply(notice, ctx);
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
                // Delivered to a dead worker's ring: nobody will ever poll
                // it out.
                if self.workers.strand_if_crashed(w, spec.msg.req_id, ctx) {
                    return;
                }
                // DDIO placement happens at DMA time.
                let lines = packet_lines(spec.frame_len());
                let resident: usize = self.placements[w]
                    .iter()
                    .filter(|p| **p == Placement::L1)
                    .count()
                    * lines;
                let placement = self.ddio.place(lines, resident);
                let iface = self.worker_iface[w];
                if self.nic.iface_mut(iface).rx[0].push(ctx.now(), spec) {
                    let depth = self.nic.iface(iface).rx[0].len();
                    ctx.probe().depth(self.keys.ring.at(w), depth);
                    self.placements[w].push_back(placement);
                    if !self.workers.is_running(w) {
                        ctx.schedule_now(Ev::WorkerPoll(w));
                    }
                } else {
                    ctx.probe().count(&self.keys.ring_drops);
                    self.ddio.release(placement, lines);
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd(worker, gen) => self.worker_run_end(worker, gen, ctx),
            Ev::RxNotif(spec) => self.rx.enqueue(spec, Ev::RxDone, ctx),
            Ev::RxDone => {
                ctx.probe().count(&self.keys.notifs);
                if let Some(spec) = self.rx.complete(ctx) {
                    if let Some(&w) = self.worker_by_mac.get(&spec.src_mac) {
                        let msg = spec.msg;
                        let notice = match msg.kind {
                            MsgKind::Done => Some(Notice::Done {
                                worker: w,
                                req_id: msg.req_id,
                            }),
                            MsgKind::Preempted => {
                                let arrived =
                                    self.task_meta.get(msg.req_id).copied().unwrap_or(ctx.now());
                                Some(Notice::Preempted {
                                    worker: w,
                                    task: msg_task(&msg, arrived),
                                })
                            }
                            MsgKind::Heartbeat => Some(Notice::Heartbeat { worker: w }),
                            _ => None,
                        };
                        if let Some(notice) = notice {
                            ctx.schedule_in(self.cfg.profile.stage_hop, Ev::QmPush(notice));
                        }
                    }
                }
                self.rx.resume(Ev::RxDone, ctx);
            }
            Ev::Heartbeat(w) => {
                let Some((renew, assignments, next)) = self.core.tick(w, w, ctx) else {
                    return;
                };
                if let Some(occupancy) = renew {
                    // Lease renewal rides a real Heartbeat frame over the
                    // notification wire.
                    let now = ctx.now();
                    let beat = MsgRepr {
                        remaining_ns: u64::from(occupancy),
                        ..MsgRepr::request(0, 0, 0, now.as_nanos(), 0).with_kind(MsgKind::Heartbeat)
                    };
                    self.notify(w, now, beat, ctx);
                }
                self.emit_assignments(assignments, ctx);
                ctx.schedule_in(next, Ev::Heartbeat(w));
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
                sockets: Sockets::Dual,
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
                sockets: Sockets::Dual,
                ..OffloadConfig::paper(8, 2)
            },
        );
        let aware = run(
            quick_spec(300_000.0),
            OffloadConfig {
                sockets: Sockets::DualAware,
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
                sockets: Sockets::DualAware,
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
    use sim_core::faults::FaultConfig;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: OffloadConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
    }

    /// Run the paper's 4-worker offload on `spec` over a client↔server
    /// wire that loses each frame with probability `loss`.
    fn run_lossy(spec: WorkloadSpec, loss: f64) -> RunMetrics {
        let res = ResilienceConfig {
            faults: FaultConfig::default().with_wire_loss(loss),
            ..ResilienceConfig::default()
        };
        OffloadConfig::paper(4, 4).run_resilient(spec, ProbeConfig::disabled(), res)
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
        let lossy = run_lossy(quick_spec(300_000.0), 0.01);
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
        let a = run_lossy(quick_spec(200_000.0), 0.02);
        let b = run_lossy(quick_spec(200_000.0), 0.02);
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
}
