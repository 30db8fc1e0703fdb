//! Vanilla Shinjuku: centralized preemptive scheduling on the host
//! (Kaffes et al., NSDI '19 — the baseline the paper compares against).
//!
//! The networking subsystem and the dispatcher run as two hyperthreads on
//! one physical host core (§4.1), so a server with `n` cores gets `n - 1`
//! workers. Requests flow NIC → networker → dispatcher → worker over
//! shared-memory queues whose hop latency is the §2.2 "2 µs of additional
//! tail latency" cost; the dispatcher's 200 ns/request budget is the §1
//! "5M requests per second" scaling limit.
//!
//! The scheduling semantics — centralized FIFO, preemption at the slice,
//! re-enqueue at the tail — are byte-identical to the offloaded system:
//! both embed [`nicsched::Dispatcher`]. Only placement and transport
//! differ, which is the paper's point.

use std::collections::VecDeque;

use bytes::Bytes;
use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec, OneShotTimer, TimerMode};
use net_wire::{FrameSpec, MsgKind, MsgRepr, ParsedFrame};
use nic_model::{IfaceId, Link, NicDevice, QueueSteering};
use nicsched::{
    params, AdmitOutcome, Assignment, Dispatcher, LeastOutstanding, PolicySpec, RecoveryPolicy,
    SchedPolicy, Task,
};
use sim_core::{Ctx, Engine, FaultPlan, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, scale_duration, AddressPlan, Client, FeedbackGovernor, ResilienceConfig,
    TimeoutOutcome, FAULT_SEED_SALT,
};

/// Configuration of a vanilla Shinjuku instance.
#[derive(Debug, Clone, Copy)]
pub struct ShinjukuConfig {
    /// Worker cores (the networker+dispatcher pair occupies one more
    /// physical core, which is why the paper's figures give Shinjuku one
    /// fewer worker than Shinjuku-Offload).
    pub workers: usize,
    /// Preemption time slice; `None` disables preemption.
    pub time_slice: Option<SimDuration>,
    /// Centralized queue policy (FCFS in the original system); a registry
    /// spec such as `PolicySpec::parse("srpt")`.
    pub policy: PolicySpec,
}

impl ShinjukuConfig {
    /// The paper's §4 configuration with the 10 µs slice.
    pub fn paper(workers: usize) -> ShinjukuConfig {
        ShinjukuConfig {
            workers,
            time_slice: Some(params::TIME_SLICE),
            policy: PolicySpec::FCFS,
        }
    }
}

/// Items crossing into the dispatcher thread.
#[derive(Debug, Clone, Copy)]
enum DispItem {
    NewTask(Task),
    Done {
        worker: usize,
        req_id: u64,
    },
    Preempted {
        worker: usize,
        task: Task,
    },
    /// A decided assignment being written to a worker queue (charged
    /// separately so dispatcher busy-time scales with fan-out).
    Emit(Assignment),
    /// A lease-renewal heartbeat from a worker (recovery only).
    Heartbeat {
        worker: usize,
    },
}

enum Ev {
    ClientSend,
    WireToNic(Bytes),
    NetworkerDone,
    DispPush(DispItem),
    DispDone,
    /// A task becomes visible in a worker's shared-memory inbox.
    WorkerTask(usize, Task),
    WorkerPoll(usize),
    WorkerRunEnd {
        worker: usize,
        gen: u64,
    },
    ClientResp(Bytes),
    /// A client retransmit timer fires for one attempt of one request.
    ClientTimeout {
        req_id: u64,
        attempt: u32,
    },
    /// A worker's periodic liveness heartbeat to the dispatcher governor.
    Heartbeat(usize),
}

struct Worker {
    core: Core,
    timer: OneShotTimer,
    inbox: VecDeque<Task>,
    running: Option<(Task, SimDuration)>,
}

struct Shinjuku {
    cfg: ShinjukuConfig,
    client: Client,
    horizon: SimTime,
    client_link: Link,
    server_link: Link,
    nic: NicDevice,
    net_iface: IfaceId,

    networker_busy: bool,
    disp_queue: VecDeque<DispItem>,
    disp_busy: bool,

    dispatcher: Dispatcher<Box<dyn SchedPolicy>, LeastOutstanding>,
    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    preemptions: u64,

    governor: Option<FeedbackGovernor>,
    /// NIC-side failure-detection policy, when recovery is enabled.
    recovery: Option<RecoveryPolicy>,
    req_lost: u64,
    resp_lost: u64,
    stranded: u64,
    nacks: u64,
}

impl Shinjuku {
    fn new(spec: WorkloadSpec, cfg: ShinjukuConfig, res: ResilienceConfig) -> Shinjuku {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let (client_link, server_link) = if res.faults.wire_loss > 0.0 {
            (
                Link::ten_gbe().with_loss(res.faults.wire_loss, master.fork()),
                Link::ten_gbe().with_loss(res.faults.wire_loss, master.fork()),
            )
        } else {
            (Link::ten_gbe(), Link::ten_gbe())
        };

        let mut nic = NicDevice::new(params::PCIE_DMA);
        let net_iface = nic.add_iface(
            AddressPlan::dispatcher_mac(),
            1,
            1024,
            QueueSteering::Single,
        );

        let t0 = SimTime::ZERO;
        let workers = (0..cfg.workers)
            .map(|w| Worker {
                core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                timer: OneShotTimer::new(),
                inbox: VecDeque::new(),
                running: None,
            })
            .collect();

        // Shinjuku keeps exactly one request in flight per worker: the
        // dispatcher assigns to *idle* workers only (§2.1).
        let mut dispatcher = Dispatcher::new(cfg.workers, 1, cfg.policy.build(), LeastOutstanding);
        dispatcher.set_admission(res.admission);
        if let Some(policy) = res.recovery {
            dispatcher.enable_recovery(policy);
        }
        let governor = res
            .fallback
            .map(|p| FeedbackGovernor::new(cfg.workers, params::HOST_QUEUE_HOP, p));

        Shinjuku {
            dispatcher,
            cfg,
            horizon: spec.horizon(),
            client,
            client_link,
            server_link,
            nic,
            net_iface,
            networker_busy: false,
            disp_queue: VecDeque::new(),
            disp_busy: false,
            workers,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            preemptions: 0,
            governor,
            recovery: res.recovery,
            req_lost: 0,
            resp_lost: 0,
            stranded: 0,
            nacks: 0,
        }
    }

    /// Transmit a client→NIC frame over the (possibly lossy) request wire.
    fn send_request(&mut self, spec: &FrameSpec, ctx: &mut Ctx<'_, Ev>) {
        let payload_len = spec.frame_len() - net_wire::ethernet::HEADER_LEN;
        let bytes = spec.build();
        let now = ctx.now();
        if ctx.faults().burst_frame_lost(now) {
            self.req_lost += 1;
            ctx.probe().count("wire.req_lost");
            return;
        }
        match self.client_link.transmit_lossy(now, payload_len) {
            Some(arrive) => ctx.schedule_at(arrive, Ev::WireToNic(bytes)),
            None => {
                self.req_lost += 1;
                ctx.probe().count("wire.req_lost");
            }
        }
    }

    /// Transmit a server→client frame (response or NACK) starting at
    /// `depart`.
    fn send_response(&mut self, spec: &FrameSpec, depart: SimTime, ctx: &mut Ctx<'_, Ev>) {
        let payload_len = spec.frame_len() - net_wire::ethernet::HEADER_LEN;
        let bytes = spec.build();
        if ctx.faults().burst_frame_lost(depart) {
            self.resp_lost += 1;
            ctx.probe().count("wire.resp_lost");
            return;
        }
        match self.server_link.transmit_lossy(depart, payload_len) {
            Some(arrive) => ctx.schedule_at(arrive, Ev::ClientResp(bytes)),
            None => {
                self.resp_lost += 1;
                ctx.probe().count("wire.resp_lost");
            }
        }
    }

    fn start_networker(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.networker_busy && !self.nic.iface(self.net_iface).rx[0].is_empty() {
            self.networker_busy = true;
            ctx.probe().busy("networker", true);
            ctx.schedule_in(params::HOST_NET_PER_PACKET, Ev::NetworkerDone);
        }
    }

    fn disp_item_cost(item: &DispItem) -> SimDuration {
        match item {
            DispItem::NewTask(_) => params::HOST_DISPATCH_ENQUEUE,
            DispItem::Done { .. } | DispItem::Preempted { .. } => params::HOST_DISPATCH_COMPLETE,
            DispItem::Emit(_) => params::HOST_DISPATCH_ASSIGN,
            // A heartbeat is a single timestamp store on the tracker: charge
            // it like a completion notification (queue-op scale).
            DispItem::Heartbeat { .. } => params::HOST_DISPATCH_COMPLETE,
        }
    }

    fn start_dispatcher(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.disp_busy {
            if let Some(item) = self.disp_queue.front() {
                self.disp_busy = true;
                let cost = Self::disp_item_cost(item);
                ctx.probe().busy("dispatcher", true);
                ctx.schedule_in(cost, Ev::DispDone);
            }
        }
    }

    /// Put `assignments` at the head of the dispatcher's inbox, in order,
    /// and hand the emptied buffer back to the dispatcher.
    fn queue_emits(&mut self, mut assignments: Vec<Assignment>) {
        for a in assignments.drain(..).rev() {
            self.disp_queue.push_front(DispItem::Emit(a));
        }
        self.dispatcher.recycle(assignments);
    }

    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.workers[w].running.is_some() {
            return;
        }
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            return; // dead cores never poll again
        }
        if let Some(resume) = ctx.faults().worker_stalled_until(w, now) {
            ctx.schedule_at(resume, Ev::WorkerPoll(w));
            return;
        }
        let Some(task) = self.workers[w].inbox.pop_front() else {
            self.workers[w].core.set_idle(ctx.now());
            ctx.probe().busy_i("worker", w, false);
            return;
        };
        ctx.probe().mark(task.req_id, "path.3_worker_start");
        ctx.probe().busy_i("worker", w, true);
        ctx.probe()
            .depth_i("worker.inbox", w, self.workers[w].inbox.len());
        let ctx_op = self.ctx_pool.begin(task.req_id);
        let mut overhead = ContextPool::op_cost(ctx_op, &self.ctx_costs, &self.host);
        // The policy's per-dispatch grant (carried on the task — the
        // shared-memory path preserves it exactly) resolves against the
        // configured slice; `Inherit` reproduces the static timer.
        let run = match task.preempt.resolve(self.cfg.time_slice) {
            Some(slice) => {
                // Dune-mapped APIC timers — the mechanism Shinjuku itself
                // introduced (§3.4.4 cites its cost numbers).
                overhead += TimerMode::DuneMapped.set_cost(&self.host);
                task.remaining.min(slice)
            }
            None => task.remaining,
        };
        // A slowdown window stretches wall time; `run` stays in work
        // units so the finish/preempt decision at run end is unchanged.
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
        worker.running = Some((task, run));
        ctx.schedule_at(end, Ev::WorkerRunEnd { worker: w, gen });
    }

    fn worker_run_end(&mut self, w: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        if !self.workers[w].timer.accept(gen) {
            return;
        }
        let (task, run) = self.workers[w].running.take().expect("running task");
        let now = ctx.now();
        if ctx.faults().worker_crashed(w, now) {
            // The worker died mid-request: no response, no Done.
            self.ctx_pool.discard(task.req_id);
            self.stranded += 1;
            ctx.probe().count("worker.stranded");
            return;
        }
        if task.remaining <= run {
            ctx.probe().count("worker.completed");
            ctx.probe().mark(task.req_id, "path.4_worker_done");
            // Finished: response straight out the NIC; Done notification is
            // a shared-memory write visible one queue hop later.
            let resp_built = now + params::WORKER_TX_COST;
            let resp = FrameSpec {
                src_mac: AddressPlan::dispatcher_mac(),
                dst_mac: AddressPlan::client_mac(),
                src: AddressPlan::worker_ep(w),
                dst: AddressPlan::client_ep(),
                msg: MsgRepr {
                    kind: MsgKind::Response,
                    req_id: task.req_id,
                    client_id: task.client_id,
                    service_ns: task.service.as_nanos(),
                    remaining_ns: 0,
                    sent_at_ns: task.sent_at.as_nanos(),
                    body_len: task.body_len,
                    grant_code: 0,
                },
            };
            let depart = resp_built + self.nic.dma_latency;
            self.send_response(&resp, depart, ctx);

            self.ctx_pool.discard(task.req_id);
            self.workers[w].core.requests_run += 1;
            ctx.schedule_in(
                params::HOST_QUEUE_HOP,
                Ev::DispPush(DispItem::Done {
                    worker: w,
                    req_id: task.req_id,
                }),
            );
            ctx.schedule_at(resp_built, Ev::WorkerPoll(w));
        } else {
            // Slice expiry: posted interrupt, save, hand back via memory.
            let after = task.after_preemption(run);
            if self.ctx_pool.is_saved(after.req_id) {
                // A retransmitted copy of this request is already suspended:
                // kill this copy and free the worker slot via Done.
                ctx.probe().count("worker.dup_killed");
                let free_at = now + TimerMode::DuneMapped.deliver_cost(&self.host);
                ctx.schedule_at(
                    free_at + params::HOST_QUEUE_HOP,
                    Ev::DispPush(DispItem::Done {
                        worker: w,
                        req_id: after.req_id,
                    }),
                );
                ctx.schedule_at(free_at, Ev::WorkerPoll(w));
                return;
            }
            ctx.probe().count("worker.preempted");
            self.preemptions += 1;
            self.workers[w].core.preemptions += 1;
            self.ctx_pool.save(after.req_id);
            let free_at = now
                + TimerMode::DuneMapped.deliver_cost(&self.host)
                + self.ctx_costs.save(&self.host);
            ctx.schedule_at(
                free_at + params::HOST_QUEUE_HOP,
                Ev::DispPush(DispItem::Preempted {
                    worker: w,
                    task: after,
                }),
            );
            ctx.schedule_at(free_at, Ev::WorkerPoll(w));
        }
    }
}

impl Model for Shinjuku {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.nic.check_invariants(now, inv);
        self.client.check_invariants(now, inv);
    }

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::ClientSend => {
                if ctx.now() >= self.horizon {
                    return;
                }
                let spec = self.client.make_request(ctx.now());
                let req_id = spec.msg.req_id;
                ctx.probe().count("client.sent");
                ctx.probe().mark(req_id, "path.0_client_send");
                self.send_request(&spec, ctx);
                if let Some((attempt, timeout)) = self.client.arm_timeout(req_id) {
                    ctx.schedule_in(timeout, Ev::ClientTimeout { req_id, attempt });
                }
                let gap = self.client.next_gap();
                ctx.schedule_in(gap, Ev::ClientSend);
            }
            Ev::WireToNic(bytes) => {
                let Ok(parsed) = ParsedFrame::parse(&bytes) else {
                    return;
                };
                if let Some(d) = self.nic.steer(&parsed) {
                    // DMA into host memory, then the networker can see it.
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), bytes);
                    self.start_networker(ctx);
                }
            }
            Ev::NetworkerDone => {
                self.networker_busy = false;
                ctx.probe().busy("networker", false);
                ctx.probe().count("networker.parsed");
                if let Some(frame) = self.nic.iface_mut(self.net_iface).rx[0].pop() {
                    let depth = self.nic.iface(self.net_iface).rx[0].len();
                    ctx.probe().depth("networker.ring", depth);
                    if let Ok(parsed) = ParsedFrame::parse(&frame.data) {
                        if parsed.msg.kind == MsgKind::Request {
                            let m = parsed.msg;
                            ctx.probe().mark(m.req_id, "path.1_host_net");
                            let task = Task::new(
                                m.req_id,
                                m.client_id,
                                SimDuration::from_nanos(m.service_ns),
                                SimTime::from_nanos(m.sent_at_ns),
                                ctx.now(),
                                m.body_len,
                            );
                            ctx.schedule_in(
                                params::HOST_QUEUE_HOP,
                                Ev::DispPush(DispItem::NewTask(task)),
                            );
                        }
                    }
                }
                self.start_networker(ctx);
            }
            Ev::DispPush(item) => {
                self.disp_queue.push_back(item);
                ctx.probe().depth("dispatcher.inbox", self.disp_queue.len());
                self.start_dispatcher(ctx);
            }
            Ev::DispDone => {
                self.disp_busy = false;
                ctx.probe().busy("dispatcher", false);
                if let Some(item) = self.disp_queue.pop_front() {
                    let now = ctx.now();
                    match item {
                        DispItem::NewTask(task) => match self.dispatcher.offer(now, task) {
                            AdmitOutcome::Admitted(assignments) => {
                                ctx.probe().count("disp.enqueue");
                                ctx.probe().mark(task.req_id, "path.2_dispatch");
                                self.queue_emits(assignments);
                            }
                            AdmitOutcome::Shed { nack } => {
                                ctx.probe().count("disp.shed");
                                if nack {
                                    self.nacks += 1;
                                    let spec = FrameSpec {
                                        src_mac: AddressPlan::dispatcher_mac(),
                                        dst_mac: AddressPlan::client_mac(),
                                        src: AddressPlan::dispatcher_ep(),
                                        dst: AddressPlan::client_ep(),
                                        msg: MsgRepr {
                                            kind: MsgKind::Nack,
                                            req_id: task.req_id,
                                            client_id: task.client_id,
                                            service_ns: 0,
                                            remaining_ns: 0,
                                            sent_at_ns: task.sent_at.as_nanos(),
                                            body_len: 0,
                                            grant_code: 0,
                                        },
                                    };
                                    let depart = now + self.nic.dma_latency;
                                    self.send_response(&spec, depart, ctx);
                                }
                            }
                        },
                        DispItem::Done { worker, req_id } => {
                            ctx.probe().count("disp.done");
                            let assignments = self.dispatcher.on_done(now, worker, req_id);
                            self.queue_emits(assignments);
                        }
                        DispItem::Preempted { worker, task } => {
                            ctx.probe().count("disp.preempt_requeue");
                            ctx.probe().mark(task.req_id, "path.2_dispatch");
                            let assignments = self.dispatcher.on_preempted(now, worker, task);
                            self.queue_emits(assignments);
                        }
                        DispItem::Emit(a) => {
                            ctx.probe().count("disp.assign");
                            ctx.schedule_in(
                                params::HOST_QUEUE_HOP,
                                Ev::WorkerTask(a.worker, a.task),
                            );
                        }
                        DispItem::Heartbeat { worker } => {
                            ctx.probe().count("disp.heartbeat");
                            let assignments = self.dispatcher.on_heartbeat(now, worker);
                            self.queue_emits(assignments);
                        }
                    }
                    ctx.probe()
                        .depth("dispatcher.central", self.dispatcher.queue_len());
                }
                self.start_dispatcher(ctx);
            }
            Ev::WorkerTask(w, task) => {
                let now = ctx.now();
                if ctx.faults().worker_crashed(w, now) {
                    // Delivered to a dead worker's inbox: never executed.
                    self.stranded += 1;
                    ctx.probe().count("worker.stranded");
                    return;
                }
                self.workers[w].inbox.push_back(task);
                ctx.probe()
                    .depth_i("worker.inbox", w, self.workers[w].inbox.len());
                if self.workers[w].running.is_none() {
                    ctx.schedule_now(Ev::WorkerPoll(w));
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd { worker, gen } => self.worker_run_end(worker, gen, ctx),
            Ev::ClientResp(bytes) => {
                if let Ok(parsed) = ParsedFrame::parse(&bytes) {
                    if parsed.msg.kind == MsgKind::Nack {
                        ctx.probe().count("client.nacks");
                        let req_id = parsed.msg.req_id;
                        if let TimeoutOutcome::Retry {
                            frame,
                            attempt,
                            timeout,
                        } = self.client.on_nack(ctx.now(), req_id)
                        {
                            ctx.probe().count("client.retries");
                            self.send_request(&frame, ctx);
                            ctx.schedule_in(timeout, Ev::ClientTimeout { req_id, attempt });
                        }
                        return;
                    }
                    ctx.probe().count("client.responses");
                    ctx.probe().finish(parsed.msg.req_id, "path.5_response");
                    self.client.on_response(ctx.now(), &parsed);
                }
            }
            Ev::ClientTimeout { req_id, attempt } => {
                if let TimeoutOutcome::Retry {
                    frame,
                    attempt,
                    timeout,
                } = self.client.on_timeout(ctx.now(), req_id, attempt)
                {
                    ctx.probe().count("client.retries");
                    self.send_request(&frame, ctx);
                    ctx.schedule_in(timeout, Ev::ClientTimeout { req_id, attempt });
                }
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
                        ctx.probe().count("fallback.switch");
                    }
                    assignments = self.dispatcher.kick(now);
                    next = Some(gov.policy().heartbeat);
                }
                if let Some(policy) = self.recovery {
                    // Worker side: lease renewal crosses host shared memory
                    // like any other notification — a silenced worker
                    // (crashed, stalled, or blacked out) cannot renew.
                    if !silenced {
                        ctx.schedule_in(
                            params::HOST_QUEUE_HOP,
                            Ev::DispPush(DispItem::Heartbeat { worker: w }),
                        );
                    }
                    // Dispatcher side: expire leases and re-dispatch orphans
                    // on the same tick.
                    let recovered = self.dispatcher.check_health(now);
                    if !recovered.is_empty() {
                        ctx.probe().count("recovery.redispatch");
                    }
                    assignments.extend(recovered);
                    next = Some(
                        next.map_or(policy.heartbeat, |n: SimDuration| n.min(policy.heartbeat)),
                    );
                }
                // Unparked work still pays the dispatcher's per-assignment
                // cost like any other emission.
                for a in assignments {
                    ctx.schedule_now(Ev::DispPush(DispItem::Emit(a)));
                }
                if let Some(interval) = next {
                    ctx.schedule_in(interval, Ev::Heartbeat(w));
                }
            }
        }
    }
}

/// Run a vanilla Shinjuku simulation with stage-level observability.
pub fn run_probed(spec: WorkloadSpec, cfg: ShinjukuConfig, probe: ProbeConfig) -> RunMetrics {
    run_resilient_probed(spec, cfg, probe, ResilienceConfig::default())
}

/// Run a vanilla Shinjuku simulation with fault injection, client
/// retries, admission control, and the stale-feedback governor.
pub fn run_resilient_probed(
    spec: WorkloadSpec,
    cfg: ShinjukuConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> RunMetrics {
    let mut engine = Engine::new(Shinjuku::new(spec, cfg, res));
    engine.set_probe(Probe::new(probe));
    engine.set_invariants(crate::common::checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    engine.schedule_at(SimTime::ZERO, Ev::ClientSend);
    if engine.model().governor.is_some() || engine.model().recovery.is_some() {
        for w in 0..cfg.workers {
            engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(w));
        }
    }
    engine.run_until(spec.horizon());
    let horizon = spec.horizon();
    let model = engine.model();
    let util = model
        .workers
        .iter()
        .map(|w| w.core.utilization(horizon))
        .sum::<f64>()
        / model.workers.len() as f64;
    let ring_dropped = model.nic.total_drops();
    let mut metrics = assemble_metrics(&model.client, ring_dropped, model.preemptions, util);
    let fm = &mut metrics.faults;
    fm.req_link_lost = model.req_lost;
    fm.resp_link_lost = model.resp_lost;
    fm.ring_dropped = ring_dropped;
    fm.stranded = model.stranded;
    fm.shed = model.dispatcher.stats.shed;
    fm.nacks = model.nacks;
    if let Some(gov) = &model.governor {
        fm.fallback_switches = gov.switches;
        fm.fallback_ns = gov.fallback_ns(horizon);
        fm.quarantines = gov.quarantines;
    }
    if let Some(h) = model.dispatcher.health() {
        fm.recovered = model.dispatcher.stats.recovered;
        fm.recovery_duplicates = model.dispatcher.stats.late_duplicates;
        fm.suspicions = h.stats.suspicions;
        fm.readmissions = h.stats.readmissions;
    }
    metrics.dropped = ring_dropped + fm.link_lost() + fm.shed;
    if probe.enabled {
        metrics.stages = Some(engine.probe_mut().report(horizon));
    }
    crate::common::close_invariants(engine.take_invariants(), horizon, &metrics);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: ShinjukuConfig) -> RunMetrics {
        run_probed(spec, cfg, ProbeConfig::disabled())
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
        let m = run(spec, ShinjukuConfig::paper(3));
        assert!(m.completed > 500);
        assert!(!m.saturated(0.05), "{}", m.row());
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn host_path_is_faster_than_nic_path_at_low_load() {
        // Without the 2.56us NIC round trips, host Shinjuku's unloaded
        // latency beats Shinjuku-Offload's.
        let spec = quick_spec(5_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let host = run(spec, ShinjukuConfig::paper(2));
        let offload = crate::offload::run_probed(
            spec,
            crate::offload::OffloadConfig::paper(2, 2),
            ProbeConfig::disabled(),
        );
        assert!(
            host.p50 < offload.p50,
            "host {} should undercut offload {} at low load",
            host.p50,
            offload.p50
        );
    }

    #[test]
    fn saturates_at_worker_capacity() {
        // 3 workers at 5us => 600k rps ceiling.
        let spec = quick_spec(900_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            ShinjukuConfig {
                workers: 3,
                time_slice: None,
                ..ShinjukuConfig::paper(3)
            },
        );
        assert!(m.saturated(0.05), "{}", m.row());
        assert!(m.achieved_rps < 650_000.0, "achieved {:.0}", m.achieved_rps);
        // With one request in flight per worker, each completion costs a
        // dispatcher round trip of idle time — utilization saturates below
        // 100% (the §2.2 inter-thread communication overhead at work).
        assert!(
            m.worker_utilization > 0.75,
            "utilization {:.2}",
            m.worker_utilization
        );
    }

    #[test]
    fn dispatcher_caps_throughput_on_tiny_requests() {
        // 15 workers of 1us work could do 15M, but the dispatcher's 200ns
        // per request caps the system near 5M (§1) — the Figure 6 story.
        let spec = quick_spec(8_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let m = run(
            spec,
            ShinjukuConfig {
                workers: 15,
                time_slice: None,
                ..ShinjukuConfig::paper(15)
            },
        );
        assert!(
            m.achieved_rps < 5_500_000.0,
            "achieved {:.0}",
            m.achieved_rps
        );
        assert!(
            m.achieved_rps > 3_000_000.0,
            "achieved {:.0}",
            m.achieved_rps
        );
    }

    #[test]
    fn preemption_bounds_bimodal_tail() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        let with = run(spec, ShinjukuConfig::paper(4));
        let without = run(
            spec,
            ShinjukuConfig {
                workers: 4,
                time_slice: None,
                ..ShinjukuConfig::paper(4)
            },
        );
        assert!(with.preemptions > 0);
        assert!(
            with.p99 < without.p99,
            "preemption should cut the tail: with={} without={}",
            with.p99,
            without.p99
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = quick_spec(200_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, ShinjukuConfig::paper(3));
        let b = run(spec, ShinjukuConfig::paper(3));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(200_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let res = crate::common::ResilienceConfig::loss_and_crash(1, SimTime::from_millis(10));
        let m = run_resilient_probed(spec, ShinjukuConfig::paper(4), ProbeConfig::disabled(), res);
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger must close: {f:?}");
        assert!(f.in_pipe() >= 0, "attempt ledger went negative: {f:?}");
        assert!(f.in_pipe() < 200, "attempt residue too large: {f:?}");
        assert!(f.retries > 0, "1% loss must trigger retries");
        assert!(f.quarantines >= 1, "crashed worker must be quarantined");
        assert!(m.completed > 1000, "completed {}", m.completed);
        // Deterministic under faults.
        let m2 = run_resilient_probed(spec, ShinjukuConfig::paper(4), ProbeConfig::disabled(), res);
        assert_eq!(m.faults, m2.faults);
        assert_eq!(m.p99, m2.p99);
    }
}
