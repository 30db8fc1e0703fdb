//! Multi-dispatcher Shinjuku: the §2.2(3) scaling escape hatch, built so
//! its costs are measurable.
//!
//! "The dispatcher can only scale to 5M requests … so multiple dispatchers
//! need to be instantiated. RSS can be used to route packets from the NIC
//! to different dispatchers, but this can again result in load imbalance.
//! Moreover, one physical core is dedicated to each dispatcher … 1/12 =
//! 8.33% of execution resources is wasted" (§2.2).
//!
//! This assembly partitions the server into `groups` independent Shinjuku
//! instances: the NIC RSS-hashes flows across the groups' networker
//! queues, each group has its own networker+dispatcher core pair and a
//! private slice of the workers. Requests cannot cross groups — exactly
//! the imbalance-vs-scalability trade the paper describes. With
//! `groups = 1` this degenerates to vanilla Shinjuku.

use std::collections::VecDeque;

use bytes::Bytes;
use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec, OneShotTimer, TimerMode};
use net_wire::{FrameSpec, MsgKind, MsgRepr, ParsedFrame};
use nic_model::{IfaceId, Link, NicDevice, QueueSteering, Rss};
use nicsched::{
    params, Assignment, Dispatcher, LeastOutstanding, PolicySpec, RecoveryPolicy, SchedPolicy, Task,
};
use sim_core::{Ctx, Engine, FaultPlan, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, scale_duration, AddressPlan, Client, ResilienceConfig, TimeoutOutcome,
    FAULT_SEED_SALT,
};

/// Configuration of a multi-dispatcher Shinjuku.
#[derive(Debug, Clone, Copy)]
pub struct MultiShinjukuConfig {
    /// Independent dispatcher groups (RSS spreads flows across them).
    pub groups: usize,
    /// Worker cores per group.
    pub workers_per_group: usize,
    /// Preemption time slice; `None` disables preemption.
    pub time_slice: Option<SimDuration>,
    /// Queue policy within each group (a registry spec).
    pub policy: PolicySpec,
}

impl MultiShinjukuConfig {
    /// Split `total_cores` into `groups` dispatchers plus equal worker
    /// slices (mirrors the paper's accounting: one physical core per
    /// dispatcher pair).
    pub fn split(total_cores: usize, groups: usize) -> MultiShinjukuConfig {
        assert!(
            groups >= 1 && total_cores > groups,
            "need cores left for workers"
        );
        MultiShinjukuConfig {
            groups,
            workers_per_group: (total_cores - groups) / groups,
            time_slice: Some(params::TIME_SLICE),
            policy: PolicySpec::FCFS,
        }
    }

    /// Fraction of the machine spent on dispatching rather than work —
    /// the §2.2 "8.33% wasted" figure for 1 dispatcher per 11 workers.
    pub fn dispatch_overhead_fraction(&self) -> f64 {
        self.groups as f64 / (self.groups * (1 + self.workers_per_group)) as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum DispItem {
    NewTask(Task),
    Done {
        local_worker: usize,
        req_id: u64,
    },
    Preempted {
        local_worker: usize,
        task: Task,
    },
    Emit(Assignment),
    /// A lease-renewal heartbeat from a group-local worker (recovery only).
    Heartbeat {
        local_worker: usize,
    },
}

enum Ev {
    ClientSend,
    WireToNic(Bytes),
    NetworkerDone(usize),
    DispPush(usize, DispItem),
    DispDone(usize),
    /// (group, local worker index, task)
    WorkerTask(usize, usize, Task),
    WorkerPoll(usize, usize),
    WorkerRunEnd {
        group: usize,
        local: usize,
        gen: u64,
    },
    ClientResp(Bytes),
    /// A client retransmit timer fires for one attempt of one request.
    ClientTimeout {
        req_id: u64,
        attempt: u32,
    },
    /// A worker's periodic liveness heartbeat to its group dispatcher
    /// (group, local worker index; recovery only).
    Heartbeat(usize, usize),
}

struct Worker {
    core: Core,
    timer: OneShotTimer,
    inbox: VecDeque<Task>,
    running: Option<(Task, SimDuration)>,
}

struct Group {
    networker_busy: bool,
    disp_queue: VecDeque<DispItem>,
    disp_busy: bool,
    dispatcher: Dispatcher<Box<dyn SchedPolicy>, LeastOutstanding>,
    workers: Vec<Worker>,
    /// Requests admitted by this group (imbalance statistics).
    admitted: u64,
}

struct MultiShinjuku {
    cfg: MultiShinjukuConfig,
    client: Client,
    horizon: SimTime,
    client_link: Link,
    server_link: Link,
    nic: NicDevice,
    net_iface: IfaceId,
    groups: Vec<Group>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    preemptions: u64,

    /// NIC-side failure-detection policy, when recovery is enabled. Each
    /// group's dispatcher runs its own tracker over its private workers.
    recovery: Option<RecoveryPolicy>,
    req_lost: u64,
    resp_lost: u64,
    stranded: u64,
    nacks: u64,
}

impl MultiShinjuku {
    fn new(spec: WorkloadSpec, cfg: MultiShinjukuConfig, res: ResilienceConfig) -> MultiShinjuku {
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
        // One RX queue per dispatcher group, fed by RSS (§2.2).
        let net_iface = nic.add_iface(
            AddressPlan::dispatcher_mac(),
            cfg.groups,
            1024,
            QueueSteering::Rss(Rss::new(cfg.groups as u32)),
        );

        let t0 = SimTime::ZERO;
        let groups = (0..cfg.groups)
            .map(|g| Group {
                networker_busy: false,
                disp_queue: VecDeque::new(),
                disp_busy: false,
                dispatcher: {
                    let mut d = Dispatcher::new(
                        cfg.workers_per_group,
                        1,
                        cfg.policy.build(),
                        LeastOutstanding,
                    );
                    d.set_admission(res.admission);
                    if let Some(policy) = res.recovery {
                        d.enable_recovery(policy);
                    }
                    d
                },
                workers: (0..cfg.workers_per_group)
                    .map(|w| Worker {
                        core: Core::new(
                            CoreId((g * cfg.workers_per_group + w) as u32),
                            CoreSpec::host_x86(),
                            t0,
                        ),
                        timer: OneShotTimer::new(),
                        inbox: VecDeque::new(),
                        running: None,
                    })
                    .collect(),
                admitted: 0,
            })
            .collect();

        MultiShinjuku {
            cfg,
            horizon: spec.horizon(),
            client,
            client_link,
            server_link,
            nic,
            net_iface,
            groups,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            preemptions: 0,
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

    /// Transmit a server→client frame (response or NACK) starting at `depart`.
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

    fn start_networker(&mut self, g: usize, ctx: &mut Ctx<'_, Ev>) {
        if !self.groups[g].networker_busy && !self.nic.iface(self.net_iface).rx[g].is_empty() {
            self.groups[g].networker_busy = true;
            ctx.probe().busy_i("networker", g, true);
            ctx.schedule_in(params::HOST_NET_PER_PACKET, Ev::NetworkerDone(g));
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

    fn start_dispatcher(&mut self, g: usize, ctx: &mut Ctx<'_, Ev>) {
        let group = &mut self.groups[g];
        if !group.disp_busy {
            if let Some(item) = group.disp_queue.front() {
                group.disp_busy = true;
                let cost = Self::disp_item_cost(item);
                ctx.probe().busy_i("dispatcher", g, true);
                ctx.schedule_in(cost, Ev::DispDone(g));
            }
        }
    }

    fn worker_poll(&mut self, g: usize, local: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.groups[g].workers[local].running.is_some() {
            return;
        }
        {
            let gw = g * self.cfg.workers_per_group + local;
            let now = ctx.now();
            if ctx.faults().worker_crashed(gw, now) {
                return; // dead cores never poll again
            }
            if let Some(resume) = ctx.faults().worker_stalled_until(gw, now) {
                ctx.schedule_at(resume, Ev::WorkerPoll(g, local));
                return;
            }
        }
        let Some(task) = self.groups[g].workers[local].inbox.pop_front() else {
            self.groups[g].workers[local].core.set_idle(ctx.now());
            let global = g * self.cfg.workers_per_group + local;
            ctx.probe().busy_i("worker", global, false);
            return;
        };
        let global = g * self.cfg.workers_per_group + local;
        let depth = self.groups[g].workers[local].inbox.len();
        ctx.probe().mark(task.req_id, "path.3_worker_start");
        ctx.probe().busy_i("worker", global, true);
        ctx.probe().depth_i("worker.inbox", global, depth);
        let ctx_op = self.ctx_pool.begin(task.req_id);
        let mut overhead = ContextPool::op_cost(ctx_op, &self.ctx_costs, &self.host);
        // Per-dispatch grants stamped by the group's policy survive the
        // shared-memory hop intact; `Inherit` reproduces the static timer.
        let run = match task.preempt.resolve(self.cfg.time_slice) {
            Some(slice) => {
                overhead += TimerMode::DuneMapped.set_cost(&self.host);
                task.remaining.min(slice)
            }
            None => task.remaining,
        };
        let slow = {
            let now = ctx.now();
            ctx.faults().worker_slowdown(global, now)
        };
        let wall = if slow > 1.0 {
            scale_duration(overhead + run, slow)
        } else {
            overhead + run
        };
        let worker = &mut self.groups[g].workers[local];
        worker.core.set_busy(ctx.now());
        let end = ctx.now() + wall;
        let gen = worker.timer.arm(end);
        worker.running = Some((task, run));
        ctx.schedule_at(
            end,
            Ev::WorkerRunEnd {
                group: g,
                local,
                gen,
            },
        );
    }

    fn worker_run_end(&mut self, g: usize, local: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        if !self.groups[g].workers[local].timer.accept(gen) {
            return;
        }
        let (task, run) = self.groups[g].workers[local]
            .running
            .take()
            .expect("running");
        let now = ctx.now();
        if ctx
            .faults()
            .worker_crashed(g * self.cfg.workers_per_group + local, now)
        {
            // Died mid-request: the task is stranded, no Done ever reaches
            // the group dispatcher, and its cap-1 slot stays occupied.
            self.ctx_pool.discard(task.req_id);
            self.stranded += 1;
            ctx.probe().count("worker.stranded");
            return;
        }
        if task.remaining <= run {
            ctx.probe().count("worker.completed");
            ctx.probe().mark(task.req_id, "path.4_worker_done");
            let resp_built = now + params::WORKER_TX_COST;
            let resp = FrameSpec {
                src_mac: AddressPlan::dispatcher_mac(),
                dst_mac: AddressPlan::client_mac(),
                src: AddressPlan::worker_ep(g * self.cfg.workers_per_group + local),
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
            self.groups[g].workers[local].core.requests_run += 1;
            ctx.schedule_in(
                params::HOST_QUEUE_HOP,
                Ev::DispPush(
                    g,
                    DispItem::Done {
                        local_worker: local,
                        req_id: task.req_id,
                    },
                ),
            );
            ctx.schedule_at(resp_built, Ev::WorkerPoll(g, local));
        } else {
            let after = task.after_preemption(run);
            if self.ctx_pool.is_saved(after.req_id) {
                // A retransmitted copy of this request is already suspended:
                // kill this copy and free the worker slot via Done.
                ctx.probe().count("worker.dup_killed");
                let free_at = now + TimerMode::DuneMapped.deliver_cost(&self.host);
                ctx.schedule_at(
                    free_at + params::HOST_QUEUE_HOP,
                    Ev::DispPush(
                        g,
                        DispItem::Done {
                            local_worker: local,
                            req_id: after.req_id,
                        },
                    ),
                );
                ctx.schedule_at(free_at, Ev::WorkerPoll(g, local));
                return;
            }
            self.preemptions += 1;
            ctx.probe().count("worker.preempted");
            self.ctx_pool.save(after.req_id);
            let free_at = now
                + TimerMode::DuneMapped.deliver_cost(&self.host)
                + self.ctx_costs.save(&self.host);
            ctx.schedule_at(
                free_at + params::HOST_QUEUE_HOP,
                Ev::DispPush(
                    g,
                    DispItem::Preempted {
                        local_worker: local,
                        task: after,
                    },
                ),
            );
            ctx.schedule_at(free_at, Ev::WorkerPoll(g, local));
        }
    }

    /// Imbalance across groups: max/mean admitted requests.
    fn imbalance(&self) -> f64 {
        let max = self.groups.iter().map(|g| g.admitted).max().unwrap_or(0) as f64;
        let mean =
            self.groups.iter().map(|g| g.admitted).sum::<u64>() as f64 / self.groups.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

impl Model for MultiShinjuku {
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
                    ctx.probe().count("nic.rx_frames");
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), bytes);
                    let depth = self.nic.iface(d.iface).rx[d.queue].len();
                    ctx.probe().depth_i("networker.ring", d.queue, depth);
                    self.start_networker(d.queue, ctx);
                }
            }
            Ev::NetworkerDone(g) => {
                self.groups[g].networker_busy = false;
                ctx.probe().busy_i("networker", g, false);
                ctx.probe().count("networker.parsed");
                if let Some(frame) = self.nic.iface_mut(self.net_iface).rx[g].pop() {
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
                                Ev::DispPush(g, DispItem::NewTask(task)),
                            );
                        }
                    }
                }
                self.start_networker(g, ctx);
            }
            Ev::DispPush(g, item) => {
                self.groups[g].disp_queue.push_back(item);
                let depth = self.groups[g].disp_queue.len();
                ctx.probe().depth_i("dispatcher.inbox", g, depth);
                self.start_dispatcher(g, ctx);
            }
            Ev::DispDone(g) => {
                self.groups[g].disp_busy = false;
                ctx.probe().busy_i("dispatcher", g, false);
                if let Some(item) = self.groups[g].disp_queue.pop_front() {
                    let now = ctx.now();
                    let mut assignments = match item {
                        DispItem::NewTask(task) => {
                            ctx.probe().mark(task.req_id, "path.2_dispatch");
                            match self.groups[g].dispatcher.offer(now, task) {
                                nicsched::AdmitOutcome::Admitted(v) => {
                                    self.groups[g].admitted += 1;
                                    ctx.probe().count("disp.enqueue");
                                    v
                                }
                                nicsched::AdmitOutcome::Shed { nack } => {
                                    ctx.probe().count("disp.shed");
                                    if nack {
                                        self.nacks += 1;
                                        ctx.probe().count("disp.nack");
                                        let frame = FrameSpec {
                                            src_mac: AddressPlan::dispatcher_mac(),
                                            dst_mac: AddressPlan::client_mac(),
                                            src: AddressPlan::dispatcher_ep(),
                                            dst: AddressPlan::client_ep(),
                                            msg: MsgRepr {
                                                kind: MsgKind::Nack,
                                                req_id: task.req_id,
                                                client_id: task.client_id,
                                                service_ns: task.service.as_nanos(),
                                                remaining_ns: 0,
                                                sent_at_ns: task.sent_at.as_nanos(),
                                                body_len: 0,
                                                grant_code: 0,
                                            },
                                        };
                                        let depart = now + self.nic.dma_latency;
                                        self.send_response(&frame, depart, ctx);
                                    }
                                    Vec::new()
                                }
                            }
                        }
                        DispItem::Done {
                            local_worker,
                            req_id,
                        } => {
                            ctx.probe().count("disp.done");
                            self.groups[g].dispatcher.on_done(now, local_worker, req_id)
                        }
                        DispItem::Preempted { local_worker, task } => {
                            ctx.probe().count("disp.preempt_requeue");
                            ctx.probe().mark(task.req_id, "path.2_dispatch");
                            self.groups[g]
                                .dispatcher
                                .on_preempted(now, local_worker, task)
                        }
                        DispItem::Emit(a) => {
                            ctx.probe().count("disp.assign");
                            ctx.schedule_in(
                                params::HOST_QUEUE_HOP,
                                Ev::WorkerTask(g, a.worker, a.task),
                            );
                            Vec::new()
                        }
                        DispItem::Heartbeat { local_worker } => {
                            ctx.probe().count("disp.heartbeat");
                            self.groups[g].dispatcher.on_heartbeat(now, local_worker)
                        }
                    };
                    let group = &mut self.groups[g];
                    for a in assignments.drain(..).rev() {
                        group.disp_queue.push_front(DispItem::Emit(a));
                    }
                    group.dispatcher.recycle(assignments);
                    let central = self.groups[g].dispatcher.queue_len();
                    ctx.probe().depth_i("dispatcher.central", g, central);
                }
                self.start_dispatcher(g, ctx);
            }
            Ev::WorkerTask(g, local, task) => {
                {
                    let gw = g * self.cfg.workers_per_group + local;
                    let now = ctx.now();
                    if ctx.faults().worker_crashed(gw, now) {
                        // Delivered into a dead core: stranded on arrival.
                        self.ctx_pool.discard(task.req_id);
                        self.stranded += 1;
                        ctx.probe().count("worker.stranded");
                        return;
                    }
                }
                self.groups[g].workers[local].inbox.push_back(task);
                if self.groups[g].workers[local].running.is_none() {
                    ctx.schedule_now(Ev::WorkerPoll(g, local));
                }
            }
            Ev::WorkerPoll(g, local) => self.worker_poll(g, local, ctx),
            Ev::WorkerRunEnd { group, local, gen } => self.worker_run_end(group, local, gen, ctx),
            Ev::ClientResp(bytes) => {
                let Ok(parsed) = ParsedFrame::parse(&bytes) else {
                    return;
                };
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
            Ev::Heartbeat(g, local) => {
                let now = ctx.now();
                if now >= self.horizon {
                    return;
                }
                let Some(policy) = self.recovery else {
                    return;
                };
                let global = g * self.cfg.workers_per_group + local;
                let silenced =
                    ctx.faults().worker_down(global, now) || ctx.faults().feedback_blackout(now);
                // Worker side: lease renewal crosses host shared memory —
                // a silenced worker cannot renew.
                if !silenced {
                    ctx.schedule_in(
                        params::HOST_QUEUE_HOP,
                        Ev::DispPush(
                            g,
                            DispItem::Heartbeat {
                                local_worker: local,
                            },
                        ),
                    );
                }
                // Group-dispatcher side: expire leases and re-dispatch
                // orphans within this group on the same tick.
                let recovered = self.groups[g].dispatcher.check_health(now);
                if !recovered.is_empty() {
                    ctx.probe().count("recovery.redispatch");
                }
                for a in recovered {
                    ctx.schedule_now(Ev::DispPush(g, DispItem::Emit(a)));
                }
                ctx.schedule_in(policy.heartbeat, Ev::Heartbeat(g, local));
            }
        }
    }
}

/// Outcome of a multi-dispatcher run: standard metrics plus the group
/// imbalance ratio (max/mean requests per group; 1.0 = perfectly even).
#[derive(Debug, Clone)]
pub struct MultiRunMetrics {
    /// Standard run metrics.
    pub metrics: RunMetrics,
    /// Max/mean admitted requests across groups.
    pub imbalance: f64,
}

/// Run a multi-dispatcher Shinjuku simulation with stage-level
/// observability (per-group stages are indexed, e.g. `dispatcher[1]`).
pub fn run_probed(
    spec: WorkloadSpec,
    cfg: MultiShinjukuConfig,
    probe: ProbeConfig,
) -> MultiRunMetrics {
    run_resilient_probed(spec, cfg, probe, ResilienceConfig::default())
}

/// Run a multi-dispatcher Shinjuku with fault injection, client retries
/// and per-group admission control. The staleness-fallback settings in
/// `res` are ignored: each group's dispatcher sits one queue hop from its
/// private workers, so there is no cross-group feedback to go stale — the
/// RSS spray across groups already *is* the uninformed fallback.
pub fn run_resilient_probed(
    spec: WorkloadSpec,
    cfg: MultiShinjukuConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> MultiRunMetrics {
    let mut engine = Engine::new(MultiShinjuku::new(spec, cfg, res));
    engine.set_probe(Probe::new(probe));
    engine.set_invariants(crate::common::checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    engine.schedule_at(SimTime::ZERO, Ev::ClientSend);
    if engine.model().recovery.is_some() {
        for g in 0..cfg.groups {
            for local in 0..cfg.workers_per_group {
                engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(g, local));
            }
        }
    }
    engine.run_until(spec.horizon());
    let horizon = spec.horizon();
    let model = engine.model();
    let all_workers: Vec<&Worker> = model.groups.iter().flat_map(|g| g.workers.iter()).collect();
    let util = all_workers
        .iter()
        .map(|w| w.core.utilization(horizon))
        .sum::<f64>()
        / all_workers.len() as f64;
    let imbalance = model.imbalance();
    let ring_dropped = model.nic.total_drops();
    let shed: u64 = model.groups.iter().map(|g| g.dispatcher.stats.shed).sum();
    let mut metrics = assemble_metrics(&model.client, ring_dropped, model.preemptions, util);
    let fm = &mut metrics.faults;
    fm.req_link_lost = model.req_lost;
    fm.resp_link_lost = model.resp_lost;
    fm.ring_dropped = ring_dropped;
    fm.stranded = model.stranded;
    fm.shed = shed;
    fm.nacks = model.nacks;
    if model.recovery.is_some() {
        for group in &model.groups {
            fm.recovered += group.dispatcher.stats.recovered;
            fm.recovery_duplicates += group.dispatcher.stats.late_duplicates;
            if let Some(h) = group.dispatcher.health() {
                fm.suspicions += h.stats.suspicions;
                fm.readmissions += h.stats.readmissions;
            }
        }
    }
    metrics.dropped = ring_dropped + fm.link_lost() + shed;
    if probe.enabled {
        metrics.stages = Some(engine.probe_mut().report(horizon));
    }
    crate::common::close_invariants(engine.take_invariants(), horizon, &metrics);
    MultiRunMetrics { metrics, imbalance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: MultiShinjukuConfig) -> MultiRunMetrics {
        run_probed(spec, cfg, ProbeConfig::disabled())
    }

    fn quick_spec(rps: f64, dist: ServiceDist) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist,
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(15),
            seed: 42,
        }
    }

    #[test]
    fn single_group_acts_like_vanilla_shinjuku() {
        let spec = quick_spec(300_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let multi = run(
            spec,
            MultiShinjukuConfig {
                groups: 1,
                workers_per_group: 3,
                time_slice: None,
                policy: PolicySpec::FCFS,
            },
        );
        let vanilla = crate::shinjuku::run_probed(
            spec,
            crate::shinjuku::ShinjukuConfig {
                workers: 3,
                time_slice: None,
                policy: PolicySpec::FCFS,
            },
            ProbeConfig::disabled(),
        );
        assert_eq!(multi.metrics.completed, vanilla.completed);
        assert_eq!(multi.metrics.p99, vanilla.p99);
        assert!((multi.imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_dispatchers_break_the_single_dispatcher_cap() {
        // 1us requests, far beyond one dispatcher's ~4-5M/s: with four
        // dispatcher groups the aggregate scales well past it.
        let spec = quick_spec(9_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let one = run(spec, MultiShinjukuConfig::split(32, 1));
        let four = run(spec, MultiShinjukuConfig::split(32, 4));
        assert!(
            four.metrics.achieved_rps > one.metrics.achieved_rps * 1.3,
            "4 dispatchers ({:.1}M) should outscale 1 ({:.1}M)",
            four.metrics.achieved_rps / 1e6,
            one.metrics.achieved_rps / 1e6
        );
    }

    #[test]
    fn rss_across_groups_creates_imbalance() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, MultiShinjukuConfig::split(16, 4));
        assert!(
            m.imbalance > 1.0,
            "RSS group shares are never perfectly even"
        );
        assert!(
            m.imbalance < 2.0,
            "but not catastrophic at uniform flows: {}",
            m.imbalance
        );
    }

    #[test]
    fn dispatch_overhead_fraction_matches_paper_accounting() {
        // §2.2: 1 dispatcher + 11 workers -> 1/12 = 8.33% wasted.
        let cfg = MultiShinjukuConfig {
            groups: 1,
            workers_per_group: 11,
            time_slice: None,
            policy: PolicySpec::FCFS,
        };
        assert!((cfg.dispatch_overhead_fraction() - 1.0 / 12.0).abs() < 1e-9);
        // 4 groups of 11: still 8.33% of the machine.
        let cfg4 = MultiShinjukuConfig {
            groups: 4,
            workers_per_group: 11,
            time_slice: None,
            policy: PolicySpec::FCFS,
        };
        assert!((cfg4.dispatch_overhead_fraction() - 1.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cores left for workers")]
    fn split_needs_worker_cores() {
        let _ = MultiShinjukuConfig::split(4, 4);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        // Crash one worker of group 1 (global index = workers_per_group + 0).
        let res = ResilienceConfig::loss_and_crash(
            MultiShinjukuConfig::split(16, 2).workers_per_group,
            SimTime::ZERO + SimDuration::from_millis(10),
        );
        let run = || {
            run_resilient_probed(
                spec,
                MultiShinjukuConfig::split(16, 2),
                ProbeConfig::disabled(),
                res,
            )
        };
        let m = run();
        let f = &m.metrics.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger leaks: {f:?}");
        assert!(f.in_pipe() < 200, "attempt residue beyond pipeline: {f:?}");
        assert!(f.retries > 0, "loss never triggered a retry");
        assert!(f.stranded >= 1, "crash stranded nothing: {f:?}");
        assert!(
            m.metrics.completed > 1_000,
            "goodput collapsed: {}",
            m.metrics.row()
        );
        let b = run();
        assert_eq!(m.metrics.faults, b.metrics.faults);
        assert_eq!(m.metrics.p99, b.metrics.p99);
    }

    #[test]
    fn deterministic() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, MultiShinjukuConfig::split(16, 2));
        let b = run(spec, MultiShinjukuConfig::split(16, 2));
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.p99, b.metrics.p99);
        assert_eq!(a.imbalance, b.imbalance);
    }
}
