//! Shinjuku: centralized preemptive scheduling on the host (Kaffes et al.,
//! NSDI '19 — the baseline the paper compares against), and its §2.2(3)
//! scale-out to several dispatchers.
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
//!
//! "The dispatcher can only scale to 5M requests … so multiple dispatchers
//! need to be instantiated. RSS can be used to route packets from the NIC
//! to different dispatchers, but this can again result in load imbalance.
//! Moreover, one physical core is dedicated to each dispatcher … 1/12 =
//! 8.33% of execution resources is wasted" (§2.2). With `groups > 1` the
//! server is partitioned into that many independent Shinjuku instances:
//! the NIC RSS-hashes flows across the groups' networker queues, and each
//! group has its own networker+dispatcher core pair, its own staleness
//! governor and a private slice of the workers. Requests cannot cross
//! groups — exactly the imbalance-vs-scalability trade the paper
//! describes. One group is vanilla Shinjuku.

use std::collections::VecDeque;

use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec, OneShotTimer, TimerMode};
use net_wire::{FrameSpec, MsgKind, MsgRepr};
use nic_model::{IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::{
    params, AdmitOutcome, Assignment, Dispatcher, LeastOutstanding, PolicySpec, RecoveryPolicy,
    SchedPolicy, Task,
};
use sim_core::probe::{Busy, Counter, Family, Gauge, Hop, IntoHandle};
use sim_core::{Ctx, Engine, FaultPlan, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, mean_utilization, scale_duration, task_msg, AddressPlan, Client, ClientEdge,
    ClientEv, FeedbackGovernor, ResilienceConfig, Stage, Wire, FAULT_SEED_SALT,
};

/// Configuration of a Shinjuku server with one or more dispatcher groups.
#[derive(Debug, Clone, Copy)]
pub struct ShinjukuConfig {
    /// Independent networker+dispatcher groups: 1 is vanilla Shinjuku,
    /// more is the §2.2(3) scale-out with RSS spreading flows across them.
    pub groups: usize,
    /// Worker cores per group (each group's networker+dispatcher pair
    /// occupies one more physical core, which is why the paper's figures
    /// give Shinjuku one fewer worker than Shinjuku-Offload).
    pub workers: usize,
    /// Preemption time slice; `None` disables preemption.
    pub time_slice: Option<SimDuration>,
    /// Queue policy within each group (FCFS in the original system); a
    /// registry spec such as `PolicySpec::parse("srpt")`.
    pub policy: PolicySpec,
}

impl ShinjukuConfig {
    /// The paper's §4 configuration: one group, the 10 µs slice.
    pub fn paper(workers: usize) -> ShinjukuConfig {
        ShinjukuConfig {
            groups: 1,
            workers,
            time_slice: Some(params::TIME_SLICE),
            policy: PolicySpec::FCFS,
        }
    }

    /// Split `total_cores` into `groups` dispatchers plus equal worker
    /// slices (mirrors the paper's accounting: one physical core per
    /// dispatcher pair).
    pub fn split(total_cores: usize, groups: usize) -> ShinjukuConfig {
        assert!(
            groups >= 1 && total_cores > groups,
            "need cores left for workers"
        );
        ShinjukuConfig {
            groups,
            ..ShinjukuConfig::paper((total_cores - groups) / groups)
        }
    }

    /// Fraction of the machine spent on dispatching rather than work —
    /// the §2.2 "8.33% wasted" figure for 1 dispatcher per 11 workers.
    pub fn dispatch_overhead_fraction(&self) -> f64 {
        self.groups as f64 / (self.groups * (1 + self.workers)) as f64
    }
}

/// Items crossing into a group's dispatcher thread. Worker indices are
/// local to the group.
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

/// Events; `(group, worker)` pairs index a group and a worker within it.
enum Ev {
    Client(ClientEv),
    WireToNic(FrameSpec),
    NetworkerDone(usize),
    DispPush(usize, DispItem),
    DispDone(usize),
    /// A task becomes visible in a worker's shared-memory inbox.
    WorkerTask(usize, usize, Task),
    WorkerPoll(usize, usize),
    WorkerRunEnd {
        group: usize,
        worker: usize,
        gen: u64,
    },
    /// A worker's periodic liveness heartbeat to its group's dispatcher.
    Heartbeat(usize, usize),
}

impl ClientEdge for Ev {
    fn client(ev: ClientEv) -> Ev {
        Ev::Client(ev)
    }
    fn at_server(spec: FrameSpec) -> Ev {
        Ev::WireToNic(spec)
    }
}

struct Worker {
    core: Core,
    timer: OneShotTimer,
    inbox: VecDeque<Task>,
    running: Option<(Task, SimDuration)>,
}

/// Shinjuku's probe keys beyond its stages and client edge, registered
/// once at construction. Workers are indexed machine-wide, groups by
/// group.
struct Keys {
    rx_frames: Counter,
    parsed: Counter,
    enqueued: Counter,
    shed: Counter,
    nacks: Counter,
    done: Counter,
    requeued: Counter,
    assigned: Counter,
    heartbeats: Counter,
    completed: Counter,
    dup_killed: Counter,
    preempted: Counter,
    stranded: Counter,
    fallback_switch: Counter,
    redispatch: Counter,
    central: Family<Gauge>,
    inbox: Family<Gauge>,
    worker: Family<Busy>,
    host_net: Hop,
    dispatched: Hop,
    worker_start: Hop,
    worker_done: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, cfg: &ShinjukuConfig) -> Keys {
        let workers = cfg.groups * cfg.workers;
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            parsed: probe.counter("networker.parsed"),
            enqueued: probe.counter("disp.enqueue"),
            shed: probe.counter("disp.shed"),
            nacks: probe.counter("disp.nack"),
            done: probe.counter("disp.done"),
            requeued: probe.counter("disp.preempt_requeue"),
            assigned: probe.counter("disp.assign"),
            heartbeats: probe.counter("disp.heartbeat"),
            completed: probe.counter("worker.completed"),
            dup_killed: probe.counter("worker.dup_killed"),
            preempted: probe.counter("worker.preempted"),
            stranded: probe.counter("worker.stranded"),
            fallback_switch: probe.counter("fallback.switch"),
            redispatch: probe.counter("recovery.redispatch"),
            central: probe.gauge_family("dispatcher.central", cfg.groups),
            inbox: probe.gauge_family("worker.inbox", workers),
            worker: probe.busy_family("worker", workers),
            host_net: probe.hop("path.1_host_net"),
            dispatched: probe.hop("path.2_dispatch"),
            worker_start: probe.hop("path.3_worker_start"),
            worker_done: probe.hop("path.4_worker_done"),
        }
    }
}

/// One networker+dispatcher pair and the workers it owns.
struct Group {
    /// The networker thread; its queue is the group's NIC RX ring.
    networker: Stage<()>,
    /// The dispatcher thread and its shared-memory inbox.
    disp_thread: Stage<DispItem>,
    dispatcher: Dispatcher<Box<dyn SchedPolicy>, LeastOutstanding>,
    governor: Option<FeedbackGovernor>,
    workers: Vec<Worker>,
    /// Requests admitted by this group (imbalance statistics).
    admitted: u64,
}

struct Shinjuku {
    cfg: ShinjukuConfig,
    client: Client,
    horizon: SimTime,
    wire: Wire,
    nic: NicDevice,
    net_iface: IfaceId,
    groups: Vec<Group>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    preemptions: u64,

    /// NIC-side failure-detection policy, when recovery is enabled. Each
    /// group's dispatcher runs its own tracker over its own workers.
    recovery: Option<RecoveryPolicy>,
    stranded: u64,
    keys: Keys,
}

impl Shinjuku {
    fn new(
        spec: WorkloadSpec,
        cfg: ShinjukuConfig,
        res: ResilienceConfig,
        probe: &mut Probe,
    ) -> Shinjuku {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let wire = Wire::new(&res, &mut master, probe, "path.5_response");

        let mut nic = NicDevice::new(params::PCIE_DMA);
        // One RX queue per group; several are fed by RSS (§2.2). A single
        // queue skips RSS, whose Toeplitz hash would pick queue 0 anyway.
        let steering = if cfg.groups == 1 {
            QueueSteering::Single
        } else {
            QueueSteering::Rss(Rss::new(cfg.groups as u32))
        };
        let net_iface = nic.add_iface(AddressPlan::dispatcher_mac(), cfg.groups, 1024, steering);

        let t0 = SimTime::ZERO;
        let net_busy = probe.busy_family("networker", cfg.groups);
        let net_ring = probe.gauge_family("networker.ring", cfg.groups);
        let disp_busy = probe.busy_family("dispatcher", cfg.groups);
        let disp_inbox = probe.gauge_family("dispatcher.inbox", cfg.groups);
        let groups = (0..cfg.groups)
            .map(|g| {
                // Shinjuku keeps exactly one request in flight per worker:
                // the dispatcher assigns to *idle* workers only (§2.1).
                let mut dispatcher =
                    Dispatcher::new(cfg.workers, 1, cfg.policy.build(), LeastOutstanding);
                dispatcher.set_admission(res.admission);
                if let Some(policy) = res.recovery {
                    dispatcher.enable_recovery(policy);
                }
                Group {
                    networker: Stage::new(
                        net_busy.at(g).into_handle(),
                        net_ring.at(g).into_handle(),
                        params::HOST_NET_PER_PACKET,
                    ),
                    disp_thread: Stage::new(
                        disp_busy.at(g).into_handle(),
                        disp_inbox.at(g).into_handle(),
                        SimDuration::ZERO,
                    )
                    .priced(Shinjuku::disp_item_cost),
                    dispatcher,
                    governor: res
                        .fallback
                        .map(|p| FeedbackGovernor::new(cfg.workers, params::HOST_QUEUE_HOP, p)),
                    workers: (0..cfg.workers)
                        .map(|w| Worker {
                            core: Core::new(
                                CoreId((g * cfg.workers + w) as u32),
                                CoreSpec::host_x86(),
                                t0,
                            ),
                            timer: OneShotTimer::new(),
                            inbox: VecDeque::new(),
                            running: None,
                        })
                        .collect(),
                    admitted: 0,
                }
            })
            .collect();

        Shinjuku {
            cfg,
            horizon: spec.horizon(),
            client,
            wire,
            nic,
            net_iface,
            groups,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            preemptions: 0,
            recovery: res.recovery,
            stranded: 0,
            keys: Keys::new(probe, &cfg),
        }
    }

    /// Machine-wide index of group `g`'s worker `w` (fault plans, core ids
    /// and endpoints number workers across groups).
    fn global(&self, g: usize, w: usize) -> usize {
        g * self.cfg.workers + w
    }

    /// Sample group `g`'s RX ring and start its networker on the head
    /// frame if it is idle.
    fn poll_networker(&mut self, g: usize, ctx: &mut Ctx<'_, Ev>) {
        let ring = &self.nic.iface(self.net_iface).rx[g];
        self.groups[g]
            .networker
            .poll(ring, Ev::NetworkerDone(g), ctx);
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

    /// Run one dispatcher item of group `g`, returning the assignments it
    /// decided.
    fn dispatch(&mut self, g: usize, item: DispItem, ctx: &mut Ctx<'_, Ev>) -> Vec<Assignment> {
        let now = ctx.now();
        match item {
            DispItem::NewTask(task) => match self.groups[g].dispatcher.offer(now, task) {
                AdmitOutcome::Admitted(assignments) => {
                    self.groups[g].admitted += 1;
                    ctx.probe().count(&self.keys.enqueued);
                    ctx.probe().mark(task.req_id, &self.keys.dispatched);
                    assignments
                }
                AdmitOutcome::Shed { nack } => {
                    ctx.probe().count(&self.keys.shed);
                    if nack {
                        ctx.probe().count(&self.keys.nacks);
                        self.wire.nack(&task, now + self.nic.dma_latency, ctx);
                    }
                    Vec::new()
                }
            },
            DispItem::Done { worker, req_id } => {
                ctx.probe().count(&self.keys.done);
                self.groups[g].dispatcher.on_done(now, worker, req_id)
            }
            DispItem::Preempted { worker, task } => {
                ctx.probe().count(&self.keys.requeued);
                ctx.probe().mark(task.req_id, &self.keys.dispatched);
                self.groups[g].dispatcher.on_preempted(now, worker, task)
            }
            DispItem::Emit(a) => {
                ctx.probe().count(&self.keys.assigned);
                ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::WorkerTask(g, a.worker, a.task));
                Vec::new()
            }
            DispItem::Heartbeat { worker } => {
                ctx.probe().count(&self.keys.heartbeats);
                self.groups[g].dispatcher.on_heartbeat(now, worker)
            }
        }
    }

    fn worker_poll(&mut self, g: usize, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.groups[g].workers[w].running.is_some() {
            return;
        }
        let global = self.global(g, w);
        let now = ctx.now();
        if ctx.faults().worker_crashed(global, now) {
            return; // dead cores never poll again
        }
        if let Some(resume) = ctx.faults().worker_stalled_until(global, now) {
            ctx.schedule_at(resume, Ev::WorkerPoll(g, w));
            return;
        }
        let Some(task) = self.groups[g].workers[w].inbox.pop_front() else {
            self.groups[g].workers[w].core.set_idle(now);
            ctx.probe().busy(self.keys.worker.at(global), false);
            return;
        };
        let depth = self.groups[g].workers[w].inbox.len();
        ctx.probe().mark(task.req_id, &self.keys.worker_start);
        ctx.probe().busy(self.keys.worker.at(global), true);
        ctx.probe().depth(self.keys.inbox.at(global), depth);
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
        let slow = ctx.faults().worker_slowdown(global, now);
        let wall = if slow > 1.0 {
            scale_duration(overhead + run, slow)
        } else {
            overhead + run
        };
        let worker = &mut self.groups[g].workers[w];
        worker.core.set_busy(now);
        let end = now + wall;
        let gen = worker.timer.arm(end);
        worker.running = Some((task, run));
        ctx.schedule_at(
            end,
            Ev::WorkerRunEnd {
                group: g,
                worker: w,
                gen,
            },
        );
    }

    fn worker_run_end(&mut self, g: usize, w: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        if !self.groups[g].workers[w].timer.accept(gen) {
            return;
        }
        let (task, run) = self.groups[g].workers[w]
            .running
            .take()
            .expect("running task");
        let now = ctx.now();
        let global = self.global(g, w);
        if ctx.faults().worker_crashed(global, now) {
            // The worker died mid-request: no response, and no Done ever
            // reaches the dispatcher, so its cap-1 slot stays occupied.
            self.strand(task, ctx);
            return;
        }
        if task.remaining <= run {
            ctx.probe().count(&self.keys.completed);
            ctx.probe().mark(task.req_id, &self.keys.worker_done);
            // Finished: response straight out the NIC; Done notification is
            // a shared-memory write visible one queue hop later.
            let resp_built = now + params::WORKER_TX_COST;
            let resp = FrameSpec {
                src_mac: AddressPlan::dispatcher_mac(),
                dst_mac: AddressPlan::client_mac(),
                src: AddressPlan::worker_ep(global),
                dst: AddressPlan::client_ep(),
                msg: MsgRepr {
                    body_len: task.body_len,
                    ..task_msg(MsgKind::Response, &task)
                },
            };
            self.wire
                .response(resp, resp_built + self.nic.dma_latency, ctx);
            self.ctx_pool.discard(task.req_id);
            self.groups[g].workers[w].core.requests_run += 1;
            let done = DispItem::Done {
                worker: w,
                req_id: task.req_id,
            };
            ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::DispPush(g, done));
            ctx.schedule_at(resp_built, Ev::WorkerPoll(g, w));
            return;
        }
        // Slice expiry: posted interrupt, save, hand back via memory.
        let after = task.after_preemption(run);
        let (item, free_at) = if self.ctx_pool.is_saved(after.req_id) {
            // A retransmitted copy of this request is already suspended:
            // kill this copy and free the worker slot via Done.
            ctx.probe().count(&self.keys.dup_killed);
            let done = DispItem::Done {
                worker: w,
                req_id: after.req_id,
            };
            (done, now + TimerMode::DuneMapped.deliver_cost(&self.host))
        } else {
            self.preemptions += 1;
            ctx.probe().count(&self.keys.preempted);
            self.ctx_pool.save(after.req_id);
            let free_at = now
                + TimerMode::DuneMapped.deliver_cost(&self.host)
                + self.ctx_costs.save(&self.host);
            (
                DispItem::Preempted {
                    worker: w,
                    task: after,
                },
                free_at,
            )
        };
        ctx.schedule_at(free_at + params::HOST_QUEUE_HOP, Ev::DispPush(g, item));
        ctx.schedule_at(free_at, Ev::WorkerPoll(g, w));
    }

    /// A task died with its worker: it never runs again here, so any saved
    /// context goes too (a retransmitted copy must start fresh).
    fn strand(&mut self, task: Task, ctx: &mut Ctx<'_, Ev>) {
        self.ctx_pool.discard(task.req_id);
        self.stranded += 1;
        ctx.probe().count(&self.keys.stranded);
    }

    /// A worker's heartbeat tick: feed the group's staleness governor and
    /// health tracker, and emit whatever work that unparks.
    fn heartbeat(&mut self, g: usize, w: usize, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        if now >= self.horizon {
            return;
        }
        let global = self.global(g, w);
        let silenced = ctx.faults().worker_down(global, now) || ctx.faults().feedback_blackout(now);
        let group = &mut self.groups[g];
        let mut assignments = Vec::new();
        let mut next = None;
        if let Some(gov) = group.governor.as_mut() {
            if !silenced {
                let occupancy = group.dispatcher.outstanding(w);
                gov.report(now, w, occupancy, group.workers[w].running.is_some());
            }
            let was_degraded = gov.is_degraded();
            gov.evaluate(now, &mut group.dispatcher);
            if gov.is_degraded() != was_degraded {
                ctx.probe().count(&self.keys.fallback_switch);
            }
            assignments = group.dispatcher.kick(now);
            next = Some(gov.policy().heartbeat);
        }
        if let Some(policy) = self.recovery {
            // Worker side: lease renewal crosses host shared memory like
            // any other notification — a silenced worker (crashed,
            // stalled, or blacked out) cannot renew.
            if !silenced {
                let beat = DispItem::Heartbeat { worker: w };
                ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::DispPush(g, beat));
            }
            // Dispatcher side: expire leases and re-dispatch orphans on
            // the same tick.
            let recovered = group.dispatcher.check_health(now);
            if !recovered.is_empty() {
                ctx.probe().count(&self.keys.redispatch);
            }
            assignments.extend(recovered);
            next = Some(next.map_or(policy.heartbeat, |n: SimDuration| n.min(policy.heartbeat)));
        }
        // Unparked work still pays the dispatcher's per-assignment cost
        // like any other emission.
        for a in assignments {
            ctx.schedule_now(Ev::DispPush(g, DispItem::Emit(a)));
        }
        if let Some(interval) = next {
            ctx.schedule_in(interval, Ev::Heartbeat(g, w));
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

impl Model for Shinjuku {
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
                    // DMA into host memory, then the group's networker can
                    // see it.
                    ctx.probe().count(&self.keys.rx_frames);
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), spec);
                    self.poll_networker(d.queue, ctx);
                }
            }
            Ev::NetworkerDone(g) => {
                self.groups[g].networker.complete(ctx);
                ctx.probe().count(&self.keys.parsed);
                if let Some(frame) = self.nic.iface_mut(self.net_iface).rx[g].pop() {
                    let m = frame.spec.msg;
                    if m.kind == MsgKind::Request {
                        ctx.probe().mark(m.req_id, &self.keys.host_net);
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
                self.poll_networker(g, ctx);
            }
            Ev::DispPush(g, item) => self.groups[g]
                .disp_thread
                .enqueue(item, Ev::DispDone(g), ctx),
            Ev::DispDone(g) => {
                if let Some(item) = self.groups[g].disp_thread.complete(ctx) {
                    let mut assignments = self.dispatch(g, item, ctx);
                    // Decided assignments go to the head of the inbox, in
                    // order; the emptied buffer goes back for reuse.
                    let group = &mut self.groups[g];
                    for a in assignments.drain(..).rev() {
                        group.disp_thread.push_front(DispItem::Emit(a));
                    }
                    group.dispatcher.recycle(assignments);
                    let central = group.dispatcher.queue_len();
                    ctx.probe().depth(self.keys.central.at(g), central);
                }
                self.groups[g].disp_thread.resume(Ev::DispDone(g), ctx);
            }
            Ev::WorkerTask(g, w, task) => {
                let now = ctx.now();
                if ctx.faults().worker_crashed(self.global(g, w), now) {
                    // Delivered to a dead worker's inbox: never executed.
                    self.strand(task, ctx);
                    return;
                }
                let worker = &mut self.groups[g].workers[w];
                worker.inbox.push_back(task);
                let (depth, idle) = (worker.inbox.len(), worker.running.is_none());
                ctx.probe()
                    .depth(self.keys.inbox.at(self.global(g, w)), depth);
                if idle {
                    ctx.schedule_now(Ev::WorkerPoll(g, w));
                }
            }
            Ev::WorkerPoll(g, w) => self.worker_poll(g, w, ctx),
            Ev::WorkerRunEnd { group, worker, gen } => self.worker_run_end(group, worker, gen, ctx),
            Ev::Heartbeat(g, w) => self.heartbeat(g, w, ctx),
        }
    }
}

/// Outcome of a Shinjuku run: standard metrics plus the group imbalance
/// ratio (max/mean requests per group; 1.0 = perfectly even).
#[derive(Debug, Clone)]
pub struct ShinjukuMetrics {
    /// Standard run metrics.
    pub metrics: RunMetrics,
    /// Max/mean admitted requests across groups.
    pub imbalance: f64,
}

/// Run a Shinjuku simulation with stage-level observability (per-group
/// stages are indexed, e.g. `dispatcher[1]`).
pub fn run_probed(spec: WorkloadSpec, cfg: ShinjukuConfig, probe: ProbeConfig) -> ShinjukuMetrics {
    run_resilient_probed(spec, cfg, probe, ResilienceConfig::default())
}

/// Run a Shinjuku simulation with fault injection, client retries, and
/// per-group admission control, staleness governor and recovery.
/// Degraded time, switches and quarantines are summed over the groups.
pub fn run_resilient_probed(
    spec: WorkloadSpec,
    cfg: ShinjukuConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> ShinjukuMetrics {
    let mut recorder = Probe::new(probe);
    let mut engine = Engine::new(Shinjuku::new(spec, cfg, res, &mut recorder));
    engine.set_probe(recorder);
    engine.set_invariants(crate::common::checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
    if res.fallback.is_some() || res.recovery.is_some() {
        for g in 0..cfg.groups {
            for w in 0..cfg.workers {
                engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(g, w));
            }
        }
    }
    engine.run_until(spec.horizon());
    let horizon = spec.horizon();
    let model = engine.model();
    let workers = model.groups.iter().flat_map(|g| &g.workers);
    let util = mean_utilization(workers.map(|w| &w.core), horizon);
    let imbalance = model.imbalance();
    let mut metrics = assemble_metrics(&model.client, &model.wire, model.preemptions, util);
    let fm = &mut metrics.faults;
    fm.ring_dropped = model.nic.total_drops();
    fm.stranded = model.stranded;
    for group in &model.groups {
        fm.shed += group.dispatcher.stats.shed;
        if let Some(gov) = &group.governor {
            fm.fallback_switches += gov.switches;
            fm.fallback_ns += gov.fallback_ns(horizon);
            fm.quarantines += gov.quarantines;
        }
        if let Some(h) = group.dispatcher.health() {
            fm.recovered += group.dispatcher.stats.recovered;
            fm.recovery_duplicates += group.dispatcher.stats.late_duplicates;
            fm.suspicions += h.stats.suspicions;
            fm.readmissions += h.stats.readmissions;
        }
    }
    metrics.dropped += fm.ring_dropped + fm.shed;
    if probe.enabled {
        metrics.stages = Some(engine.probe_mut().report(horizon));
    }
    crate::common::close_invariants(engine.take_invariants(), horizon, &metrics);
    ShinjukuMetrics { metrics, imbalance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::faults::FaultConfig;
    use workload::{RetryPolicy, ServiceDist};

    use crate::common::StalenessPolicy;

    fn run(spec: WorkloadSpec, cfg: ShinjukuConfig) -> ShinjukuMetrics {
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

    fn unsliced(workers: usize) -> ShinjukuConfig {
        ShinjukuConfig {
            time_slice: None,
            ..ShinjukuConfig::paper(workers)
        }
    }

    #[test]
    fn light_load_completes_everything() {
        let spec = quick_spec(50_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, ShinjukuConfig::paper(3)).metrics;
        assert!(m.completed > 500);
        assert!(!m.saturated(0.05), "{}", m.row());
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn host_path_is_faster_than_nic_path_at_low_load() {
        // Without the 2.56us NIC round trips, host Shinjuku's unloaded
        // latency beats Shinjuku-Offload's.
        let spec = quick_spec(5_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let host = run(spec, ShinjukuConfig::paper(2)).metrics;
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
        let m = run(spec, unsliced(3)).metrics;
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
        let m = run(spec, unsliced(15)).metrics;
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
    fn more_dispatchers_break_the_single_dispatcher_cap() {
        // 1us requests, far beyond one dispatcher's ~4-5M/s: with four
        // dispatcher groups the aggregate scales well past it.
        let spec = quick_spec(9_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let one = run(spec, ShinjukuConfig::split(32, 1)).metrics;
        let four = run(spec, ShinjukuConfig::split(32, 4)).metrics;
        assert!(
            four.achieved_rps > one.achieved_rps * 1.3,
            "4 dispatchers ({:.1}M) should outscale 1 ({:.1}M)",
            four.achieved_rps / 1e6,
            one.achieved_rps / 1e6
        );
    }

    #[test]
    fn preemption_bounds_bimodal_tail() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        let with = run(spec, ShinjukuConfig::paper(4)).metrics;
        let without = run(spec, unsliced(4)).metrics;
        assert!(with.preemptions > 0);
        assert!(
            with.p99 < without.p99,
            "preemption should cut the tail: with={} without={}",
            with.p99,
            without.p99
        );
    }

    #[test]
    fn rss_across_groups_creates_imbalance() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        assert_eq!(run(spec, ShinjukuConfig::paper(3)).imbalance, 1.0);
        let m = run(spec, ShinjukuConfig::split(16, 4));
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
        // §2.2: 1 dispatcher + 11 workers -> 1/12 = 8.33% wasted, and 4
        // groups of 11 still waste 8.33% of the machine.
        for groups in [1, 4] {
            let cfg = ShinjukuConfig::split(12 * groups, groups);
            assert_eq!(cfg.workers, 11);
            assert!((cfg.dispatch_overhead_fraction() - 1.0 / 12.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "cores left for workers")]
    fn split_needs_worker_cores() {
        let _ = ShinjukuConfig::split(4, 4);
    }

    #[test]
    fn deterministic() {
        let spec = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        for cfg in [ShinjukuConfig::paper(3), ShinjukuConfig::split(16, 2)] {
            let a = run(spec, cfg);
            let b = run(spec, cfg);
            assert_eq!(a.metrics, b.metrics, "{} groups", cfg.groups);
            assert_eq!(a.imbalance, b.imbalance);
        }
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let fixed = quick_spec(200_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let bimodal = quick_spec(400_000.0, ServiceDist::paper_bimodal());
        // On the scale-out, crash the second group's first worker.
        for (spec, cfg, crashed) in [
            (fixed, ShinjukuConfig::paper(4), 1),
            (bimodal, ShinjukuConfig::split(16, 2), 7),
        ] {
            let res = ResilienceConfig::loss_and_crash(crashed, SimTime::from_millis(10));
            let m = run_resilient_probed(spec, cfg, ProbeConfig::disabled(), res).metrics;
            let f = &m.faults;
            assert_eq!(f.unaccounted(), 0, "request ledger must close: {f:?}");
            assert!(f.in_pipe() >= 0, "attempt ledger went negative: {f:?}");
            assert!(f.in_pipe() < 200, "attempt residue too large: {f:?}");
            assert!(f.retries > 0, "1% loss must trigger retries");
            assert!(f.stranded >= 1, "crash stranded nothing: {f:?}");
            assert!(f.quarantines >= 1, "crashed worker must be quarantined");
            assert!(m.completed > 1000, "completed {}", m.completed);
            // Deterministic under faults.
            let again = run_resilient_probed(spec, cfg, ProbeConfig::disabled(), res).metrics;
            assert_eq!(m, again, "{} groups", cfg.groups);
        }
    }

    #[test]
    fn scale_out_honours_the_staleness_fallback() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let res = ResilienceConfig {
            faults: FaultConfig::default()
                .with_blackout(SimTime::from_millis(8), SimTime::from_millis(14)),
            retry: Some(RetryPolicy::paper_default()),
            fallback: Some(StalenessPolicy::paper_default()),
            ..ResilienceConfig::default()
        };
        let m = run_resilient_probed(
            spec,
            ShinjukuConfig::split(10, 2),
            ProbeConfig::disabled(),
            res,
        )
        .metrics;
        let f = &m.faults;
        assert!(f.fallback_ns > 0, "blackout never degraded a group: {f:?}");
        assert!(
            f.quarantines > 0,
            "blackout never quarantined a worker: {f:?}"
        );
        assert_eq!(f.unaccounted(), 0, "{f:?}");
    }

    #[test]
    fn a_task_stranded_on_a_crashed_worker_drops_its_saved_context() {
        // Worker 0 is dead from the start. A preempted request whose
        // context is saved gets delivered to it: the context must go, or a
        // retransmitted copy would be charged a restore (and killed as a
        // duplicate if preempted).
        let spec = quick_spec(100_000.0, ServiceDist::paper_bimodal());
        let res = ResilienceConfig {
            faults: FaultConfig::default().with_crash(0, SimTime::ZERO),
            ..ResilienceConfig::default()
        };
        let model = Shinjuku::new(spec, ShinjukuConfig::paper(2), res, &mut Probe::default());
        let mut engine = Engine::new(model);
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
        let req_id = 7;
        engine.model_mut().ctx_pool.save(req_id);
        let task = Task::new(
            req_id,
            1,
            SimDuration::from_micros(100),
            SimTime::ZERO,
            SimTime::ZERO,
            64,
        );
        engine.schedule_at(SimTime::from_micros(1), Ev::WorkerTask(0, 0, task));
        engine.run_until(SimTime::from_micros(2));
        assert_eq!(engine.model().stranded, 1);
        assert!(!engine.model().ctx_pool.is_saved(req_id));
    }
}
