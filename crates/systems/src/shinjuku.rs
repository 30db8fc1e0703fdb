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
//! both run the same dispatcher core around [`nicsched::Dispatcher`], with
//! the same staleness governor and liveness tick. Only placement and
//! transport differ, which is the paper's point.
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

use cpu_model::{InterruptPath, TimerMode};
use net_wire::{FrameSpec, MsgKind};
use nic_model::{IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::{params, Assignment, Dispatcher, LeastOutstanding, PolicySpec, Task};
use sim_core::probe::{Counter, Family, Gauge, Hop, IntoHandle};
use sim_core::{Ctx, Engine, Model, Probe, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, msg_task, response_frame, AddressPlan, Assembly, Client, ClientEdge,
    ClientEv, DispatchCore, DispatchKeys, Notice, ResilienceConfig, RunEnd, Stage, Wire, Workers,
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
    /// Queue policy within each group (FCFS in the original system), e.g.
    /// `PolicySpec::parse("srpt")`.
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
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum DispItem {
    /// A notice for the group's dispatcher core.
    Notice(Notice),
    /// A decided assignment being written to a worker queue (charged
    /// separately so dispatcher busy-time scales with fan-out).
    Emit(Assignment),
}

/// Events; workers are indexed machine-wide, groups among the groups.
#[doc(hidden)]
pub enum Ev {
    Client(ClientEv),
    WireToNic(FrameSpec),
    NetworkerDone(usize),
    DispPush(usize, DispItem),
    DispDone(usize),
    /// A task becomes visible in a worker's shared-memory inbox.
    WorkerTask(usize, Task),
    WorkerPoll(usize),
    /// A worker's run ends, with its timer generation.
    WorkerRunEnd(usize, u64),
    /// A worker's periodic liveness heartbeat to its group's dispatcher.
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

/// Shinjuku's probe keys beyond its stages, dispatcher cores and client
/// edge, registered once at construction. Workers are indexed
/// machine-wide.
struct Keys {
    rx_frames: Counter,
    parsed: Counter,
    assigned: Counter,
    inbox: Family<Gauge>,
    host_net: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            parsed: probe.counter("networker.parsed"),
            assigned: probe.counter("disp.assign"),
            inbox: probe.gauge_family("worker.inbox", workers),
            host_net: probe.hop("path.1_host_net"),
        }
    }
}

/// One networker+dispatcher pair and the workers it owns.
struct Group {
    /// The networker thread; its queue is the group's NIC RX ring.
    networker: Stage<()>,
    /// The dispatcher thread and its shared-memory inbox.
    disp_thread: Stage<DispItem>,
    /// The dispatcher the thread runs, over the group's workers.
    core: DispatchCore<LeastOutstanding>,
}

/// The Shinjuku model, with one dispatcher group or several; run it
/// through [`crate::common::run`] or [`ServerSystem`](crate::ServerSystem)
/// on a [`ShinjukuConfig`]. Its [`Extra`](Assembly::Extra) is the group
/// imbalance: max/mean admitted requests across groups (1.0 = perfectly
/// even).
pub struct Shinjuku {
    cfg: ShinjukuConfig,
    client: Client,
    wire: Wire,
    nic: NicDevice,
    net_iface: IfaceId,
    groups: Vec<Group>,
    pub(crate) workers: Workers,
    /// Each worker's shared-memory inbox.
    inboxes: Vec<VecDeque<Task>>,
    keys: Keys,
}

impl Assembly for Shinjuku {
    type Config = ShinjukuConfig;
    type Extra = f64;

    fn name(cfg: &ShinjukuConfig) -> &'static str {
        if cfg.groups == 1 {
            "shinjuku"
        } else {
            "multi-shinjuku"
        }
    }

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

        let n = cfg.groups * cfg.workers;
        let net_busy = probe.busy_family("networker", cfg.groups);
        let net_ring = probe.gauge_family("networker.ring", cfg.groups);
        let disp_busy = probe.busy_family("dispatcher", cfg.groups);
        let disp_inbox = probe.gauge_family("dispatcher.inbox", cfg.groups);
        let central = probe.gauge_family("dispatcher.central", cfg.groups);
        // One set of dispatcher keys, shared by every group.
        let counters = [
            "disp.enqueue",
            "disp.done",
            "disp.preempt_requeue",
            "disp.heartbeat",
        ];
        let keys = DispatchKeys::new(probe, counters, "path.2_dispatch");
        let groups = (0..cfg.groups)
            .map(|g| {
                // Shinjuku keeps exactly one request in flight per worker:
                // the dispatcher assigns to *idle* workers only (§2.1).
                let dispatcher =
                    Dispatcher::new(cfg.workers, 1, cfg.policy.build(), LeastOutstanding);
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
                    core: DispatchCore::new(
                        dispatcher,
                        params::HOST_QUEUE_HOP,
                        spec.horizon(),
                        &res,
                        keys,
                        central.at(g).into_handle(),
                    ),
                }
            })
            .collect();

        Shinjuku {
            cfg,
            client,
            wire,
            nic,
            net_iface,
            groups,
            // Dune-mapped APIC timers: the mechanism Shinjuku itself
            // introduced (§3.4.4 cites its cost numbers).
            workers: Workers::new(n, probe, "path.3_worker_start", "path.4_worker_done")
                .preemptive(
                    cfg.time_slice,
                    InterruptPath::LocalTimer(TimerMode::DuneMapped),
                ),
            inboxes: vec![VecDeque::new(); n],
            keys: Keys::new(probe, n),
        }
    }

    fn seed(engine: &mut Engine<Shinjuku>) {
        engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
        let model = engine.model();
        // Every group runs under the same resilience settings.
        if model.groups[0].core.heartbeat.is_some() {
            for w in 0..model.inboxes.len() {
                engine.schedule_at(SimTime::ZERO, Ev::Heartbeat(w));
            }
        }
    }

    /// Degraded time, switches and quarantines are summed over the groups.
    fn metrics(&self, horizon: SimTime) -> (RunMetrics, f64) {
        let mut metrics = assemble_metrics(&self.client, &self.wire, &self.workers, horizon);
        metrics.faults.ring_dropped = self.nic.total_drops();
        for group in &self.groups {
            group.core.absorb(&mut metrics.faults, horizon);
        }
        (metrics, self.imbalance())
    }
}

impl Shinjuku {
    /// The group of machine-wide worker `w`, and `w`'s index within it
    /// (fault schedules, core ids and endpoints number workers across groups;
    /// a group's dispatcher numbers its own).
    fn local(&self, w: usize) -> (usize, usize) {
        (w / self.cfg.workers, w % self.cfg.workers)
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
            DispItem::Notice(Notice::NewTask(_)) => params::HOST_DISPATCH_ENQUEUE,
            // A heartbeat is a single timestamp store on the tracker: charge
            // it like a completion notification (queue-op scale).
            DispItem::Notice(_) => params::HOST_DISPATCH_COMPLETE,
            DispItem::Emit(_) => params::HOST_DISPATCH_ASSIGN,
        }
    }

    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if !self.workers.may_take(w, Ev::WorkerPoll(w), ctx) {
            return;
        }
        let Some(task) = self.inboxes[w].pop_front() else {
            self.workers.idle(w, ctx.now(), ctx);
            return;
        };
        ctx.probe()
            .depth(self.keys.inbox.at(w), self.inboxes[w].len());
        // The policy's per-dispatch grant rides the task exactly over the
        // shared-memory path.
        self.workers.start(w, task, SimDuration::ZERO, ctx, |gen| {
            Ev::WorkerRunEnd(w, gen)
        });
    }

    fn worker_run_end(&mut self, w: usize, gen: u64, ctx: &mut Ctx<'_, Ev>) {
        let Some(end) = self.workers.end_run(w, gen, ctx) else {
            return;
        };
        let now = ctx.now();
        let (g, local) = self.local(w);
        // The notice, when the worker writes it, and when the worker is free.
        let (notice, written, free_at) = match end {
            // No response, and no Done ever reaches the dispatcher, so its
            // cap-1 slot stays occupied.
            RunEnd::Stranded => return,
            // Response straight out the NIC, and a Done notice.
            RunEnd::Finished(task) => {
                let resp_built = now + params::WORKER_TX_COST;
                let resp = response_frame(AddressPlan::dispatcher_mac(), w, &task);
                self.wire
                    .response(resp, resp_built + self.nic.dma_latency, ctx);
                let done = Notice::Done {
                    worker: local,
                    req_id: task.req_id,
                };
                (done, now, resp_built)
            }
            // The slot is freed via Done.
            RunEnd::DupKilled { task, free_in } => {
                let done = Notice::Done {
                    worker: local,
                    req_id: task.req_id,
                };
                (done, now + free_in, now + free_in)
            }
            // The remaining work goes back via memory.
            RunEnd::Preempted { task, free_in } => {
                let preempted = Notice::Preempted {
                    worker: local,
                    task,
                };
                (preempted, now + free_in, now + free_in)
            }
        };
        // A notice is a shared-memory write, visible one queue hop later.
        let item = DispItem::Notice(notice);
        ctx.schedule_at(written + params::HOST_QUEUE_HOP, Ev::DispPush(g, item));
        ctx.schedule_at(free_at, Ev::WorkerPoll(w));
    }

    /// Worker `w`'s heartbeat tick: feed its group's staleness governor
    /// and health tracker, and emit whatever work that unparks.
    fn heartbeat(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        let (g, local) = self.local(w);
        let core = &mut self.groups[g].core;
        let Some((renew, assignments, next)) = core.tick(local, w, ctx) else {
            return;
        };
        if renew.is_some() {
            // Lease renewal crosses host shared memory like any other
            // notification.
            let beat = DispItem::Notice(Notice::Heartbeat { worker: local });
            ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::DispPush(g, beat));
        }
        // Unparked work still pays the dispatcher's per-assignment cost
        // like any other emission.
        for a in assignments {
            ctx.schedule_now(Ev::DispPush(g, DispItem::Emit(a)));
        }
        ctx.schedule_in(next, Ev::Heartbeat(w));
    }

    /// Imbalance across groups: max/mean admitted requests.
    fn imbalance(&self) -> f64 {
        let admitted = self.groups.iter().map(|g| g.core.dispatcher.stats.admitted);
        let max = admitted.clone().max().unwrap_or(0) as f64;
        let mean = admitted.sum::<u64>() as f64 / self.groups.len() as f64;
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
        self.workers.check_invariants(now, inv);
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
                        let task = msg_task(&m, ctx.now());
                        let item = DispItem::Notice(Notice::NewTask(task));
                        ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::DispPush(g, item));
                    }
                }
                self.poll_networker(g, ctx);
            }
            Ev::DispPush(g, item) => self.groups[g]
                .disp_thread
                .enqueue(item, Ev::DispDone(g), ctx),
            Ev::DispDone(g) => {
                let group = &mut self.groups[g];
                match group.disp_thread.complete(ctx) {
                    Some(DispItem::Notice(notice)) => {
                        // Decided assignments go to the head of the inbox,
                        // in order; the emptied buffer goes back for reuse.
                        let mut assignments = group.core.apply(notice, ctx);
                        for a in assignments.drain(..).rev() {
                            group.disp_thread.push_front(DispItem::Emit(a));
                        }
                        group.core.dispatcher.recycle(assignments);
                    }
                    Some(DispItem::Emit(a)) => {
                        ctx.probe().count(&self.keys.assigned);
                        let w = g * self.cfg.workers + a.worker;
                        ctx.schedule_in(params::HOST_QUEUE_HOP, Ev::WorkerTask(w, a.task));
                    }
                    None => {}
                }
                group.disp_thread.resume(Ev::DispDone(g), ctx);
            }
            Ev::WorkerTask(w, task) => {
                // Delivered to a dead worker's inbox: never executed.
                if self.workers.strand_if_crashed(w, task.req_id, ctx) {
                    return;
                }
                self.inboxes[w].push_back(task);
                ctx.probe()
                    .depth(self.keys.inbox.at(w), self.inboxes[w].len());
                if !self.workers.is_running(w) {
                    ctx.schedule_now(Ev::WorkerPoll(w));
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd(worker, gen) => self.worker_run_end(worker, gen, ctx),
            Ev::Heartbeat(w) => self.heartbeat(w, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::faults::FaultConfig;
    use sim_core::ProbeConfig;
    use workload::{RetryPolicy, ServiceDist};

    use crate::common::StalenessPolicy;

    /// Run `cfg` on `spec` plainly: its metrics and group imbalance.
    fn run(spec: WorkloadSpec, cfg: ShinjukuConfig) -> (RunMetrics, f64) {
        crate::common::run::<Shinjuku>(
            spec,
            cfg,
            ProbeConfig::disabled(),
            ResilienceConfig::default(),
        )
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
        let m = run(spec, ShinjukuConfig::paper(3)).0;
        assert!(m.completed > 500);
        assert!(!m.saturated(0.05), "{}", m.row());
        assert_eq!(m.dropped, 0);
    }

    #[test]
    fn host_path_is_faster_than_nic_path_at_low_load() {
        // Without the 2.56us NIC round trips, host Shinjuku's unloaded
        // latency beats Shinjuku-Offload's.
        let spec = quick_spec(5_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let host = run(spec, ShinjukuConfig::paper(2)).0;
        let offload = crate::offload::OffloadConfig::paper(2, 2).run(spec, ProbeConfig::disabled());
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
        let m = run(spec, unsliced(3)).0;
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
        let m = run(spec, unsliced(15)).0;
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
        let one = run(spec, ShinjukuConfig::split(32, 1)).0;
        let four = run(spec, ShinjukuConfig::split(32, 4)).0;
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
        let with = run(spec, ShinjukuConfig::paper(4)).0;
        let without = run(spec, unsliced(4)).0;
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
        assert_eq!(run(spec, ShinjukuConfig::paper(3)).1, 1.0);
        let m = run(spec, ShinjukuConfig::split(16, 4));
        assert!(m.1 > 1.0, "RSS group shares are never perfectly even");
        assert!(m.1 < 2.0, "but not catastrophic at uniform flows: {}", m.1);
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
            assert_eq!(a.0, b.0, "{} groups", cfg.groups);
            assert_eq!(a.1, b.1);
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
            let m = cfg.run_resilient(spec, ProbeConfig::disabled(), res);
            let f = &m.faults;
            assert_eq!(f.unaccounted(), 0, "request ledger must close: {f:?}");
            assert!(f.in_pipe() >= 0, "attempt ledger went negative: {f:?}");
            assert!(f.in_pipe() < 200, "attempt residue too large: {f:?}");
            assert!(f.retries > 0, "1% loss must trigger retries");
            assert!(f.stranded >= 1, "crash stranded nothing: {f:?}");
            assert!(f.quarantines >= 1, "crashed worker must be quarantined");
            assert!(m.completed > 1000, "completed {}", m.completed);
            // Deterministic under faults.
            let again = cfg.run_resilient(spec, ProbeConfig::disabled(), res);
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
        let m = ShinjukuConfig::split(10, 2).run_resilient(spec, ProbeConfig::disabled(), res);
        let f = &m.faults;
        assert!(f.fallback_ns > 0, "blackout never degraded a group: {f:?}");
        assert!(
            f.quarantines > 0,
            "blackout never quarantined a worker: {f:?}"
        );
        assert_eq!(f.unaccounted(), 0, "{f:?}");
    }
}
