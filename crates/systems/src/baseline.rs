//! Run-to-completion baselines: the systems §2.1 surveys and §2.2 indicts.
//!
//! * **RSS / IX-style d-FCFS** — the NIC's Toeplitz hash spreads flows
//!   across per-core queues; each worker runs its queue to completion. No
//!   centralized view, no preemption: load imbalance and head-of-line
//!   blocking are structural.
//! * **ZygOS-style work stealing** — same steering, but an idle worker
//!   steals from the longest peer queue, paying a cross-core
//!   synchronization cost per steal.
//! * **MICA-style Flow Director** — exact-match rules pin each flow
//!   (client source port, standing in for MICA's key partition) to a
//!   specific core: EREW partitioning, still blind to load.
//!
//! All three share one assembly, differing only in NIC steering and the
//! stealing option — which is exactly the paper's framing: they delegate
//! scheduling to steering hardware and give up load awareness.

use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec};
use net_wire::{FrameSpec, MsgKind, MsgRepr};
use nic_model::{FlowDirector, FlowKey, IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::params;
use sim_core::probe::{Busy, Counter, Family, Gauge, Hop};
use sim_core::{Ctx, Engine, FaultPlan, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, mean_utilization, scale_duration, AddressPlan, Client, ClientEdge, ClientEv,
    ResilienceConfig, Wire, FAULT_SEED_SALT,
};

/// Elastic-RSS controller period: "provisions cores for applications on
/// the us scale" (§5.1(1)).
const ERSS_INTERVAL: SimDuration = SimDuration::from_micros(20);

/// Which baseline to assemble.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// RSS steering, run-to-completion (IX-style d-FCFS).
    Rss,
    /// RSS steering plus ZygOS-style work stealing.
    RssStealing,
    /// Flow-Director exact-match steering (MICA-style EREW).
    FlowDirector,
    /// Elastic RSS (Rucker et al., APNet '19 — cited in §5.1(1)): RSS
    /// whose indirection table is rewritten at microsecond scale by a
    /// controller watching core utilization, provisioning just enough
    /// cores for the offered load.
    ElasticRss,
}

/// Configuration of a run-to-completion baseline.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Worker cores, one RX queue each.
    pub workers: usize,
    /// Baseline flavour.
    pub kind: BaselineKind,
}

enum Ev {
    Client(ClientEv),
    WireToNic(FrameSpec),
    WorkerPoll(usize),
    WorkerRunEnd(usize),
    /// Elastic-RSS controller tick: re-provision the active core set.
    ErssTick,
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
    busy: bool,
    /// When the worker last went idle (for feedback-gap measurement).
    idle_since: Option<SimTime>,
}

/// A baseline's probe keys beyond its client edge, registered once at
/// construction.
struct Keys {
    rx_frames: Counter,
    steals: Counter,
    completed: Counter,
    stranded: Counter,
    ring: Family<Gauge>,
    worker: Family<Busy>,
    idle_gap: Hop,
    worker_start: Hop,
    worker_done: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            steals: probe.counter("worker.steals"),
            completed: probe.counter("worker.completed"),
            stranded: probe.counter("worker.stranded"),
            ring: probe.gauge_family("worker.ring", workers),
            worker: probe.busy_family("worker", workers),
            idle_gap: probe.hop("worker.idle_gap"),
            worker_start: probe.hop("path.1_worker_start"),
            worker_done: probe.hop("path.2_worker_done"),
        }
    }
}

struct Baseline {
    cfg: BaselineConfig,
    client: Client,
    horizon: SimTime,
    wire: Wire,
    nic: NicDevice,
    iface: IfaceId,
    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,
    /// Successful steals (ZygOS mode).
    steals: u64,
    /// The message each busy worker is executing.
    pending: Vec<Option<MsgRepr>>,
    /// Elastic RSS: currently provisioned cores (prefix of the worker set).
    active: usize,
    /// Elastic RSS: busy time per worker at the last controller tick.
    last_busy: Vec<SimDuration>,
    /// Elastic RSS: time-weighted active-core count.
    active_tw: sim_core::stats::TimeWeighted,

    stranded: u64,
    keys: Keys,
}

impl Baseline {
    fn new(
        spec: WorkloadSpec,
        cfg: BaselineConfig,
        res: ResilienceConfig,
        probe: &mut Probe,
    ) -> Baseline {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let wire = Wire::new(&res, &mut master, probe, "path.3_response");

        let steering = match cfg.kind {
            BaselineKind::Rss | BaselineKind::RssStealing | BaselineKind::ElasticRss => {
                QueueSteering::Rss(Rss::new(cfg.workers as u32))
            }
            BaselineKind::FlowDirector => {
                // Pin each client source port to a core: port p -> core
                // p % workers — MICA's key-partition steering.
                let mut table = FlowDirector::new(2048);
                for p in 0..1024u16 {
                    let mut src = AddressPlan::client_ep();
                    src.port = 7000 + p;
                    let key = FlowKey {
                        src,
                        dst: AddressPlan::dispatcher_ep(),
                    };
                    table.install(key, u32::from(p) % cfg.workers as u32);
                }
                QueueSteering::FlowDirector {
                    table,
                    fallback: Rss::new(cfg.workers as u32),
                }
            }
        };

        let mut nic = NicDevice::new(params::PCIE_DMA);
        let iface = nic.add_iface(AddressPlan::dispatcher_mac(), cfg.workers, 1024, steering);

        let t0 = SimTime::ZERO;
        let workers = (0..cfg.workers)
            .map(|w| Worker {
                core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                busy: false,
                idle_since: Some(t0),
            })
            .collect();

        Baseline {
            cfg,
            horizon: spec.horizon(),
            client,
            wire,
            nic,
            iface,
            workers,
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            steals: 0,
            pending: vec![None; cfg.workers],
            active: cfg.workers,
            last_busy: vec![SimDuration::ZERO; cfg.workers],
            active_tw: sim_core::stats::TimeWeighted::new(t0, cfg.workers as f64),
            stranded: 0,
            keys: Keys::new(probe, cfg.workers),
        }
    }

    /// Elastic-RSS controller (§5.1(1)): observe utilization of the active
    /// cores over the last window and grow/shrink the provisioned set,
    /// then rewrite the indirection table — the operation a programmable
    /// NIC performs in hardware.
    fn erss_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let window = ERSS_INTERVAL.as_secs_f64();
        let mut busy = 0.0;
        for (w, last) in self.last_busy.iter_mut().enumerate() {
            let total = self.workers[w].core.busy_time(now);
            busy += (total - *last).as_secs_f64();
            *last = total;
        }
        let util = busy / (window * self.active as f64);
        if util > 0.70 && self.active < self.cfg.workers {
            self.active += 1;
        } else if util < 0.35 && self.active > 1 {
            self.active -= 1;
        }
        self.active_tw.set(now, self.active as f64);
        let table: Vec<u32> = (0..128).map(|i| i % self.active as u32).collect();
        if let QueueSteering::Rss(rss) = &mut self.nic.iface_mut(self.iface).steering {
            rss.set_table(table);
        }
        if now < self.horizon {
            ctx.schedule_in(ERSS_INTERVAL, Ev::ErssTick);
        }
    }

    /// Pop work for worker `w`: own queue first, then (if stealing) the
    /// longest peer queue. Returns the frame and the steal overhead.
    fn take_work(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) -> Option<(FrameSpec, SimDuration)> {
        let iface = self.nic.iface_mut(self.iface);
        let (q, cost) = if !iface.rx[w].is_empty() {
            (w, SimDuration::ZERO)
        } else if self.cfg.kind == BaselineKind::RssStealing {
            // Steal from the longest peer queue.
            let victim = (0..iface.rx.len())
                .filter(|&q| q != w && !iface.rx[q].is_empty())
                .max_by_key(|&q| iface.rx[q].len())?;
            self.steals += 1;
            (victim, params::WORK_STEAL_COST)
        } else {
            return None;
        };
        let frame = iface.rx[q].pop()?;
        ctx.probe().depth(self.keys.ring.at(q), iface.rx[q].len());
        Some((frame.spec, cost))
    }

    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if self.workers[w].busy {
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
        let Some((spec, steal_cost)) = self.take_work(w, ctx) else {
            self.workers[w].core.set_idle(ctx.now());
            ctx.probe().busy(self.keys.worker.at(w), false);
            if self.workers[w].idle_since.is_none() {
                self.workers[w].idle_since = Some(ctx.now());
            }
            return;
        };
        if steal_cost > SimDuration::ZERO {
            ctx.probe().count(&self.keys.steals);
        }
        let msg = spec.msg;
        if msg.kind != MsgKind::Request {
            ctx.schedule_now(Ev::WorkerPoll(w));
            return;
        }
        if let Some(idle_at) = self.workers[w].idle_since.take() {
            let gap = ctx.now().saturating_duration_since(idle_at);
            ctx.probe().hop(&self.keys.idle_gap, gap);
        }
        ctx.probe().mark(msg.req_id, &self.keys.worker_start);
        ctx.probe().busy(self.keys.worker.at(w), true);
        // Run-to-completion: the worker is its own networking subsystem.
        let overhead = steal_cost
            + params::HOST_NET_PER_PACKET
            + ContextPool::op_cost(self.ctx_pool.begin(msg.req_id), &self.ctx_costs, &self.host);
        let service = SimDuration::from_nanos(msg.service_ns);
        // A slowdown window stretches wall time for this execution.
        let slow = {
            let now = ctx.now();
            ctx.faults().worker_slowdown(w, now)
        };
        let wall = if slow > 1.0 {
            scale_duration(overhead + service, slow)
        } else {
            overhead + service
        };
        let worker = &mut self.workers[w];
        worker.busy = true;
        worker.core.set_busy(ctx.now());
        self.pending[w] = Some(msg);
        ctx.schedule_in(wall, Ev::WorkerRunEnd(w));
    }
}

impl Baseline {
    fn finish(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        let msg = self.pending[w].take().expect("worker had work");
        {
            let now = ctx.now();
            if ctx.faults().worker_crashed(w, now) {
                // Died mid-request: no response ever leaves this core.
                self.ctx_pool.discard(msg.req_id);
                self.stranded += 1;
                ctx.probe().count(&self.keys.stranded);
                return;
            }
        }
        ctx.probe().count(&self.keys.completed);
        ctx.probe().mark(msg.req_id, &self.keys.worker_done);
        let resp = FrameSpec {
            src_mac: AddressPlan::dispatcher_mac(),
            dst_mac: AddressPlan::client_mac(),
            src: AddressPlan::worker_ep(w),
            dst: AddressPlan::client_ep(),
            msg: MsgRepr {
                kind: MsgKind::Response,
                remaining_ns: 0,
                ..msg
            },
        };
        let built = ctx.now() + params::WORKER_TX_COST;
        self.wire.response(resp, built + self.nic.dma_latency, ctx);
        self.ctx_pool.discard(msg.req_id);
        let worker = &mut self.workers[w];
        worker.busy = false;
        worker.core.requests_run += 1;
        ctx.schedule_at(built, Ev::WorkerPoll(w));
    }
}

impl Model for Baseline {
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
                    ctx.probe().count(&self.keys.rx_frames);
                    let now = ctx.now();
                    if self.cfg.kind != BaselineKind::RssStealing
                        && ctx.faults().worker_crashed(d.queue, now)
                    {
                        // Hash-steered to a dead core with nobody to steal
                        // it: the request is stranded in silicon.
                        self.stranded += 1;
                        ctx.probe().count(&self.keys.stranded);
                        return;
                    }
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), spec);
                    let depth = self.nic.iface(d.iface).rx[d.queue].len();
                    ctx.probe().depth(self.keys.ring.at(d.queue), depth);
                    if !self.workers[d.queue].busy {
                        ctx.schedule_now(Ev::WorkerPoll(d.queue));
                    } else if self.cfg.kind == BaselineKind::RssStealing {
                        // Any idle worker may steal the new arrival.
                        if let Some(idle) = (0..self.workers.len()).find(|&i| !self.workers[i].busy)
                        {
                            ctx.schedule_now(Ev::WorkerPoll(idle));
                        }
                    }
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd(w) => self.finish(w, ctx),
            Ev::ErssTick => self.erss_tick(ctx),
        }
    }
}

/// Run a run-to-completion baseline with stage-level observability.
pub fn run_probed(spec: WorkloadSpec, cfg: BaselineConfig, probe: ProbeConfig) -> RunMetrics {
    run_inner(spec, cfg, probe, ResilienceConfig::default()).0
}

/// Run a baseline with fault injection and client retries. Baselines
/// have no central dispatcher: admission and staleness-fallback settings
/// in `res` are ignored (their per-worker rings already tail-drop, and
/// hash steering is the fallback the governor would degrade *to*).
/// NIC-side recovery (`res.recovery`) is likewise a no-op — with no
/// dispatcher there is no lease table to expire and no central queue to
/// re-dispatch from; orphaned requests here are recovered only by client
/// retries, which is exactly the contrast the `recovery` experiment
/// measures.
// simlint: allow(hook-conformance, reason=baselines have no dispatcher, so there is no lease table or detector to wire; recovery here is a documented no-op)
pub fn run_resilient_probed(
    spec: WorkloadSpec,
    cfg: BaselineConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> RunMetrics {
    run_inner(spec, cfg, probe, res).0
}

/// Like [`run_probed`] (with probing disabled), also returning the
/// time-weighted mean number of provisioned cores (equal to
/// `cfg.workers` for the static kinds).
pub fn run_with_elastic(spec: WorkloadSpec, cfg: BaselineConfig) -> (RunMetrics, f64) {
    run_inner(
        spec,
        cfg,
        ProbeConfig::disabled(),
        ResilienceConfig::default(),
    )
}

fn run_inner(
    spec: WorkloadSpec,
    cfg: BaselineConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> (RunMetrics, f64) {
    let mut recorder = Probe::new(probe);
    let mut engine = Engine::new(Baseline::new(spec, cfg, res, &mut recorder));
    engine.set_probe(recorder);
    engine.set_invariants(crate::common::checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
    if cfg.kind == BaselineKind::ElasticRss {
        engine.schedule_at(SimTime::ZERO + ERSS_INTERVAL, Ev::ErssTick);
    }
    engine.run_until(spec.horizon());
    let horizon = spec.horizon();
    let model = engine.model();
    let util = mean_utilization(model.workers.iter().map(|w| &w.core), horizon);
    let mean_active = model.active_tw.mean_until(horizon).max(1.0);
    let mut metrics = assemble_metrics(&model.client, &model.wire, 0, util);
    let fm = &mut metrics.faults;
    fm.ring_dropped = model.nic.total_drops();
    fm.stranded = model.stranded;
    metrics.dropped += fm.ring_dropped;
    if probe.enabled {
        metrics.stages = Some(engine.probe_mut().report(horizon));
    }
    crate::common::close_invariants(engine.take_invariants(), horizon, &metrics);
    (
        metrics,
        if cfg.kind == BaselineKind::ElasticRss {
            mean_active
        } else {
            cfg.workers as f64
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: BaselineConfig) -> RunMetrics {
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
    fn rss_light_load_is_fast_and_complete() {
        let spec = quick_spec(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        assert!(!m.saturated(0.05), "{}", m.row());
        // Run-to-completion has the fewest hops of any system: unloaded
        // latency should be small (single digit us + wire).
        assert!(m.p50 < SimDuration::from_micros(15), "p50 {}", m.p50);
    }

    #[test]
    fn rss_suffers_under_dispersion() {
        // The §2.2 story: without preemption, short requests get stuck
        // behind 100us requests; the p99 explodes relative to centralized
        // preemptive scheduling at the same load.
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let rss = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        let shinjuku = crate::shinjuku::run_probed(
            spec,
            crate::shinjuku::ShinjukuConfig::paper(4),
            ProbeConfig::disabled(),
        )
        .metrics;
        assert!(
            rss.p99 > shinjuku.p99 * 2,
            "rss p99 {} should dwarf shinjuku p99 {}",
            rss.p99,
            shinjuku.p99
        );
    }

    #[test]
    fn stealing_helps_imbalance() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let rss = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        let zygos = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::RssStealing,
            },
        );
        assert!(
            zygos.p99 <= rss.p99,
            "stealing should not hurt the tail: zygos {} vs rss {}",
            zygos.p99,
            rss.p99
        );
    }

    #[test]
    fn flow_director_pins_flows() {
        let spec = quick_spec(200_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::FlowDirector,
            },
        );
        assert!(m.completed > 1000);
        assert!(!m.saturated(0.05), "{}", m.row());
    }

    #[test]
    fn overload_saturates_and_drops() {
        let spec = quick_spec(1_500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(
            spec,
            BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            },
        );
        assert!(m.saturated(0.05), "{}", m.row());
        assert!(m.dropped > 0, "rings must overflow under overload");
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        for kind in [
            BaselineKind::Rss,
            BaselineKind::RssStealing,
            BaselineKind::FlowDirector,
        ] {
            let a = run(spec, BaselineConfig { workers: 3, kind });
            let b = run(spec, BaselineConfig { workers: 3, kind });
            assert_eq!(a.completed, b.completed, "{kind:?}");
            assert_eq!(a.p99, b.p99, "{kind:?}");
        }
    }
}

#[cfg(test)]
mod erss_tests {
    use super::*;
    use workload::ServiceDist;

    fn quick_spec(rps: f64) -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: rps,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(2),
            measure: SimDuration::from_millis(20),
            seed: 42,
        }
    }

    #[test]
    fn elastic_rss_provisions_fewer_cores_at_light_load() {
        let (light, active_light) = run_with_elastic(
            quick_spec(50_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        let (_, active_heavy) = run_with_elastic(
            quick_spec(1_200_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        assert!(!light.saturated(0.05), "{}", light.row());
        assert!(
            active_light < active_heavy,
            "provisioned cores must track load: {active_light:.1} vs {active_heavy:.1}"
        );
        assert!(
            active_light < 5.0,
            "50k x 5us needs ~1 core, got {active_light:.1}"
        );
        assert!(
            active_heavy > 6.0,
            "1.2M x 5us needs ~6+ cores, got {active_heavy:.1}"
        );
    }

    #[test]
    fn elastic_rss_still_serves_the_load() {
        let (m, _) = run_with_elastic(
            quick_spec(400_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        assert!(!m.saturated(0.05), "{}", m.row());
        // Tail stays bounded: elasticity must not orphan queued work.
        assert!(m.p99 < SimDuration::from_millis(1), "p99 {}", m.p99);
    }

    #[test]
    fn static_kinds_report_full_provisioning() {
        let (_, active) = run_with_elastic(
            quick_spec(100_000.0),
            BaselineConfig {
                workers: 6,
                kind: BaselineKind::Rss,
            },
        );
        assert_eq!(active, 6.0);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(300_000.0);
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(10));
        let run = |kind| {
            run_resilient_probed(
                spec,
                BaselineConfig { workers: 4, kind },
                ProbeConfig::disabled(),
                res,
            )
        };
        for kind in [BaselineKind::Rss, BaselineKind::RssStealing] {
            let m = run(kind);
            let f = &m.faults;
            assert_eq!(f.unaccounted(), 0, "{kind:?}: request ledger leaks: {f:?}");
            assert!(
                f.in_pipe() < 1200,
                "{kind:?}: attempt residue beyond ring depth: {f:?}"
            );
            assert!(f.retries > 0, "{kind:?}: loss never triggered a retry");
            assert!(
                m.completed > 1_000,
                "{kind:?}: goodput collapsed: {}",
                m.row()
            );
        }
        // Without stealing, frames hashed to the dead core strand; with
        // stealing, peers rescue them.
        let rss = run(BaselineKind::Rss);
        let stealing = run(BaselineKind::RssStealing);
        assert!(rss.faults.stranded > 0, "no stranding at a dead core");
        assert!(
            stealing.faults.stranded < rss.faults.stranded,
            "stealing should rescue stranded work: {} vs {}",
            stealing.faults.stranded,
            rss.faults.stranded
        );
        // Determinism under faults.
        let a = run(BaselineKind::Rss);
        let b = run(BaselineKind::Rss);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.p99, b.p99);
    }

    #[test]
    fn elastic_rss_is_deterministic() {
        let cfg = BaselineConfig {
            workers: 8,
            kind: BaselineKind::ElasticRss,
        };
        let (a, aa) = run_with_elastic(quick_spec(300_000.0), cfg);
        let (b, bb) = run_with_elastic(quick_spec(300_000.0), cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(aa, bb);
    }
}
