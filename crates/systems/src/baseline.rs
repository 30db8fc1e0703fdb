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

use net_wire::{FrameSpec, MsgKind};
use nic_model::{FlowDirector, FlowKey, IfaceId, NicDevice, QueueSteering, Rss};
use nicsched::params;
use sim_core::probe::{Counter, Family, Gauge};
use sim_core::{Ctx, Engine, Model, Probe, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, msg_task, response_frame, AddressPlan, Assembly, Client, ClientEdge,
    ClientEv, ResilienceConfig, RunEnd, Wire, Workers,
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

/// Events of a baseline model.
#[doc(hidden)]
pub enum Ev {
    Client(ClientEv),
    WireToNic(FrameSpec),
    WorkerPoll(usize),
    /// A worker's run ends (finish or slice expiry).
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

/// A baseline's probe keys beyond its client edge, registered once at
/// construction.
struct Keys {
    rx_frames: Counter,
    steals: Counter,
    ring: Family<Gauge>,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            rx_frames: probe.counter("nic.rx_frames"),
            steals: probe.counter("worker.steals"),
            ring: probe.gauge_family("worker.ring", workers),
        }
    }
}

/// A run-to-completion baseline model; run it through
/// [`crate::common::run`] or [`ServerSystem`](crate::ServerSystem) on a
/// [`BaselineConfig`]. Its [`Extra`](Assembly::Extra) is the time-weighted
/// mean number of provisioned cores (`cfg.workers` for the static kinds).
///
/// Baselines have no central dispatcher, so the staleness-fallback
/// setting of the resilience config is ignored (hash steering is the
/// fallback the governor would degrade *to*), and NIC-side recovery is a
/// no-op:
/// orphaned requests are recovered only by client retries, which is
/// exactly the contrast the `recovery` experiment measures.
pub struct Baseline {
    cfg: BaselineConfig,
    client: Client,
    horizon: SimTime,
    wire: Wire,
    nic: NicDevice,
    iface: IfaceId,
    pub(crate) workers: Workers,
    /// Elastic RSS: currently provisioned cores (prefix of the worker set).
    active: usize,
    /// Elastic RSS: busy time per worker at the last controller tick.
    last_busy: Vec<SimDuration>,
    /// Elastic RSS: time-weighted active-core count.
    active_tw: sim_core::stats::TimeWeighted,
    keys: Keys,
}

impl Assembly for Baseline {
    type Config = BaselineConfig;
    type Extra = f64;

    fn name(cfg: &BaselineConfig) -> &'static str {
        match cfg.kind {
            BaselineKind::Rss => "rss",
            BaselineKind::RssStealing => "rss-stealing",
            BaselineKind::FlowDirector => "flow-director",
            BaselineKind::ElasticRss => "elastic-rss",
        }
    }

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
        // No preemption: every task runs to completion.
        let workers = Workers::new(
            cfg.workers,
            probe,
            "path.1_worker_start",
            "path.2_worker_done",
        )
        .with_idle_gaps(probe);

        Baseline {
            cfg,
            horizon: spec.horizon(),
            client,
            wire,
            nic,
            iface,
            workers,
            active: cfg.workers,
            last_busy: vec![SimDuration::ZERO; cfg.workers],
            active_tw: sim_core::stats::TimeWeighted::new(t0, cfg.workers as f64),
            keys: Keys::new(probe, cfg.workers),
        }
    }

    fn seed(engine: &mut Engine<Baseline>) {
        engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
        // No detection seed: with no dispatcher there is no lease table to
        // expire and no central queue to re-dispatch from.
        if engine.model().cfg.kind == BaselineKind::ElasticRss {
            engine.schedule_at(SimTime::ZERO + ERSS_INTERVAL, Ev::ErssTick);
        }
    }

    fn metrics(&self, horizon: SimTime) -> (RunMetrics, f64) {
        let mut metrics = assemble_metrics(&self.client, &self.wire, &self.workers, horizon);
        metrics.faults.ring_dropped = self.nic.total_drops();
        let cores = if self.cfg.kind == BaselineKind::ElasticRss {
            self.active_tw.mean_until(horizon).max(1.0)
        } else {
            self.cfg.workers as f64
        };
        (metrics, cores)
    }
}

impl Baseline {
    /// Elastic-RSS controller (§5.1(1)): observe utilization of the active
    /// cores over the last window and grow/shrink the provisioned set,
    /// then rewrite the indirection table — the operation a programmable
    /// NIC performs in hardware.
    fn erss_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let now = ctx.now();
        let window = ERSS_INTERVAL.as_secs_f64();
        let mut busy = 0.0;
        for (w, last) in self.last_busy.iter_mut().enumerate() {
            let total = self.workers.busy_time(w, now);
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
            (victim, params::WORK_STEAL_COST)
        } else {
            return None;
        };
        let frame = iface.rx[q].pop()?;
        ctx.probe().depth(self.keys.ring.at(q), iface.rx[q].len());
        Some((frame.spec, cost))
    }

    fn worker_poll(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        if !self.workers.may_take(w, Ev::WorkerPoll(w), ctx) {
            return;
        }
        let Some((spec, steal_cost)) = self.take_work(w, ctx) else {
            self.workers.idle(w, ctx.now(), ctx);
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
        let task = msg_task(&msg, ctx.now());
        // Run-to-completion: the worker is its own networking subsystem.
        let fixed = steal_cost + params::HOST_NET_PER_PACKET;
        self.workers.start(w, task, fixed, ctx, Ev::WorkerRunEnd(w));
    }

    fn finish(&mut self, w: usize, ctx: &mut Ctx<'_, Ev>) {
        // A core that died mid-request sends no response.
        let RunEnd::Finished(task) = self.workers.end_run(w, ctx) else {
            return;
        };
        let resp = response_frame(AddressPlan::dispatcher_mac(), w, &task);
        let built = ctx.now() + params::WORKER_TX_COST;
        self.wire.response(resp, built + self.nic.dma_latency, ctx);
        ctx.schedule_at(built, Ev::WorkerPoll(w));
    }
}

impl Model for Baseline {
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
                    ctx.probe().count(&self.keys.rx_frames);
                    // Hash-steered to a dead core with nobody to steal it:
                    // the request is stranded in silicon.
                    if self.cfg.kind != BaselineKind::RssStealing
                        && self
                            .workers
                            .strand_if_crashed(d.queue, spec.msg.req_id, ctx)
                    {
                        return;
                    }
                    self.nic.iface_mut(d.iface).rx[d.queue].push(ctx.now(), spec);
                    let depth = self.nic.iface(d.iface).rx[d.queue].len();
                    ctx.probe().depth(self.keys.ring.at(d.queue), depth);
                    if !self.workers.is_running(d.queue) {
                        ctx.schedule_now(Ev::WorkerPoll(d.queue));
                    } else if self.cfg.kind == BaselineKind::RssStealing {
                        // Any idle worker may steal the new arrival.
                        let idle = (0..self.cfg.workers).find(|&i| !self.workers.is_running(i));
                        if let Some(idle) = idle {
                            ctx.schedule_now(Ev::WorkerPoll(idle));
                        }
                    }
                }
            }
            Ev::WorkerPoll(w) => self.worker_poll(w, ctx),
            Ev::WorkerRunEnd(worker) => self.finish(worker, ctx),
            Ev::ErssTick => self.erss_tick(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: BaselineConfig) -> RunMetrics {
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
        let shinjuku = crate::shinjuku::ShinjukuConfig::paper(4).run(spec, ProbeConfig::disabled());
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
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    /// Run `cfg` on `spec` plainly: its metrics and mean provisioned cores.
    fn provisioned(spec: WorkloadSpec, cfg: BaselineConfig) -> (RunMetrics, f64) {
        crate::common::run::<Baseline>(
            spec,
            cfg,
            ProbeConfig::disabled(),
            ResilienceConfig::default(),
        )
    }

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
        let (light, active_light) = provisioned(
            quick_spec(50_000.0),
            BaselineConfig {
                workers: 8,
                kind: BaselineKind::ElasticRss,
            },
        );
        let (_, active_heavy) = provisioned(
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
        let (m, _) = provisioned(
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
        let (_, active) = provisioned(
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
            (BaselineConfig { workers: 4, kind }).run_resilient(spec, ProbeConfig::disabled(), res)
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
        let (a, aa) = provisioned(quick_spec(300_000.0), cfg);
        let (b, bb) = provisioned(quick_spec(300_000.0), cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        assert_eq!(aa, bb);
    }
}
