//! RPCValet-style NI-integrated scheduling (Daglis et al., ASPLOS '19 —
//! §2.1/§2.2 of the paper).
//!
//! RPCValet integrates a network interface *on each core* and maintains a
//! centralized task queue in hardware: "Due to this integration, the
//! system has fine-grained knowledge of the load on each core" (§2.1), so
//! it balances perfectly with nanosecond-scale dispatch and none of the
//! software dispatcher's throughput cap. What it lacks — the paper's
//! critique (§2.2(2)) — is preemption and configurability: a long request
//! still blocks its core.
//!
//! Model: requests arrive at a hardware global queue (dispatch cost a few
//! nanoseconds, NI-to-core delivery tens of nanoseconds, single request in
//! flight per core — RPCValet's design point), run to completion, respond
//! directly. The same [`nicsched::Dispatcher`] provides the queue
//! semantics, configured with cap 1; the "hardware" is a compute model
//! with near-zero stage costs.

use cpu_model::{ContextCosts, ContextPool, Core, CoreId, CoreSpec};
use net_wire::{FrameSpec, MsgKind, MsgRepr};
use nicsched::{params, Dispatcher, Fcfs, LeastOutstanding, RecoveryPolicy, Task};
use sim_core::probe::{Busy, Counter, Family, Gauge, Hop};
use sim_core::{Ctx, Engine, FaultPlan, Model, Probe, ProbeConfig, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    assemble_metrics, mean_utilization, scale_duration, task_msg, AddressPlan, Client, ClientEdge,
    ClientEv, ResilienceConfig, Wire, FAULT_SEED_SALT,
};

/// Configuration of an RPCValet-style system.
#[derive(Debug, Clone, Copy)]
pub struct RpcValetConfig {
    /// Worker cores, each with an integrated NI.
    pub workers: usize,
}

/// Hardware dispatch decision cost: the NI's queue pop plus arbitration —
/// a couple of pipeline stages, not a CPU core (§2.1: the global queue is
/// implemented in hardware).
const HW_DISPATCH: SimDuration = SimDuration::from_nanos(8);

/// NI-to-core delivery: the payoff of integrating the NI with the core —
/// no PCIe crossing ("putting the NIC 'close' to the cores", §2.1).
const NI_TO_CORE: SimDuration = SimDuration::from_nanos(40);

enum Ev {
    Client(ClientEv),
    /// A request frame arrives at the integrated NI fabric.
    NiArrive(FrameSpec),
    /// The hardware queue issues a task to a core.
    Deliver(usize, Task),
    WorkerRunEnd(usize),
    /// The integrated NI's periodic failure-detector sweep (recovery
    /// only). Lease renewal is hardware-observed core liveness — no
    /// heartbeat frames cross a wire in this design.
    HealthTick,
}

impl ClientEdge for Ev {
    fn client(ev: ClientEv) -> Ev {
        Ev::Client(ev)
    }
    fn at_server(spec: FrameSpec) -> Ev {
        Ev::NiArrive(spec)
    }
}

struct Worker {
    core: Core,
    running: Option<Task>,
    /// When the worker last went idle (for feedback-gap measurement).
    idle_since: Option<SimTime>,
}

/// RPCValet's probe keys beyond its client edge, registered once at
/// construction.
struct Keys {
    requests: Counter,
    zombies: Counter,
    stranded: Counter,
    completed: Counter,
    redispatch: Counter,
    queue: Gauge,
    worker: Family<Busy>,
    idle_gap: Hop,
    ni_dispatch: Hop,
    worker_start: Hop,
    worker_done: Hop,
}

impl Keys {
    fn new(probe: &mut Probe, workers: usize) -> Keys {
        Keys {
            requests: probe.counter("ni.requests"),
            zombies: probe.counter("worker.zombie_dropped"),
            stranded: probe.counter("worker.stranded"),
            completed: probe.counter("worker.completed"),
            redispatch: probe.counter("recovery.redispatch"),
            queue: probe.gauge("ni.queue"),
            worker: probe.busy_family("worker", workers),
            idle_gap: probe.hop("worker.idle_gap"),
            ni_dispatch: probe.hop("path.1_ni_dispatch"),
            worker_start: probe.hop("path.2_worker_start"),
            worker_done: probe.hop("path.3_worker_done"),
        }
    }
}

struct RpcValet {
    client: Client,
    horizon: SimTime,
    wire: Wire,
    dispatcher: Dispatcher<Fcfs, LeastOutstanding>,
    workers: Vec<Worker>,
    ctx_pool: ContextPool,
    ctx_costs: ContextCosts,
    host: CoreSpec,

    /// NIC-side failure-detection policy, when recovery is enabled.
    recovery: Option<RecoveryPolicy>,
    stranded: u64,
    keys: Keys,
}

impl RpcValet {
    fn new(
        spec: WorkloadSpec,
        cfg: RpcValetConfig,
        res: ResilienceConfig,
        probe: &mut Probe,
    ) -> RpcValet {
        let mut master = Rng::new(spec.seed);
        let mut client = Client::new(spec, &mut master);
        if let Some(policy) = res.retry {
            client.enable_retries(policy);
        }
        let wire = Wire::new(&res, &mut master, probe, "path.4_response");
        let t0 = SimTime::ZERO;
        // One request in flight per core: RPCValet's N=1 design point,
        // which its paper shows is optimal for its hardware queue.
        let mut dispatcher = Dispatcher::new(cfg.workers, 1, Fcfs::new(), LeastOutstanding);
        if let Some(policy) = res.recovery {
            dispatcher.enable_recovery(policy);
        }
        RpcValet {
            dispatcher,
            horizon: spec.horizon(),
            client,
            wire,
            workers: (0..cfg.workers)
                .map(|w| Worker {
                    core: Core::new(CoreId(w as u32), CoreSpec::host_x86(), t0),
                    running: None,
                    idle_since: Some(t0),
                })
                .collect(),
            ctx_pool: ContextPool::new(),
            ctx_costs: ContextCosts::default(),
            host: CoreSpec::host_x86(),
            recovery: res.recovery,
            stranded: 0,
            keys: Keys::new(probe, cfg.workers),
        }
    }

    /// Sample the hardware queue after a dispatcher call, and deliver
    /// the assignments it decided.
    fn emit(&mut self, mut assignments: Vec<nicsched::Assignment>, ctx: &mut Ctx<'_, Ev>) {
        ctx.probe()
            .depth(&self.keys.queue, self.dispatcher.queue_len());
        for a in assignments.drain(..) {
            ctx.schedule_in(HW_DISPATCH + NI_TO_CORE, Ev::Deliver(a.worker, a.task));
        }
        self.dispatcher.recycle(assignments);
    }
}

impl Model for RpcValet {
    type Event = Ev;

    fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        self.client.check_invariants(now, inv);
        self.wire.codec.check_invariants(now, inv);
        // Cap-1 hardware dispatch: a worker running a task must not also
        // be marked idle, or the idle-gap accounting double-books time.
        for (w, worker) in self.workers.iter().enumerate() {
            if worker.running.is_some() && worker.idle_since.is_some() {
                inv.record(
                    now,
                    "worker-state",
                    format!("worker {w} runs a task but is still marked idle"),
                );
            }
        }
    }

    fn handle(&mut self, event: Ev, ctx: &mut Ctx<'_, Ev>) {
        match event {
            Ev::Client(ev) => self.client.on_event(ev, &mut self.wire, ctx),
            Ev::NiArrive(spec) => {
                let m = spec.msg;
                if m.kind != MsgKind::Request {
                    return;
                }
                ctx.probe().count(&self.keys.requests);
                ctx.probe().mark(m.req_id, &self.keys.ni_dispatch);
                let task = Task::new(
                    m.req_id,
                    m.client_id,
                    SimDuration::from_nanos(m.service_ns),
                    SimTime::from_nanos(m.sent_at_ns),
                    ctx.now(),
                    m.body_len,
                );
                let assignments = self.dispatcher.on_request(ctx.now(), task);
                self.emit(assignments, ctx);
            }
            Ev::Deliver(w, task) => {
                if self.dispatcher.absorb_stale_delivery(w, task.req_id) {
                    // The lease on this copy was reclaimed while it sat in
                    // the NI fabric (e.g. across a stall): the queue already
                    // re-dispatched the request, so the hardware drops the
                    // zombie instead of double-running it.
                    self.ctx_pool.discard(task.req_id);
                    ctx.probe().count(&self.keys.zombies);
                    return;
                }
                {
                    let now = ctx.now();
                    if ctx.faults().worker_crashed(w, now) {
                        // Delivered into a dead core. The hardware queue
                        // never sees a completion, so its cap-1 slot stays
                        // occupied and no further work lands here.
                        self.ctx_pool.discard(task.req_id);
                        self.stranded += 1;
                        ctx.probe().count(&self.keys.stranded);
                        return;
                    }
                    if let Some(resume) = ctx.faults().worker_stalled_until(w, now) {
                        ctx.schedule_at(resume, Ev::Deliver(w, task));
                        return;
                    }
                }
                debug_assert!(self.workers[w].running.is_none(), "cap-1 violated");
                if let Some(idle_at) = self.workers[w].idle_since.take() {
                    let gap = ctx.now().saturating_duration_since(idle_at);
                    ctx.probe().hop(&self.keys.idle_gap, gap);
                }
                ctx.probe().mark(task.req_id, &self.keys.worker_start);
                ctx.probe().busy(self.keys.worker.at(w), true);
                let overhead = ContextPool::op_cost(
                    self.ctx_pool.begin(task.req_id),
                    &self.ctx_costs,
                    &self.host,
                );
                let slow = {
                    let now = ctx.now();
                    ctx.faults().worker_slowdown(w, now)
                };
                let worker = &mut self.workers[w];
                worker.core.set_busy(ctx.now());
                let remaining = task.remaining;
                worker.running = Some(task);
                let wall = if slow > 1.0 {
                    scale_duration(overhead + remaining, slow)
                } else {
                    overhead + remaining
                };
                ctx.schedule_in(wall, Ev::WorkerRunEnd(w));
            }
            Ev::WorkerRunEnd(w) => {
                let task = self.workers[w].running.take().expect("running");
                let now = ctx.now();
                if ctx.faults().worker_crashed(w, now) {
                    // Died mid-request: no response, no completion signal.
                    self.ctx_pool.discard(task.req_id);
                    self.stranded += 1;
                    ctx.probe().count(&self.keys.stranded);
                    return;
                }
                ctx.probe().count(&self.keys.completed);
                ctx.probe().mark(task.req_id, &self.keys.worker_done);
                ctx.probe().busy(self.keys.worker.at(w), false);
                self.workers[w].idle_since = Some(now);
                let resp_built = now + params::WORKER_TX_COST;
                let resp = FrameSpec {
                    src_mac: AddressPlan::dispatcher_mac(),
                    dst_mac: AddressPlan::client_mac(),
                    src: AddressPlan::worker_ep(w),
                    dst: AddressPlan::client_ep(),
                    msg: MsgRepr {
                        body_len: task.body_len,
                        ..task_msg(MsgKind::Response, &task)
                    },
                };
                // Integrated NI: the response departs without a PCIe hop.
                self.wire.response(resp, resp_built, ctx);
                self.ctx_pool.discard(task.req_id);
                let worker = &mut self.workers[w];
                worker.core.requests_run += 1;
                worker.core.set_idle(resp_built);
                // The hardware queue reacts to the completion within the
                // NI fabric's delivery delay — the "fine-grained knowledge
                // of the load on each core" of §2.1.
                let assignments = self.dispatcher.on_done(now, w, task.req_id);
                self.emit(assignments, ctx);
            }
            Ev::HealthTick => {
                let now = ctx.now();
                if now >= self.horizon {
                    return;
                }
                let Some(policy) = self.recovery else {
                    return;
                };
                // The integrated NI reads core liveness directly off the
                // fabric: every core that is not crashed or stalled renews
                // its lease for free. Detection then falls entirely on the
                // cores the hardware cannot see making progress.
                let mut assignments = Vec::new();
                for w in 0..self.workers.len() {
                    if !ctx.faults().worker_down(w, now) {
                        assignments.extend(self.dispatcher.on_heartbeat(now, w));
                    }
                }
                let recovered = self.dispatcher.check_health(now);
                if !recovered.is_empty() {
                    ctx.probe().count(&self.keys.redispatch);
                }
                assignments.extend(recovered);
                self.emit(assignments, ctx);
                ctx.schedule_in(policy.heartbeat, Ev::HealthTick);
            }
        }
    }
}

/// Run an RPCValet-style simulation with stage-level observability.
pub fn run_probed(spec: WorkloadSpec, cfg: RpcValetConfig, probe: ProbeConfig) -> RunMetrics {
    run_resilient_probed(spec, cfg, probe, ResilienceConfig::default())
}

/// Run an RPCValet-style simulation with fault injection and client
/// retries. The integrated NI has per-nanosecond load knowledge, so the
/// staleness-fallback settings in `res` are ignored (there is no stale
/// feedback to degrade on), as is the admission policy (the hardware
/// global queue is lossless).
pub fn run_resilient_probed(
    spec: WorkloadSpec,
    cfg: RpcValetConfig,
    probe: ProbeConfig,
    res: ResilienceConfig,
) -> RunMetrics {
    let mut recorder = Probe::new(probe);
    let mut engine = Engine::new(RpcValet::new(spec, cfg, res, &mut recorder));
    engine.set_probe(recorder);
    engine.set_invariants(crate::common::checker_for(&res));
    if res.is_active() {
        engine.set_faults(FaultPlan::new(res.faults, spec.seed ^ FAULT_SEED_SALT));
    }
    engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
    if engine.model().recovery.is_some() {
        engine.schedule_at(SimTime::ZERO, Ev::HealthTick);
    }
    engine.run_until(spec.horizon());
    let horizon = spec.horizon();
    let model = engine.model();
    let util = mean_utilization(model.workers.iter().map(|w| &w.core), horizon);
    let mut metrics = assemble_metrics(&model.client, &model.wire, 0, util);
    let fm = &mut metrics.faults;
    fm.stranded = model.stranded;
    if let Some(h) = model.dispatcher.health() {
        fm.recovered = model.dispatcher.stats.recovered;
        fm.recovery_duplicates = model.dispatcher.stats.late_duplicates;
        fm.suspicions = h.stats.suspicions;
        fm.readmissions = h.stats.readmissions;
    }
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

    fn run(spec: WorkloadSpec, cfg: RpcValetConfig) -> RunMetrics {
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
    fn hardware_queue_scales_past_the_software_dispatcher() {
        // The §2.1 claim: no 5M/s dispatcher cap. 16 workers of 1us work
        // run to the wire's limit (a 64B-body request occupies 172 wire
        // bytes, so 10GbE carries at most ~7.27M of them per second),
        // beating host Shinjuku's dispatcher-capped throughput.
        let spec = quick_spec(7_000_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let valet = run(spec, RpcValetConfig { workers: 16 });
        let shinjuku = crate::shinjuku::run_probed(
            spec,
            crate::shinjuku::ShinjukuConfig {
                time_slice: None,
                ..crate::shinjuku::ShinjukuConfig::paper(16)
            },
            ProbeConfig::disabled(),
        )
        .metrics;
        assert!(
            valet.achieved_rps > shinjuku.achieved_rps * 1.4,
            "hardware queue {:.1}M vs software dispatcher {:.1}M",
            valet.achieved_rps / 1e6,
            shinjuku.achieved_rps / 1e6
        );
        assert!(
            valet.achieved_rps > 6_500_000.0,
            "{:.0}",
            valet.achieved_rps
        );
    }

    #[test]
    fn ultra_low_latency_on_homogeneous_work() {
        // Centralized hardware queue at nanosecond dispatch: unloaded
        // latency beats every software design in the repository.
        let spec = quick_spec(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(1)));
        let valet = run(spec, RpcValetConfig { workers: 4 });
        let offload = crate::offload::run_probed(
            spec,
            crate::offload::OffloadConfig::paper(4, 4),
            ProbeConfig::disabled(),
        );
        assert!(valet.p50 < offload.p50, "{} vs {}", valet.p50, offload.p50);
    }

    #[test]
    fn no_preemption_means_dispersion_hurts() {
        // The paper's §2.2(2) critique: RPCValet "demonstrate[s] high tail
        // latency for highly-variable request service time distributions".
        // Under a strongly dispersive mix (5% at 200us) near saturation,
        // c-FCFS without preemption parks short requests behind the longs;
        // the preemptive offload bounds them near the slice despite its
        // much costlier communication path.
        let dist = ServiceDist::Bimodal {
            p_long: 0.05,
            short: SimDuration::from_micros(2),
            long: SimDuration::from_micros(200),
        };
        let spec = quick_spec(280_000.0, dist); // rho ~ 0.83 on 4 workers
        let valet = run(spec, RpcValetConfig { workers: 4 });
        let offload = crate::offload::run_probed(
            spec,
            crate::offload::OffloadConfig::paper(4, 4),
            ProbeConfig::disabled(),
        );
        assert!(
            valet.p99_short > offload.p99_short * 2,
            "short requests stuck behind 200us ones: valet {} vs offload {}",
            valet.p99_short,
            offload.p99_short
        );
    }

    #[test]
    fn perfect_balance_no_queueing_below_capacity() {
        let spec = quick_spec(500_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
        let m = run(spec, RpcValetConfig { workers: 4 });
        assert!(!m.saturated(0.05), "{}", m.row());
        // Central queue + perfect knowledge: p99 stays near service time
        // plus the wire at moderate load.
        assert!(m.p99 < SimDuration::from_micros(40), "p99 {}", m.p99);
    }

    #[test]
    fn loss_and_crash_accounts_for_every_request() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(10));
        let run = || {
            run_resilient_probed(
                spec,
                RpcValetConfig { workers: 4 },
                ProbeConfig::disabled(),
                res,
            )
        };
        let m = run();
        let f = &m.faults;
        assert_eq!(f.unaccounted(), 0, "request ledger leaks: {f:?}");
        assert!(f.in_pipe() < 64, "attempt residue beyond pipeline: {f:?}");
        assert!(f.retries > 0, "loss never triggered a retry");
        // At most the in-flight task plus one queued delivery strand at the
        // dead core; the hardware queue stops feeding it after that.
        assert!(f.stranded >= 1 && f.stranded <= 2, "stranded {f:?}");
        assert!(m.completed > 1_000, "goodput collapsed: {}", m.row());
        let b = run();
        assert_eq!(m.faults, b.faults);
        assert_eq!(m.p99, b.p99);
    }

    #[test]
    fn deterministic() {
        let spec = quick_spec(300_000.0, ServiceDist::paper_bimodal());
        let a = run(spec, RpcValetConfig { workers: 4 });
        let b = run(spec, RpcValetConfig { workers: 4 });
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
    }
}
