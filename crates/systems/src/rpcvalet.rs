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

use net_wire::{FrameSpec, MsgKind};
use nicsched::{params, Dispatcher, Fcfs, LeastOutstanding, RecoveryPolicy, Task};
use sim_core::probe::{Counter, Gauge, Hop};
use sim_core::{Ctx, Engine, Model, Probe, Rng, SimDuration, SimTime};
use workload::{RunMetrics, WorkloadSpec};

use crate::common::{
    absorb_dispatcher, assemble_metrics, msg_task, response_frame, AddressPlan, Assembly, Client,
    ClientEdge, ClientEv, ResilienceConfig, RunEnd, Wire, Workers,
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

/// Events of the RPCValet model.
#[doc(hidden)]
pub enum Ev {
    Client(ClientEv),
    /// A request frame arrives at the integrated NI fabric.
    NiArrive(FrameSpec),
    /// The hardware queue issues a task to a core.
    Deliver(usize, Task),
    /// A worker's run ends, with its timer generation.
    WorkerRunEnd(usize, u64),
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

/// RPCValet's probe keys beyond its client edge, registered once at
/// construction.
struct Keys {
    requests: Counter,
    zombies: Counter,
    redispatch: Counter,
    queue: Gauge,
    ni_dispatch: Hop,
}

impl Keys {
    fn new(probe: &mut Probe) -> Keys {
        Keys {
            requests: probe.counter("ni.requests"),
            zombies: probe.counter("worker.zombie_dropped"),
            redispatch: probe.counter("recovery.redispatch"),
            queue: probe.gauge("ni.queue"),
            ni_dispatch: probe.hop("path.1_ni_dispatch"),
        }
    }
}

/// The RPCValet-style model; run it through [`crate::common::run`] or
/// [`ServerSystem`](crate::ServerSystem) on an [`RpcValetConfig`]. The
/// integrated NI has per-nanosecond load knowledge, so the
/// staleness-fallback settings of the resilience config are ignored (there
/// is no stale feedback to degrade on).
pub struct RpcValet {
    client: Client,
    horizon: SimTime,
    wire: Wire,
    dispatcher: Dispatcher<Fcfs, LeastOutstanding>,
    pub(crate) workers: Workers,

    /// NIC-side failure-detection policy, when recovery is enabled.
    recovery: Option<RecoveryPolicy>,
    keys: Keys,
}

impl Assembly for RpcValet {
    type Config = RpcValetConfig;
    type Extra = ();

    fn name(_: &RpcValetConfig) -> &'static str {
        "rpcvalet"
    }

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
            // No preemption: every task runs to completion.
            workers: Workers::new(
                cfg.workers,
                probe,
                "path.2_worker_start",
                "path.3_worker_done",
            )
            .with_idle_gaps(probe),
            recovery: res.recovery,
            keys: Keys::new(probe),
        }
    }

    fn seed(engine: &mut Engine<RpcValet>) {
        engine.schedule_at(SimTime::ZERO, Ev::Client(ClientEv::Send));
        if engine.model().recovery.is_some() {
            engine.schedule_at(SimTime::ZERO, Ev::HealthTick);
        }
    }

    fn metrics(&self, horizon: SimTime) -> (RunMetrics, ()) {
        let mut metrics = assemble_metrics(&self.client, &self.wire, &self.workers, horizon);
        absorb_dispatcher(&mut metrics.faults, &self.dispatcher, None, horizon);
        (metrics, ())
    }
}

impl RpcValet {
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
        self.workers.check_invariants(now, inv);
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
                let task = msg_task(&m, ctx.now());
                let assignments = self.dispatcher.on_request(ctx.now(), task);
                self.emit(assignments, ctx);
            }
            Ev::Deliver(w, task) => {
                if self.dispatcher.absorb_stale_delivery(w, task.req_id) {
                    // The lease on this copy was reclaimed while it sat in
                    // the NI fabric (e.g. across a stall): the queue already
                    // re-dispatched the request, so the hardware drops the
                    // zombie instead of double-running it.
                    self.workers.discard(task.req_id);
                    ctx.probe().count(&self.keys.zombies);
                    return;
                }
                if !self.workers.may_take(w, Ev::Deliver(w, task), ctx) {
                    // Delivered into a dead core: the hardware queue never
                    // sees a completion, so its cap-1 slot stays occupied
                    // and no further work lands here. A stalled core takes
                    // the task when the stall ends.
                    let stranded = self.workers.strand_if_crashed(w, task.req_id, ctx);
                    debug_assert!(stranded || !self.workers.is_running(w), "cap-1 violated");
                    return;
                }
                self.workers.start(w, task, SimDuration::ZERO, ctx, |gen| {
                    Ev::WorkerRunEnd(w, gen)
                });
            }
            Ev::WorkerRunEnd(w, gen) => {
                // A core that died mid-request sends no response and no
                // completion signal.
                let Some(RunEnd::Finished(task)) = self.workers.end_run(w, gen, ctx) else {
                    return;
                };
                let now = ctx.now();
                let resp_built = now + params::WORKER_TX_COST;
                // The core goes idle once the response is built.
                self.workers.idle(w, resp_built, ctx);
                let resp = response_frame(AddressPlan::dispatcher_mac(), w, &task);
                // Integrated NI: the response departs without a PCIe hop.
                self.wire.response(resp, resp_built, ctx);
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
                for w in 0..self.dispatcher.worker_count() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSystem;
    use sim_core::ProbeConfig;
    use workload::ServiceDist;

    fn run(spec: WorkloadSpec, cfg: RpcValetConfig) -> RunMetrics {
        cfg.run(spec, ProbeConfig::disabled())
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
        let shinjuku = (crate::shinjuku::ShinjukuConfig {
            time_slice: None,
            ..crate::shinjuku::ShinjukuConfig::paper(16)
        })
        .run(spec, ProbeConfig::disabled());
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
        let offload = crate::offload::OffloadConfig::paper(4, 4).run(spec, ProbeConfig::disabled());
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
        let offload = crate::offload::OffloadConfig::paper(4, 4).run(spec, ProbeConfig::disabled());
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
        let run =
            || (RpcValetConfig { workers: 4 }).run_resilient(spec, ProbeConfig::disabled(), res);
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
