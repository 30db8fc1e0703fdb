//! Per-layer steady-state costs: each loop calls one crate's public
//! hot-path functions the way a simulated request does, and reports host
//! ns per operation as the fastest of [`REPS`] timed repetitions
//! (scheduler noise only ever slows a loop down). Every loop also checks
//! its own outputs, so a faster layer that computes something else fails.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use cpu_model::{ContextOp, ContextPool};
use net_wire::{Endpoint, EthernetAddress, FrameSpec, Ipv4Address, MsgRepr, ParsedFrame};
use nic_model::{four_tuple_input, toeplitz_hash, NicDevice, QueueSteering, Rss, DEFAULT_KEY};
use nicsched::{Dispatcher, LeastOutstanding, PolicySpec, Task};
use sim_core::stats::Histogram;
use sim_core::{
    Ctx, Engine, EventQueue, Model, Probe, ProbeConfig, ProbeHandle, Rng, SimDuration, SimTime,
};
use systems::common::{AddressPlan, Client};
use workload::{ArrivalGen, ArrivalProcess, LatencyRecorder, ReqClass, ServiceDist, WorkloadSpec};

use crate::check::Checker;

/// Timed repetitions per layer; the fastest counts.
const REPS: usize = 7;

/// Every per-layer metric this module reports, in report order.
pub const NAMES: [&str; 29] = [
    "sim-core.queue.push_pop_ns",
    "sim-core.queue.same_instant_ns",
    "sim-core.queue.timer_cancel_ns",
    "sim-core.engine.ns_per_event",
    "sim-core.histogram.record_ns",
    "sim-core.probe.count_ns",
    "sim-core.probe.hop_ns",
    "sim-core.probe.busy_ns",
    "sim-core.probe.depth_ns",
    "sim-core.probe.mark_ns",
    "net-wire.frame.build_64B_ns",
    "net-wire.frame.build_1KiB_ns",
    "net-wire.frame.parse_64B_ns",
    "net-wire.frame.parse_1KiB_ns",
    "nic-model.rss.toeplitz_ns",
    "nic-model.rss.steer_ns",
    "nic-model.device.steer_ns",
    "cpu-model.context.begin_discard_ns",
    "nicsched.dispatcher.cycle_ns.fcfs",
    "nicsched.dispatcher.cycle_ns.srpt",
    "nicsched.dispatcher.cycle_ns.edf",
    "nicsched.dispatcher.cycle_ns.wfq",
    "nicsched.dispatcher.cycle_deep_ns.fcfs",
    "nicsched.dispatcher.preempt_ns.fcfs",
    "workload.dist.sample_ns",
    "workload.arrivals.next_gap_ns",
    "workload.latency.record_ns",
    "systems.client.request_ns",
    "systems.client.response_ns",
];

/// Measure every layer; returns `(name, ns per op)` in [`NAMES`] order.
pub fn measure(chk: &mut Checker) -> Vec<(&'static str, f64)> {
    let (request_ns, response_ns) = client(chk);
    let values = [
        queue_push_pop(chk),
        queue_same_instant(chk),
        queue_timer_cancel(chk),
        engine_ns_per_event(chk),
        histogram_record(chk),
        probe_op(chk, ProbeOp::Count),
        probe_op(chk, ProbeOp::Hop),
        probe_op(chk, ProbeOp::Busy),
        probe_op(chk, ProbeOp::Depth),
        probe_mark(chk),
        frame_build(chk, 64),
        frame_build(chk, 1024),
        frame_parse(chk, 64),
        frame_parse(chk, 1024),
        toeplitz(chk),
        rss_steer(chk),
        device_steer(chk),
        context_begin_discard(chk),
        dispatcher_cycle(chk, "fcfs"),
        dispatcher_cycle(chk, "srpt"),
        dispatcher_cycle(chk, "edf"),
        dispatcher_cycle(chk, "wfq"),
        dispatcher_cycle_deep(chk),
        dispatcher_preempt(chk),
        dist_sample(),
        arrivals_next_gap(),
        latency_record(chk),
        request_ns,
        response_ns,
    ];
    NAMES.into_iter().zip(values).collect()
}

/// Fastest of [`REPS`] calls of `rep`, each doing `ops` operations, in ns
/// per operation. `rep` returns a checksum so the work cannot be elided.
fn fastest(ops: u64, mut rep: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(rep());
        best = best.min(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

// ---- sim-core -------------------------------------------------------------

/// Queue payloads carry a few words, like a model's event enum.
type Payload = [u64; 4];

/// Far-future timers every real run carries (retransmit guards, leases).
const FAR: u64 = 1 << 40;

fn standing_queue() -> EventQueue<Payload> {
    let mut q = EventQueue::new();
    for i in 0..1024u64 {
        q.push(SimTime::from_nanos(FAR + i * 1_000), [i; 4]);
    }
    q
}

/// A chain event hopping 100–999 ns ahead, over 1024 far timers: one
/// near-lane push plus one pop per op.
fn queue_push_pop(chk: &mut Checker) -> f64 {
    const OPS: u64 = 400_000;
    let mut q = standing_queue();
    q.push(SimTime::ZERO, [0; 4]);
    let mut escaped = 0u64;
    let ns = fastest(OPS, || {
        let mut sum = 0u64;
        for _ in 0..OPS {
            let (at, seq, ev) = q.pop().expect("the chain never drains");
            escaped += u64::from(at.as_nanos() >= FAR);
            sum ^= at.as_nanos() ^ seq ^ ev[0];
            q.push(at + SimDuration::from_nanos(100 + seq % 900), ev);
        }
        sum
    });
    chk.check(escaped == 0, || {
        format!("queue push_pop: {escaped} far timers fired early")
    });
    ns
}

/// `schedule_now`: a push at the instant just popped, then its pop.
fn queue_same_instant(chk: &mut Checker) -> f64 {
    const OPS: u64 = 400_000;
    let mut q = standing_queue();
    let now = SimTime::from_nanos(5);
    q.push(now, [0; 4]);
    let mut moved = 0u64;
    let ns = fastest(OPS, || {
        let mut sum = 0u64;
        for _ in 0..OPS {
            let (at, seq, ev) = q.pop().expect("the hand-off never drains");
            moved += u64::from(at != now);
            sum ^= seq ^ ev[0];
            q.push(at, ev);
        }
        sum
    });
    chk.check(moved == 0, || {
        format!("queue same_instant: {moved} pops left the instant")
    });
    ns
}

/// Arm a 10 µs guard timer and cancel it, as a request that completes
/// before its timeout does. A chain event advances time every
/// [`GUARDS`] ops so cancelled keys surface and are dropped, as in a run.
fn queue_timer_cancel(chk: &mut Checker) -> f64 {
    const STEPS: u64 = 50_000;
    const GUARDS: u64 = 8;
    let mut q = standing_queue();
    q.push(SimTime::ZERO, [0; 4]);
    let mut dead = 0u64;
    let ns = fastest(STEPS * GUARDS, || {
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let (at, seq, ev) = q.pop().expect("the chain never drains");
            sum ^= seq;
            q.push(at + SimDuration::from_nanos(100 + seq % 900), ev);
            for g in 0..GUARDS {
                let h = q.push_handle(at + SimDuration::from_micros(10), [g; 4]);
                dead += u64::from(q.cancel(h).is_none());
            }
        }
        sum
    });
    chk.check(dead == 0, || {
        format!("queue timer_cancel: {dead} live handles did not cancel")
    });
    ns
}

/// The engine loop on 16 self-rescheduling chains: ns per event.
fn engine_ns_per_event(chk: &mut Checker) -> f64 {
    struct Chains;
    struct ChainEv {
        gap: SimDuration,
        remaining: u32,
    }
    impl Model for Chains {
        type Event = ChainEv;
        fn handle(&mut self, ev: ChainEv, ctx: &mut Ctx<'_, ChainEv>) {
            if ev.remaining > 0 {
                ctx.schedule_in(
                    ev.gap,
                    ChainEv {
                        gap: ev.gap,
                        remaining: ev.remaining - 1,
                    },
                );
            }
        }
    }
    const FANOUT: u64 = 16;
    const PER_CHAIN: u64 = 25_000;
    let events = FANOUT * (PER_CHAIN + 1);
    let mut processed = 0;
    let ns = fastest(events, || {
        let mut engine = Engine::new(Chains);
        for i in 0..FANOUT {
            engine.schedule_at(
                SimTime::from_nanos(i),
                ChainEv {
                    gap: SimDuration::from_nanos(100 + i),
                    remaining: PER_CHAIN as u32,
                },
            );
        }
        engine.run();
        processed = engine.events_processed();
        processed
    });
    chk.check(processed == events, || {
        format!("engine: processed {processed} of {events} events")
    });
    ns
}

fn histogram_record(chk: &mut Checker) -> f64 {
    const OPS: u64 = 400_000;
    let mut h = Histogram::latency();
    let mut x = 0x12345u64;
    let ns = fastest(OPS, || {
        for _ in 0..OPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(x % 10_000_000);
        }
        h.count()
    });
    chk.check(h.count() == OPS * REPS as u64, || {
        format!("histogram: {} samples of {}", h.count(), OPS * REPS as u64)
    });
    ns
}

/// Counter names an offload run keeps, so lookups pay a realistic map.
const COUNTERS: [&str; 11] = [
    "client.responses",
    "client.sent",
    "networker.parsed",
    "nic.rx_frames",
    "qm.done",
    "qm.enqueue",
    "qm.preempt_requeue",
    "rx.notifs",
    "tx.built",
    "worker.completed",
    "worker.preempted",
];

#[derive(Clone, Copy)]
enum ProbeOp {
    Count,
    Hop,
    Busy,
    Depth,
}

/// One recording call through an enabled probe, as a model makes it.
fn probe_op(chk: &mut Checker, op: ProbeOp) -> f64 {
    const OPS: u64 = 300_000;
    let mut p = Probe::new(ProbeConfig::enabled());
    let mut now = 0u64;
    let ns = fastest(OPS, || {
        for i in 0..OPS {
            now += 100;
            let mut h = ProbeHandle::new(SimTime::from_nanos(now), Some(&mut p));
            let w = (i % 16) as usize;
            match op {
                ProbeOp::Count => h.count(COUNTERS[(i % 11) as usize]),
                ProbeOp::Hop => h.hop("worker.idle_gap", SimDuration::from_nanos(i % 5_000)),
                ProbeOp::Busy => h.busy_i("worker", w, (i / 16) % 2 == 0),
                ProbeOp::Depth => h.depth_i("worker.ring", w, (i / 16 % 8) as usize),
            }
        }
        now
    });
    let report = p.report(SimTime::from_nanos(now));
    let ops = OPS * REPS as u64;
    let ok = match op {
        ProbeOp::Count => report.counters.iter().map(|c| c.1).sum::<u64>() == ops,
        ProbeOp::Hop => report.hop("worker.idle_gap").map(|h| h.count) == Some(ops),
        ProbeOp::Busy => {
            report.stages.len() == 16 && report.stages.iter().all(|s| s.busy_transitions > 0)
        }
        ProbeOp::Depth => {
            report.stages.len() == 16 && report.stages.iter().all(|s| s.peak_depth > 0.0)
        }
    };
    chk.check(ok, || {
        "probe: the report does not hold what was recorded".to_string()
    });
    ns
}

/// The mark chain: four marks per request with 48 requests in flight.
fn probe_mark(chk: &mut Checker) -> f64 {
    const STEPS: u64 = 100_000;
    let mut p = Probe::new(ProbeConfig::enabled());
    let mut req = 64u64;
    let ns = fastest(STEPS * 4, || {
        for _ in 0..STEPS {
            req += 1;
            let mut h = ProbeHandle::new(SimTime::from_nanos(req * 100), Some(&mut p));
            h.mark(req, "path.0_client_send");
            h.mark(req - 16, "path.1_nic_parse");
            h.mark(req - 32, "path.2_worker_start");
            h.finish(req - 48, "path.3_response");
        }
        req
    });
    let report = p.report(SimTime::from_nanos(req * 100));
    chk.check(report.in_flight == 48, || {
        format!(
            "probe mark chain: {} requests in flight, not 48",
            report.in_flight
        )
    });
    ns
}

// ---- net-wire ---------------------------------------------------------------

fn frame(body: u16) -> FrameSpec {
    FrameSpec {
        src_mac: EthernetAddress::new(2, 0, 0, 0, 0, 1),
        dst_mac: EthernetAddress::new(2, 0, 0, 0, 1, 0),
        src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7123),
        dst: Endpoint::new(Ipv4Address::new(10, 0, 1, 0), 6000),
        msg: MsgRepr::request(42, 1, 5_000, 123_456, body),
    }
}

fn frame_build(chk: &mut Checker, body: u16) -> f64 {
    const OPS: u64 = 200_000;
    let mut spec = frame(body);
    let ns = fastest(OPS, || {
        let mut sum = 0u64;
        for i in 0..OPS {
            spec.msg.req_id = i;
            sum += spec.build().len() as u64;
        }
        sum
    });
    let parsed = ParsedFrame::parse(&spec.build());
    chk.check(parsed.ok().map(|p| p.to_spec()) == Some(spec), || {
        format!("frame build {body} B: the frame does not parse back to its spec")
    });
    ns
}

fn frame_parse(chk: &mut Checker, body: u16) -> f64 {
    const OPS: u64 = 300_000;
    let spec = frame(body);
    let bytes = spec.build();
    let mut bad = 0u64;
    let ns = fastest(OPS, || {
        let mut sum = 0u64;
        for _ in 0..OPS {
            match ParsedFrame::parse(black_box(&bytes)) {
                Ok(p) => sum += p.msg.req_id,
                Err(_) => bad += 1,
            }
        }
        sum
    });
    chk.check(bad == 0, || {
        format!("frame parse {body} B: {bad} valid frames rejected")
    });
    ns
}

// ---- nic-model --------------------------------------------------------------

/// Source address and port, destination address and port, expected hash.
type ToeplitzVector = ([u8; 4], u16, [u8; 4], u16, u32);

/// Microsoft's IPv4 4-tuple Toeplitz verification vectors.
const TOEPLITZ_VECTORS: [ToeplitzVector; 5] = [
    (
        [66, 9, 149, 187],
        2794,
        [161, 142, 100, 80],
        1766,
        0x51cc_c178,
    ),
    (
        [199, 92, 111, 2],
        14230,
        [65, 69, 140, 83],
        4739,
        0xc626_b0ea,
    ),
    (
        [24, 19, 198, 95],
        12898,
        [12, 22, 207, 184],
        38024,
        0x5c2b_394a,
    ),
    (
        [38, 27, 205, 30],
        48228,
        [209, 142, 163, 6],
        2217,
        0xafc7_327f,
    ),
    (
        [153, 39, 163, 191],
        44251,
        [202, 188, 127, 2],
        1303,
        0x10e8_28a2,
    ),
];

fn toeplitz(chk: &mut Checker) -> f64 {
    const OPS: u64 = 300_000;
    let inputs =
        TOEPLITZ_VECTORS.map(|(s, sp, d, dp, want)| (four_tuple_input(s, d, sp, dp), want));
    let mut wrong = 0u64;
    let ns = fastest(OPS, || {
        for i in 0..OPS {
            let (input, want) = &inputs[(i % 5) as usize];
            wrong += u64::from(toeplitz_hash(&DEFAULT_KEY, black_box(input)) != *want);
        }
        wrong
    });
    chk.check(wrong == 0, || {
        format!("toeplitz: {wrong} hashes differ from the published vectors")
    });
    ns
}

/// RSS queue selection: Toeplitz over the 4-tuple plus the indirection
/// table, across 1024 client flows.
fn rss_steer(chk: &mut Checker) -> f64 {
    const OPS: u64 = 300_000;
    let rss = Rss::new(16);
    let mut out_of_range = 0u64;
    let ns = fastest(OPS, || {
        let mut sum = 0u64;
        for i in 0..OPS {
            let q = rss.steer([10, 0, 0, 1], [10, 0, 1, 0], 7000 + (i % 1024) as u16, 6000);
            out_of_range += u64::from(q >= 16);
            sum += u64::from(q);
        }
        sum
    });
    chk.check(out_of_range == 0, || {
        format!("rss steer: {out_of_range} queues out of range")
    });
    ns
}

/// `NicDevice::steer` on the offload topology (one dispatcher interface
/// plus 16 worker VFs): destination-MAC lookup plus queue selection.
fn device_steer(chk: &mut Checker) -> f64 {
    const OPS: u64 = 300_000;
    let mut nic = NicDevice::new(SimDuration::from_nanos(500));
    let disp = nic.add_iface(
        AddressPlan::dispatcher_mac(),
        1,
        1024,
        QueueSteering::Single,
    );
    let mut frames = vec![(disp, parsed_to(AddressPlan::dispatcher_mac()))];
    for w in 0..16 {
        let mac = AddressPlan::worker_mac(w);
        let iface = nic.add_iface(mac, 1, 128, QueueSteering::Single);
        frames.push((iface, parsed_to(mac)));
    }
    let mut misrouted = 0u64;
    let ns = fastest(OPS, || {
        for i in 0..OPS {
            // Every other frame is a client request to the dispatcher.
            let (want, f) = &frames[if i % 2 == 0 { 0 } else { (i / 2 % 17) as usize }];
            let d = nic.steer(black_box(f));
            misrouted += u64::from(d.map(|d| d.iface) != Some(*want));
        }
        misrouted
    });
    chk.check(misrouted == 0, || {
        format!("device steer: {misrouted} frames misrouted")
    });
    ns
}

fn parsed_to(dst_mac: EthernetAddress) -> ParsedFrame {
    let spec = FrameSpec {
        dst_mac,
        ..frame(64)
    };
    ParsedFrame::parse(&spec.build()).expect("a built frame parses")
}

// ---- cpu-model --------------------------------------------------------------

/// A worker starting a fresh request and discarding its context at the
/// end, with 16 preempted contexts saved.
fn context_begin_discard(chk: &mut Checker) -> f64 {
    const OPS: u64 = 400_000;
    let mut pool = ContextPool::new();
    for id in 0..16 {
        pool.save(id);
    }
    let mut restored = 0u64;
    let mut id = 1_000u64;
    let ns = fastest(OPS, || {
        for _ in 0..OPS {
            id += 1;
            restored += u64::from(pool.begin(id) != ContextOp::Spawn);
            pool.discard(id);
        }
        id
    });
    chk.check(restored == 0 && pool.resident() == 16, || {
        format!(
            "context pool: {restored} fresh requests restored, {} resident",
            pool.resident()
        )
    });
    ns
}

// ---- nicsched ---------------------------------------------------------------

fn task(id: u64, service: SimDuration) -> Task {
    Task::new(id, 0, service, SimTime::ZERO, SimTime::ZERO, 64)
}

/// One request→done cycle through a 16-worker, cap-5 dispatcher whose
/// policy comes from the registry, as every assembly builds it.
fn dispatcher_cycle(chk: &mut Checker, policy: &str) -> f64 {
    const OPS: u64 = 100_000;
    let spec = PolicySpec::parse(policy).expect("a registry policy");
    let mut d = Dispatcher::new(16, 5, spec.build(), LeastOutstanding);
    let mut id = 0u64;
    let mut done = 0u64;
    let ns = fastest(OPS, || {
        for _ in 0..OPS {
            id += 1;
            let now = SimTime::from_nanos(id * 1_000);
            for a in d.on_request(now, task(id, SimDuration::from_micros(1 + id % 50))) {
                done += 1;
                d.on_done(now, a.worker, a.task.req_id);
            }
        }
        done
    });
    chk.check(done == id && d.total_outstanding() == 0, || {
        format!("dispatcher {policy}: {done} of {id} requests dispatched")
    });
    ns
}

/// The request→done cycle with 10k requests queued behind 80 busy slots.
fn dispatcher_cycle_deep(chk: &mut Checker) -> f64 {
    const OPS: u64 = 100_000;
    const QUEUED: u64 = 10_000;
    let us = SimDuration::from_micros(5);
    let mut d = Dispatcher::new(16, 5, PolicySpec::FCFS.build(), LeastOutstanding);
    let mut running: Vec<VecDeque<u64>> = vec![VecDeque::new(); 16];
    let mut id = 0u64;
    while id < 80 + QUEUED {
        id += 1;
        for a in d.on_request(SimTime::ZERO, task(id, us)) {
            running[a.worker].push_back(a.task.req_id);
        }
    }
    let mut stalled = 0u64;
    let ns = fastest(OPS, || {
        for i in 0..OPS {
            id += 1;
            let now = SimTime::from_nanos(id);
            stalled += d.on_request(now, task(id, us)).len() as u64;
            let w = (i % 16) as usize;
            let req = running[w].pop_front().expect("a full worker");
            let next = d.on_done(now, w, req);
            stalled += u64::from(next.len() != 1);
            for a in next {
                running[a.worker].push_back(a.task.req_id);
            }
        }
        id
    });
    chk.check(stalled == 0 && d.queue_len() as u64 == QUEUED, || {
        format!(
            "dispatcher deep: {stalled} cycles off the steady state, {} queued",
            d.queue_len()
        )
    });
    ns
}

/// A slice expiry: `on_preempted` requeues the task and re-dispatches it,
/// with 80 long requests in flight.
fn dispatcher_preempt(chk: &mut Checker) -> f64 {
    const OPS: u64 = 200_000;
    let slice = SimDuration::from_micros(10);
    let mut d = Dispatcher::new(16, 5, PolicySpec::FCFS.build(), LeastOutstanding);
    let mut in_flight = VecDeque::new();
    for id in 1..=80 {
        for a in d.on_request(SimTime::ZERO, task(id, SimDuration::from_secs(1_000))) {
            in_flight.push_back(a);
        }
    }
    let mut now = SimTime::ZERO;
    let mut lost = 0u64;
    let ns = fastest(OPS, || {
        for _ in 0..OPS {
            now += slice;
            let a = in_flight.pop_front().expect("80 requests in flight");
            let next = d.on_preempted(now, a.worker, a.task.after_preemption(slice));
            lost += u64::from(next.len() != 1);
            in_flight.extend(next);
        }
        lost
    });
    chk.check(lost == 0 && in_flight.len() == 80, || {
        format!(
            "dispatcher preempt: {lost} requeues not re-dispatched, {} in flight",
            in_flight.len()
        )
    });
    ns
}

// ---- workload ---------------------------------------------------------------

fn dist_sample() -> f64 {
    const OPS: u64 = 400_000;
    let dist = ServiceDist::paper_bimodal();
    let mut rng = Rng::new(1);
    fastest(OPS, || {
        (0..OPS).map(|_| dist.sample(&mut rng).as_nanos()).sum()
    })
}

fn arrivals_next_gap() -> f64 {
    const OPS: u64 = 400_000;
    let mut gen = ArrivalGen::new(
        ArrivalProcess::Poisson {
            rate_rps: 400_000.0,
        },
        Rng::new(1),
    );
    fastest(OPS, || (0..OPS).map(|_| gen.next_gap().as_nanos()).sum())
}

fn latency_record(chk: &mut Checker) -> f64 {
    const OPS: u64 = 300_000;
    let mut rec = LatencyRecorder::new(SimTime::ZERO);
    let mut now = 0u64;
    let ns = fastest(OPS, || {
        for i in 0..OPS {
            now += 2_500;
            let service = SimDuration::from_micros(if i % 200 == 0 { 100 } else { 5 });
            let sojourn = 6_000 + i % 20_000;
            let class = if i % 200 == 0 {
                ReqClass::Long
            } else {
                ReqClass::Short
            };
            rec.record(
                SimTime::from_nanos(now + sojourn),
                SimTime::from_nanos(now),
                service,
                class,
            );
        }
        rec.completed
    });
    chk.check(rec.completed == OPS * REPS as u64, || {
        format!(
            "latency recorder: {} of {} recorded",
            rec.completed,
            OPS * REPS as u64
        )
    });
    ns
}

// ---- systems ----------------------------------------------------------------

/// `Client::make_request` and `Client::on_response`, timed separately in
/// batches of 1024 so the outstanding ledger holds ~1k requests, with a
/// fresh client every 100k requests as in one run.
fn client(chk: &mut Checker) -> (f64, f64) {
    const BATCH: usize = 1024;
    const BATCHES: usize = 100;
    let spec = WorkloadSpec::new(400_000.0, ServiceDist::paper_bimodal());
    let mut requests = Vec::with_capacity(BATCH);
    let mut responses = Vec::with_capacity(BATCH);
    let (mut best_req, mut best_resp) = (f64::INFINITY, f64::INFINITY);
    let mut unrecorded = 0u64;
    for _ in 0..REPS {
        let mut c = Client::new(spec, &mut Rng::new(1));
        let (mut req_ns, mut resp_ns) = (0u128, 0u128);
        let mut now = spec.warmup.as_nanos();
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                now += 2_500;
                requests.push(c.make_request(SimTime::from_nanos(now)));
            }
            req_ns += t0.elapsed().as_nanos();
            responses.extend(requests.drain(..).map(|r| {
                let resp = FrameSpec {
                    msg: r.msg.response(),
                    ..r
                };
                ParsedFrame::parse(&resp.build()).expect("a built frame parses")
            }));
            let t0 = Instant::now();
            for r in responses.drain(..) {
                now += 2_500;
                c.on_response(SimTime::from_nanos(now), &r);
            }
            resp_ns += t0.elapsed().as_nanos();
        }
        let ops = (BATCH * BATCHES) as f64;
        best_req = best_req.min(req_ns as f64 / ops);
        best_resp = best_resp.min(resp_ns as f64 / ops);
        unrecorded += (BATCH * BATCHES) as u64 - c.recorder.completed;
    }
    chk.check(unrecorded == 0, || {
        format!("client: {unrecorded} responses not recorded")
    });
    (best_req, best_resp)
}
