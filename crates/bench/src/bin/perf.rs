//! Perf baseline: engine throughput and sweep parallelism, emitted as machine-readable JSON for the CI gate.
//!
//! ```text
//! perf [--smoke] [--out PATH] [--compare PATH] [--tolerance F]
//!      [--floor F] [--jobs N] [--handicap N]
//! ```
//!
//! Two sections:
//!
//! * **engine** — events/second of the indexed [`EventQueue`] against the
//!   pre-existing [`LegacyHeap`] (kept as the executable specification)
//!   on a bundle of workload shapes, each over a standing population of
//!   64 or more events (timer chains, schedule_now handoff cascades, NIC
//!   fan-outs over a standing timer population, sparse far-future timers,
//!   cancel-heavy RPC-timeout traffic, reschedule-heavy deadline
//!   extension), plus the full [`Engine`] loop. The headline is
//!   `normalized_throughput`: the geometric mean of the per-shape
//!   speedups (indexed / legacy, both *measured in the same process*),
//!   so the number is comparable across machines of different speeds —
//!   which is what lets CI gate on it. No shape holds a model-sized
//!   population: models keep at most 38 events pending, below the bound
//!   at which the queue engages its timer wheel, so the path model
//!   traffic takes (the same-instant lane and the sorted near array
//!   alone) is measured only end to end, by `simbench`.
//! * **sweep** — wall-clock of one parallel grid at `--jobs 1` vs
//!   `--jobs N`, asserting the results are identical either way.
//!
//! `--compare BASELINE.json` re-runs the measurement and exits non-zero
//! if (a) any workload's speedup falls below `--floor` (default 1.0 —
//! the indexed queue must never lose to the legacy heap on any shape),
//! or (b) `normalized_throughput` regressed more than `--tolerance`
//! (default 0.25) below the baseline. Both checks use in-process ratios,
//! so they hold on any machine. `--handicap N` multiplies the work done
//! on the fast path only — `--handicap 2` simulates a 2× engine slowdown
//! and must make the comparison fail; CI uses it once to prove the gate
//! bites.
//!
//! This binary times real code, so it reads the wall clock and sizes its
//! sweep by the host's cores: the one file where clippy's name bans are
//! lifted.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Instant;

use sim_core::{Ctx, Engine, EventQueue, LegacyHeap, Model, SimDuration, SimTime, TimerHandle};
use systems::offload::OffloadConfig;
use systems::{ProbeConfig, ServerSystem};
use workload::ServiceDist;

/// Realistically-sized event payload: models carry request ids, sizes and
/// routing state, so queue costs must include payload movement.
type Payload = [u64; 6];

/// The queue surface both implementations share, so one driver measures
/// both. Cancel and reschedule take whatever handle the queue's push
/// returned; the cancel-heavy shapes only ever cancel handles they know
/// are live, so the legacy side may use its unchecked (O(log n), not
/// O(n)) cancel — the comparison measures the tombstone mechanism, not
/// the spec-grade liveness scan.
trait Q {
    type Handle: Copy;
    fn push(&mut self, at: SimTime, e: Payload) -> Self::Handle;
    fn pop(&mut self) -> Option<(SimTime, u64, Payload)>;
    fn cancel(&mut self, h: Self::Handle);
    /// Cancel + re-insert at `at`. `e` re-supplies the payload for queues
    /// that do not retain it across cancellation (the legacy heap); it
    /// always equals the payload pushed under `h`.
    fn reschedule(&mut self, h: Self::Handle, at: SimTime, e: Payload) -> Self::Handle;
}

impl Q for EventQueue<Payload> {
    type Handle = TimerHandle;
    fn push(&mut self, at: SimTime, e: Payload) -> TimerHandle {
        EventQueue::push_handle(self, at, e)
    }
    fn pop(&mut self) -> Option<(SimTime, u64, Payload)> {
        EventQueue::pop(self)
    }
    fn cancel(&mut self, h: TimerHandle) {
        let live = EventQueue::cancel(self, h);
        debug_assert!(live.is_some(), "bench cancels only live handles");
    }
    fn reschedule(&mut self, h: TimerHandle, at: SimTime, _e: Payload) -> TimerHandle {
        EventQueue::reschedule(self, h, at).expect("bench reschedules only live handles")
    }
}

impl Q for LegacyHeap<Payload> {
    type Handle = u64;
    fn push(&mut self, at: SimTime, e: Payload) -> u64 {
        LegacyHeap::push(self, at, e)
    }
    fn pop(&mut self) -> Option<(SimTime, u64, Payload)> {
        LegacyHeap::pop(self)
    }
    fn cancel(&mut self, h: u64) {
        self.cancel_unchecked(h);
    }
    fn reschedule(&mut self, h: u64, at: SimTime, e: Payload) -> u64 {
        self.cancel_unchecked(h);
        LegacyHeap::push(self, at, e)
    }
}

/// One synthetic queue workload; returns events processed (for a
/// throughput denominator) and a checksum (so the work cannot be
/// optimized away and both queues can be cross-checked).
fn drive<T: Q>(q: &mut T, shape: &Shape, n_events: u64) -> (u64, u64) {
    let mut checksum = 0u64;
    let mut processed = 0u64;
    // Standing far-future timers, like the one 200 µs retry timeout per
    // in-flight request of the resilience and recovery grids. Model runs
    // without retries keep no such population (at most 38 events pending);
    // with one, hot-path events pay whatever cost it induces, which is
    // what the queue's wheel is for. They only drain at the end (which is
    // inside the timed region, but is `backlog` pops against `n_events` —
    // noise).
    const FAR: u64 = 1 << 40;
    let backlog = match *shape {
        Shape::Chains { backlog, .. }
        | Shape::Handoff { backlog, .. }
        | Shape::Fanout { backlog, .. } => backlog,
        // These shapes manage their own standing populations (they need
        // the push handles).
        Shape::Sparse { .. } | Shape::Timeouts { .. } | Shape::Rearm { .. } => 0,
    };
    for i in 0..backlog {
        q.push(SimTime::from_nanos(FAR + i * 1_000), [i, 1, 0, 0, 0, 0]);
    }
    match *shape {
        Shape::Chains { fanout, .. } => {
            for i in 0..fanout {
                q.push(SimTime::from_nanos(i), [i, 0, 0, 0, 0, i]);
            }
            while processed < n_events {
                let (at, seq, ev) = q.pop().expect("chains never drain");
                checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                // Re-arm the chain a pseudo-random distance ahead, like a
                // service completion scheduling the next arrival.
                let gap = 100 + (ev[0].wrapping_mul(0x9E37_79B9) % 900);
                q.push(at + SimDuration::from_nanos(gap), ev);
                processed += 1;
            }
        }
        Shape::Handoff { chain, .. } => {
            // The schedule_now idiom every model leans on: handling one
            // arrival cascades through dispatcher push -> worker poll ->
            // completion emit at the *same* instant before the next
            // arrival fires. ev[1] counts remaining same-instant hops.
            q.push(SimTime::from_nanos(0), [0, chain, 0, 0, 0, 0]);
            while processed < n_events {
                let (at, seq, mut ev) = q.pop().expect("handoff chain never drains");
                checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                processed += 1;
                if ev[1] > 0 {
                    ev[1] -= 1;
                    q.push(at, ev);
                } else {
                    ev[1] = chain;
                    let gap = 100 + (ev[0].wrapping_mul(0x9E37_79B9) % 900);
                    ev[0] = ev[0].wrapping_add(1);
                    q.push(at + SimDuration::from_nanos(gap), ev);
                }
            }
        }
        Shape::Fanout { width, .. } => {
            // NIC-style dispatch: a frame arrival fans out `width` events
            // at the same instant, which all run before time advances.
            let mut now = 0u64;
            while processed < n_events {
                for i in 0..width {
                    q.push(SimTime::from_nanos(now), [i, now, 0, 0, 0, 0]);
                }
                for _ in 0..width {
                    let (at, seq, ev) = q.pop().expect("burst events present");
                    checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                    processed += 1;
                }
                now += 1_000;
            }
        }
        Shape::Sparse { population } => {
            // A large standing population of far-future timers scattered
            // across microseconds-to-tens-of-milliseconds — retransmit and
            // expiry state. Every pop re-arms far ahead, so the population
            // never shrinks and every operation pays whatever cost the
            // standing state imposes (deep sifts for a heap; O(1) bucket
            // hops for the wheel).
            for i in 0..population {
                let gap = 1_000 + (i.wrapping_mul(0x9E37_79B9) % 50_000_000);
                q.push(SimTime::from_nanos(gap), [i, 0, 0, 0, 0, 0]);
            }
            while processed < n_events {
                let (at, seq, ev) = q.pop().expect("sparse timers never drain");
                checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                let gap = 1_000 + (seq.wrapping_mul(0x9E37_79B9) % 50_000_000);
                q.push(at + SimDuration::from_nanos(gap), ev);
                processed += 1;
            }
        }
        Shape::Timeouts { inflight } => {
            // The RPC-timeout idiom: every request schedules a guard
            // timeout ~10 µs out and completes well before it, cancelling
            // the guard — so ~90% of scheduled guards never fire. 10% of
            // completions go missing and the guard fires instead, keeping
            // both code paths honest. ev[2] tags the kind: 0 completion,
            // 1 timeout guard.
            let mut guards: Vec<Option<T::Handle>> = Vec::with_capacity(inflight as usize);
            for i in 0..inflight {
                let gap = 100 + (i.wrapping_mul(0x9E37_79B9) % 900);
                q.push(SimTime::from_nanos(gap), [i, 0, 0, 0, 0, 0]);
                guards.push(Some(
                    q.push(SimTime::from_nanos(gap + 10_000), [i, 0, 1, 0, 0, 0]),
                ));
            }
            while processed < n_events {
                let (at, seq, ev) = q.pop().expect("timeout traffic never drains");
                checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                processed += 1;
                let id = ev[0] as usize;
                if ev[2] == 0 {
                    // Completion: the guard is still pending (it sits
                    // 10 µs after the completion) — cancel it.
                    if let Some(h) = guards[id].take() {
                        q.cancel(h);
                    }
                } else {
                    // The guard itself fired; it is no longer pending.
                    guards[id] = None;
                }
                let r = seq.wrapping_mul(0x9E37_79B9);
                let gap = 100 + r % 900;
                if r % 10 != 0 {
                    q.push(at + SimDuration::from_nanos(gap), [ev[0], 0, 0, 0, 0, 0]);
                }
                guards[id] = Some(q.push(
                    at + SimDuration::from_nanos(gap + 10_000),
                    [ev[0], 0, 1, 0, 0, 0],
                ));
            }
        }
        Shape::Rearm { chain, backlog } => {
            // Handoff cascades over a standing deadline population whose
            // entries keep being pushed out — the watchdog/lease-renewal
            // idiom: every completed cascade extends one far deadline via
            // reschedule instead of letting it fire.
            let mut deadlines: Vec<T::Handle> = (0..backlog)
                .map(|i| q.push(SimTime::from_nanos(FAR + i * 1_000), [i, 1, 0, 0, 0, 0]))
                .collect();
            let mut extended = 0u64;
            q.push(SimTime::from_nanos(0), [0, chain, 0, 0, 0, 0]);
            while processed < n_events {
                let (at, seq, mut ev) = q.pop().expect("rearm chain never drains");
                checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
                processed += 1;
                if ev[1] > 0 {
                    ev[1] -= 1;
                    q.push(at, ev);
                } else {
                    let i = (extended % backlog) as usize;
                    deadlines[i] = q.reschedule(
                        deadlines[i],
                        SimTime::from_nanos(FAR + (backlog + extended) * 1_000),
                        [i as u64, 1, 0, 0, 0, 0],
                    );
                    extended += 1;
                    ev[1] = chain;
                    let gap = 100 + (ev[0].wrapping_mul(0x9E37_79B9) % 900);
                    ev[0] = ev[0].wrapping_add(1);
                    q.push(at + SimDuration::from_nanos(gap), ev);
                }
            }
        }
    }
    while let Some((at, seq, ev)) = q.pop() {
        checksum = checksum.wrapping_add(at.as_nanos() ^ seq ^ ev[0]);
    }
    (processed, checksum)
}

enum Shape {
    /// `fanout` self-rescheduling chains with scattered future
    /// timestamps over `backlog` standing timers — service-completion /
    /// arrival-process traffic.
    Chains { fanout: u64, backlog: u64 },
    /// Same-instant `schedule_now` cascades of length `chain` per
    /// arrival, over `backlog` standing timers — the dispatcher/worker
    /// handoff idiom.
    Handoff { chain: u64, backlog: u64 },
    /// Same-instant fan-outs of `width` events over `backlog` standing
    /// timers — NIC batch dispatch.
    Fanout { width: u64, backlog: u64 },
    /// A standing population of far-future timers scattered across wheel
    /// levels, each re-armed far ahead on firing — retransmit/expiry
    /// state kept live forever.
    Sparse { population: u64 },
    /// `inflight` concurrent requests, each guarded by a ~10 µs timeout
    /// that the completion cancels ~90% of the time — RPC timeout
    /// traffic.
    Timeouts { inflight: u64 },
    /// Handoff cascades of length `chain` where every completed cascade
    /// reschedules one of `backlog` standing far deadlines — watchdog /
    /// lease renewal.
    Rearm { chain: u64, backlog: u64 },
}

struct EngineRow {
    name: &'static str,
    events: u64,
    fast_eps: f64,
    legacy_eps: f64,
}

fn bench_queues(n_events: u64, handicap: u64) -> Vec<EngineRow> {
    // The bundle builds on the idioms the models in this repository use
    // (see crates/systems): scattered completion/arrival timers at two
    // scales, schedule_now handoff cascades, and NIC fan-out bursts — the
    // latter two over a standing timer population. Every shape keeps 64
    // or more events pending, above the population bound at which the
    // queue engages its timer wheel, so these measure the wheel path;
    // model runs with small frames, which keep at most 38 pending, never
    // take it.
    let shapes: [(&'static str, Shape); 8] = [
        (
            "timer_chain_64",
            Shape::Chains {
                fanout: 64,
                backlog: 0,
            },
        ),
        (
            "timer_chain_1024",
            Shape::Chains {
                fanout: 1024,
                backlog: 0,
            },
        ),
        (
            "handoff_4_over_256",
            Shape::Handoff {
                chain: 4,
                backlog: 256,
            },
        ),
        (
            "handoff_16_over_1024",
            Shape::Handoff {
                chain: 16,
                backlog: 1024,
            },
        ),
        (
            "fanout_32_over_1024",
            Shape::Fanout {
                width: 32,
                backlog: 1024,
            },
        ),
        ("sparse_far_64k", Shape::Sparse { population: 65_536 }),
        ("timeout_cancel_512", Shape::Timeouts { inflight: 512 }),
        (
            "rearm_4_over_1024",
            Shape::Rearm {
                chain: 4,
                backlog: 1024,
            },
        ),
    ];
    shapes
        .iter()
        .map(|(name, shape)| {
            // Interleave repeats of both queues and keep each side's best
            // time: scheduler noise on a shared box only ever slows a run
            // down, so min-of-N converges on the true cost.
            let reps = 3;
            let mut fast_secs = f64::INFINITY;
            let mut legacy_secs = f64::INFINITY;
            let mut fast_sum = 0;
            let mut legacy_sum = 0;
            for _ in 0..reps {
                // The fast path runs `handicap` times inside the timed
                // region while crediting one run — an injectable slowdown
                // that the CI gate must catch (see module docs).
                let t0 = Instant::now();
                for _ in 0..handicap {
                    let mut q = EventQueue::new();
                    let (_, c) = drive(&mut q, shape, n_events);
                    fast_sum = c;
                }
                fast_secs = fast_secs.min(t0.elapsed().as_secs_f64());

                let t0 = Instant::now();
                let mut legacy = LegacyHeap::new();
                let (_, c) = drive(&mut legacy, shape, n_events);
                legacy_sum = c;
                legacy_secs = legacy_secs.min(t0.elapsed().as_secs_f64());
            }

            assert_eq!(
                fast_sum, legacy_sum,
                "{name}: queues disagree on the event stream"
            );
            EngineRow {
                name,
                events: n_events,
                fast_eps: n_events as f64 / fast_secs,
                legacy_eps: n_events as f64 / legacy_secs,
            }
        })
        .collect()
}

/// The full engine loop (queue + dispatch + outbox recycling) on the
/// self-rescheduling chain model, in events/second.
fn bench_engine_loop(n_events: u64) -> f64 {
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
    let fanout = 16u64;
    // Min-of-N, like the queue benches: scheduler noise only slows runs.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut engine = Engine::new(Chains);
        for i in 0..fanout {
            engine.schedule_at(
                SimTime::from_nanos(i),
                ChainEv {
                    gap: SimDuration::from_nanos(100 + i),
                    remaining: (n_events / fanout) as u32,
                },
            );
        }
        engine.run();
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(engine.events_processed() as f64 / secs);
    }
    best
}

struct SweepRow {
    points: usize,
    jobs_n: usize,
    jobs1_ms: f64,
    jobsn_ms: f64,
}

fn bench_sweep(points: usize) -> SweepRow {
    let loads: Vec<f64> = (0..points)
        .map(|i| 100_000.0 + 25_000.0 * i as f64)
        .collect();
    let run_at = |rps: f64| {
        OffloadConfig::paper(4, 4).run(
            bench::bench_spec(rps, ServiceDist::paper_bimodal()),
            ProbeConfig::disabled(),
        )
    };
    let jobs_n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    experiments::sweep::set_jobs(1);
    let t0 = Instant::now();
    let serial = experiments::sweep::par_map(&loads, |&l| run_at(l));
    let jobs1_ms = t0.elapsed().as_secs_f64() * 1e3;

    experiments::sweep::set_jobs(jobs_n);
    let t0 = Instant::now();
    let parallel = experiments::sweep::par_map(&loads, |&l| run_at(l));
    let jobsn_ms = t0.elapsed().as_secs_f64() * 1e3;
    experiments::sweep::set_jobs(0);

    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.p99, b.p99, "parallel sweep must not perturb results");
        assert_eq!(a.completed, b.completed);
    }
    SweepRow {
        points,
        jobs_n,
        jobs1_ms,
        jobsn_ms,
    }
}

fn emit_json(
    smoke: bool,
    engine_rows: &[EngineRow],
    engine_loop_eps: f64,
    sweep: &SweepRow,
) -> String {
    use std::fmt::Write;
    let fast_total: f64 =
        engine_rows.iter().map(|r| r.fast_eps).sum::<f64>() / engine_rows.len() as f64;
    let legacy_total: f64 =
        engine_rows.iter().map(|r| r.legacy_eps).sum::<f64>() / engine_rows.len() as f64;
    // Geometric mean of per-workload speedups: the standard aggregate for
    // a benchmark suite — every workload carries equal weight regardless
    // of its absolute events/sec, and it is machine-independent (both
    // sides of each ratio run in the same process on the same box).
    let geomean: f64 = (engine_rows
        .iter()
        .map(|r| (r.fast_eps / r.legacy_eps).ln())
        .sum::<f64>()
        / engine_rows.len() as f64)
        .exp();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"mindgap-bench-v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"engine\": {{");
    let _ = writeln!(out, "    \"workloads\": [");
    for (i, r) in engine_rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"name\": \"{}\", \"events\": {}, \"fast_events_per_sec\": {:.0}, \"legacy_events_per_sec\": {:.0}, \"speedup\": {:.3}}}",
            r.name,
            r.events,
            r.fast_eps,
            r.legacy_eps,
            r.fast_eps / r.legacy_eps
        );
        out.push_str(if i + 1 < engine_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(
        out,
        "    \"engine_loop_events_per_sec\": {engine_loop_eps:.0},"
    );
    let _ = writeln!(out, "    \"mean_fast_events_per_sec\": {fast_total:.0},");
    let _ = writeln!(
        out,
        "    \"mean_legacy_events_per_sec\": {legacy_total:.0},"
    );
    let _ = writeln!(out, "    \"normalized_throughput\": {geomean:.4}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"sweep\": {{");
    let _ = writeln!(out, "    \"points\": {},", sweep.points);
    let _ = writeln!(out, "    \"jobs_n\": {},", sweep.jobs_n);
    let _ = writeln!(out, "    \"jobs_1_wall_ms\": {:.1},", sweep.jobs1_ms);
    let _ = writeln!(out, "    \"jobs_n_wall_ms\": {:.1},", sweep.jobsn_ms);
    let _ = writeln!(
        out,
        "    \"speedup\": {:.3}",
        sweep.jobs1_ms / sweep.jobsn_ms
    );
    let _ = writeln!(out, "  }}");
    out.push('}');
    out
}

/// Extract every workload's `(name, speedup)` pair from our own JSON
/// dialect, in emission order.
fn workload_speedups(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(p) = rest.find("{\"name\": \"") {
        let row = &rest[p + 10..];
        let Some(name_end) = row.find('"') else { break };
        let Some(row_end) = row.find('}') else { break };
        if let Some(speedup) = json_number(&row[..row_end], "speedup") {
            out.push((row[..name_end].to_string(), speedup));
        }
        rest = &row[row_end..];
    }
    out
}

/// Extract `"key": <number>` from our own JSON dialect — no serializer
/// crate needed for a format this binary both writes and reads.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    let args = experiments::args(
        "",
        &[
            "--smoke",
            "--out <path>",
            "--compare <path>",
            "--tolerance <f>",
            "--floor <f>",
            "--jobs N",
            "--handicap N",
        ],
    );
    let smoke = args.iter().any(|a| a == "--smoke");
    let handicap: u64 = flag_value(&args, "--handicap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let floor: f64 = flag_value(&args, "--floor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);

    let (queue_events, loop_events, sweep_points) = if smoke {
        (400_000, 400_000, 4)
    } else {
        (4_000_000, 4_000_000, 8)
    };

    eprintln!("perf: engine queue microbenchmarks ({queue_events} events/workload)...");
    let engine_rows = bench_queues(queue_events, handicap);
    eprintln!("perf: full engine loop...");
    let engine_loop_eps = bench_engine_loop(loop_events);
    eprintln!("perf: sweep parallelism...");
    let sweep = bench_sweep(sweep_points);

    let json = emit_json(smoke, &engine_rows, engine_loop_eps, &sweep);
    println!("{json}");
    if let Some(path) = flag_value(&args, "--out") {
        std::fs::write(&path, format!("{json}\n")).expect("writing bench JSON");
        eprintln!("perf: wrote {path}");
    }

    if let Some(baseline_path) = flag_value(&args, "--compare") {
        let baseline = std::fs::read_to_string(&baseline_path).expect("reading baseline JSON");
        let mut failed = false;

        // Per-shape floor: the indexed queue must beat the legacy heap on
        // every shape, not just on average — a wheel regression that only
        // hurts timer chains must not hide behind handoff wins.
        for (name, speedup) in workload_speedups(&json) {
            if speedup < floor {
                eprintln!(
                    "perf: FAIL — workload {name} speedup {speedup:.3} is below \
                     the floor {floor:.3}"
                );
                failed = true;
            }
        }

        // Geomean band against the checked-in baseline.
        let base_norm = json_number(&baseline, "normalized_throughput")
            .expect("baseline missing normalized_throughput");
        let cur_norm = json_number(&json, "normalized_throughput").expect("own JSON parses");
        let band = base_norm * (1.0 - tolerance);
        eprintln!(
            "perf: normalized_throughput {cur_norm:.4} vs baseline {base_norm:.4} \
             (band {band:.4}, tolerance {tolerance}, per-shape floor {floor})"
        );
        if cur_norm < band {
            eprintln!(
                "perf: FAIL — engine throughput regressed more than {:.0}% \
                 relative to the in-process legacy-heap calibration",
                tolerance * 100.0
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("perf: PASS");
    }
}
