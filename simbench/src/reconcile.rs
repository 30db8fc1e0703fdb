//! The reconciliation: each assembly's operations per request, read from
//! the probe's counters, times each operation's steady-state cost from the
//! layer loops, against the measured end-to-end ns per request.
//!
//! What the layers do not cover stays in the residual: the engine's own
//! event handling (push, pop and dispatch of every event), the model's
//! handlers, ring and stage bookkeeping, and the cache misses a loop in
//! isolation does not pay. On `fig2-bimodal-probed` the residual also
//! holds the probe's own work.

use sim_core::StageReport;

/// How one operation is costed.
pub enum Cost {
    /// `FrameSpec::build` at the workload's body size.
    FrameBuild,
    /// `ParsedFrame::parse` at the workload's body size.
    FrameParse,
    /// The sum of these per-layer metrics.
    Layers(&'static [&'static str]),
}

/// One operation kind of one assembly: the probe counters whose sum
/// counts it, and its cost.
pub struct Op {
    pub name: &'static str,
    pub counters: &'static [&'static str],
    pub cost: Cost,
}

const STEER: Cost = Cost::Layers(&["nic-model.device.steer_ns"]);
const RSS_STEER: Cost = Cost::Layers(&["nic-model.device.steer_ns", "nic-model.rss.steer_ns"]);
const DISPATCH: Cost = Cost::Layers(&["nicsched.dispatcher.cycle_ns.fcfs"]);
const PREEMPT: Cost = Cost::Layers(&["nicsched.dispatcher.preempt_ns.fcfs"]);
/// What the client and the worker do once per request: make it, draw the
/// next arrival, spawn and discard its context, and absorb the response.
const COMPLETION: Cost = Cost::Layers(&[
    "systems.client.request_ns",
    "workload.arrivals.next_gap_ns",
    "cpu-model.context.begin_discard_ns",
    "systems.client.response_ns",
]);

/// Every assembly's operations, with the counters that count them. A
/// frame is counted where it is built and again where it is parsed; an
/// assembly without a dispatcher or a steering NIC has no such row.
pub const TABLE: [(&str, &[Op]); 5] = [
    (
        "shinjuku-offload",
        &[
            Op {
                name: "frames_built",
                // request, Assign, Done/Preempted notification, response
                counters: &["client.sent", "tx.built", "rx.notifs", "worker.completed"],
                cost: Cost::FrameBuild,
            },
            Op {
                name: "frames_parsed",
                // NIC RX, networker, worker, RX core, client
                counters: &[
                    "nic.rx_frames",
                    "networker.parsed",
                    "tx.built",
                    "rx.notifs",
                    "client.responses",
                ],
                cost: Cost::FrameParse,
            },
            Op {
                name: "steers",
                counters: &["nic.rx_frames"],
                cost: STEER,
            },
            Op {
                name: "dispatch_cycles",
                counters: &["qm.enqueue"],
                cost: DISPATCH,
            },
            Op {
                name: "preemptions",
                counters: &["qm.preempt_requeue"],
                cost: PREEMPT,
            },
            Op {
                name: "completions",
                counters: &["client.responses"],
                cost: COMPLETION,
            },
        ],
    ),
    (
        "shinjuku",
        &[
            Op {
                name: "frames_built",
                counters: &["client.sent", "worker.completed"],
                cost: Cost::FrameBuild,
            },
            Op {
                name: "frames_parsed",
                // NIC RX (uncounted by the model: one per request sent),
                // networker, client
                counters: &["client.sent", "networker.parsed", "client.responses"],
                cost: Cost::FrameParse,
            },
            Op {
                name: "steers",
                counters: &["client.sent"],
                cost: STEER,
            },
            Op {
                name: "dispatch_cycles",
                counters: &["disp.enqueue"],
                cost: DISPATCH,
            },
            Op {
                name: "preemptions",
                counters: &["disp.preempt_requeue"],
                cost: PREEMPT,
            },
            Op {
                name: "completions",
                counters: &["client.responses"],
                cost: COMPLETION,
            },
        ],
    ),
    (
        "rss",
        &[
            Op {
                name: "frames_built",
                counters: &["client.sent", "worker.completed"],
                cost: Cost::FrameBuild,
            },
            Op {
                name: "frames_parsed",
                // NIC RX, worker poll (one per request run), client
                counters: &["nic.rx_frames", "worker.completed", "client.responses"],
                cost: Cost::FrameParse,
            },
            Op {
                name: "steers",
                counters: &["nic.rx_frames"],
                cost: RSS_STEER,
            },
            Op {
                name: "completions",
                counters: &["client.responses"],
                cost: COMPLETION,
            },
        ],
    ),
    (
        "rpcvalet",
        &[
            Op {
                name: "frames_built",
                counters: &["client.sent", "worker.completed"],
                cost: Cost::FrameBuild,
            },
            Op {
                name: "frames_parsed",
                counters: &["ni.requests", "client.responses"],
                cost: Cost::FrameParse,
            },
            Op {
                name: "dispatch_cycles",
                counters: &["ni.requests"],
                cost: DISPATCH,
            },
            Op {
                name: "completions",
                counters: &["client.responses"],
                cost: COMPLETION,
            },
        ],
    ),
    (
        "multi-shinjuku",
        &[
            Op {
                name: "frames_built",
                counters: &["client.sent", "worker.completed"],
                cost: Cost::FrameBuild,
            },
            Op {
                name: "frames_parsed",
                counters: &["nic.rx_frames", "networker.parsed", "client.responses"],
                cost: Cost::FrameParse,
            },
            Op {
                name: "steers",
                counters: &["nic.rx_frames"],
                cost: RSS_STEER,
            },
            Op {
                name: "dispatch_cycles",
                counters: &["disp.enqueue"],
                cost: DISPATCH,
            },
            Op {
                name: "preemptions",
                counters: &["disp.preempt_requeue"],
                cost: PREEMPT,
            },
            Op {
                name: "completions",
                counters: &["client.responses"],
                cost: COMPLETION,
            },
        ],
    ),
];

/// Per-assembly metrics the traced pass reports besides the op counts.
pub const SUMMARY: [&str; 4] = [
    "allocs_per_req",
    "attributed_ns_per_req",
    "residual_ns_per_req",
    "probe_overhead",
];

pub fn ops(assembly: &str) -> &'static [Op] {
    TABLE
        .iter()
        .find(|(a, _)| *a == assembly)
        .map(|(_, ops)| *ops)
        .expect("every assembly has a row")
}

/// Each op's count per launched request.
pub fn ops_per_req(assembly: &str, stages: &StageReport, launched: u64) -> Vec<f64> {
    ops(assembly)
        .iter()
        .map(|op| {
            let n: u64 = op.counters.iter().map(|c| stages.counter(c)).sum();
            n as f64 / launched as f64
        })
        .collect()
}

/// Σ ops per request × ns per op.
pub fn attributed_ns(
    assembly: &str,
    per_req: &[f64],
    body_len: u16,
    layer_ns: &[(&str, f64)],
) -> f64 {
    let ns = |name: &str| {
        layer_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("every costed layer is measured")
    };
    let size = if body_len > 64 { "1KiB" } else { "64B" };
    ops(assembly)
        .iter()
        .zip(per_req)
        .map(|(op, n)| {
            let cost = match op.cost {
                Cost::FrameBuild => ns(&format!("net-wire.frame.build_{size}_ns")),
                Cost::FrameParse => ns(&format!("net-wire.frame.parse_{size}_ns")),
                Cost::Layers(layers) => layers.iter().map(|l| ns(l)).sum(),
            };
            n * cost
        })
        .sum()
}
