//! End-to-end host time: `ServerSystem::run` of each assembly, timed from
//! outside, divided by the requests it launched.
//!
//! Reps run rep-outermost over the assemblies, so a slow phase of the host
//! lands on every assembly instead of on one.

use std::hint::black_box;
use std::time::Instant;

use sim_core::{ProbeConfig, SimDuration};
use systems::{ServerSystem, SystemConfig};
use workload::{RunMetrics, WorkloadSpec};

use crate::calib::{self, HostSpeed};
use crate::check::{fingerprint, Checker};
use crate::workloads::{Workload, ASSEMBLIES};
use crate::{heap, layers, reconcile, Metric};

/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Zero-horizon runs per assembly and round behind `setup_s`.
const SETUP_REPS: usize = 8;

/// One run: host seconds and the model's outputs.
fn run(sys: &SystemConfig, spec: WorkloadSpec, probe: ProbeConfig) -> (f64, RunMetrics) {
    let t0 = Instant::now();
    let m = sys.run(spec, probe);
    (t0.elapsed().as_secs_f64(), m)
}

/// Rounds of one timed run per entry of `runs`, until `seconds` have
/// passed. Returns each entry's samples in ns per launched request; every
/// rep's outputs must match the entry's `reference` fingerprint.
fn rounds(
    runs: &[(SystemConfig, ProbeConfig, u64)],
    spec: WorkloadSpec,
    seconds: f64,
    chk: &mut Checker,
    mut each_round: impl FnMut(),
) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::new(); runs.len()];
    let start = Instant::now();
    while samples[0].len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        each_round();
        for ((sys, probe, reference), out) in runs.iter().zip(&mut samples) {
            let (secs, m) = run(sys, spec, *probe);
            let fp = fingerprint(&m);
            chk.check(fp == *reference, || {
                format!(
                    "{}: a rep's outputs differ from the first run's",
                    sys.name()
                )
            });
            out.push(secs * 1e9 / m.faults.launched as f64);
        }
    }
    samples
}

/// The reported ns per request of a set of reps: the fastest. Each rep
/// already averages ~100k simulated requests, and noise on a shared host
/// only ever slows a rep down, for seconds at a time; the fastest of the
/// reps repeats across runs within a few percent where their median
/// moves with the share of reps a slow phase covered (README.md).
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Every rep of `name` on stderr, for anyone who wants other quantiles.
fn describe(name: &str, samples: &[f64]) {
    eprintln!(
        "simbench: {name}: {} reps, host ns/req min {:.1} median {:.1}; samples {:?}",
        samples.len(),
        fastest(samples),
        median(samples),
        samples.iter().map(|v| v.round()).collect::<Vec<_>>()
    );
}

/// Log the calibration and return the factor from host to reference time.
fn report_host(host: &HostSpeed) -> f64 {
    eprintln!(
        "simbench: calibration kernel {:.2} ns/op here, {} on the reference host: times scale by {:.4}",
        host.kernel_ns(),
        calib::REFERENCE_NS,
        host.factor()
    );
    host.factor()
}

/// Model construction: zero-horizon runs (rings, slabs, policy build,
/// client) of every assembly, [`SETUP_REPS`] of each per call.
struct Setup {
    spec: WorkloadSpec,
    probe: ProbeConfig,
    systems: [SystemConfig; 5],
    times: Vec<Vec<f64>>,
}

impl Setup {
    fn new(w: &Workload, seed: u64) -> Setup {
        let mut spec = w.spec(seed);
        spec.warmup = SimDuration::ZERO;
        spec.measure = SimDuration::from_nanos(1);
        Setup {
            spec,
            probe: w.probe(),
            systems: w.assemblies(),
            times: vec![Vec::new(); 5],
        }
    }

    fn measure(&mut self) {
        for _ in 0..SETUP_REPS {
            for (sys, out) in self.systems.iter().zip(&mut self.times) {
                let (secs, m) = run(sys, self.spec, self.probe);
                black_box(m);
                out.push(secs);
            }
        }
    }

    /// The sum over the assemblies of each one's median.
    fn seconds(&self) -> f64 {
        self.times.iter().map(|t| median(t)).sum()
    }
}

/// The end-to-end metrics of workload `w`: ns per request of every
/// assembly, set-up time, and peak heap.
pub fn timed(w: &Workload, seed: u64, seconds: f64, chk: &mut Checker) -> Vec<Metric> {
    let spec = w.spec(seed);
    let mut setup = Setup::new(w, seed);
    // An untimed warm-up run per assembly gives each one's reference
    // outputs, checked against the golden table, and its heap peak.
    let mut runs = Vec::new();
    let mut peak = 0;
    for sys in w.assemblies() {
        let base = heap::reset_peak();
        let (_, m) = run(&sys, spec, w.probe());
        peak = peak.max(heap::peak() - base);
        chk.run(seed, w.name, sys.name(), &m);
        runs.push((sys, w.probe(), fingerprint(&m)));
    }
    let mut host = HostSpeed::new();
    let samples = rounds(&runs, spec, seconds, chk, || {
        setup.measure();
        host.sample();
    });
    let scale = report_host(&host);
    let mut out: Vec<Metric> = ASSEMBLIES
        .iter()
        .zip(&samples)
        .map(|(a, s)| {
            describe(a, s);
            Metric::new(format!("{a}.ns_per_req"), fastest(s) * scale, "ns")
        })
        .collect();
    out.push(Metric::new("setup_s".into(), setup.seconds() * scale, "s"));
    out.push(Metric::new(
        "peak_heap_mib".into(),
        peak as f64 / (1 << 20) as f64,
        "MiB",
    ));
    out
}

/// The per-layer metrics of workload `w`: every layer's ns per op, then
/// per assembly its ops per request (from a probed twin of each run), its
/// allocations per request, and the reconciliation of Σ ops × ns/op
/// against the end-to-end ns per request timed here.
pub fn traced(w: &Workload, seed: u64, seconds: f64, chk: &mut Checker) -> Vec<Metric> {
    let start = Instant::now();
    let layer_ns = layers::measure(chk);

    let spec = w.spec(seed);
    let mut runs = Vec::new();
    let mut per_assembly = Vec::new();
    for sys in w.assemblies() {
        let allocs = heap::allocations();
        let (_, plain) = run(&sys, spec, ProbeConfig::disabled());
        let allocs = heap::allocations() - allocs;
        chk.run(seed, w.name, sys.name(), &plain);
        let (_, probed) = run(&sys, spec, ProbeConfig::enabled());
        let fp = fingerprint(&plain);
        chk.check(fingerprint(&probed) == fp, || {
            format!(
                "{}: the probed run's outputs differ from the unprobed twin's",
                sys.name()
            )
        });
        let launched = plain.faults.launched;
        let stages = probed.stages.expect("a probed run reports stages");
        per_assembly.push((
            reconcile::ops_per_req(sys.name(), &stages, launched),
            allocs as f64 / launched as f64,
        ));
        runs.push((sys, ProbeConfig::disabled(), fp));
        runs.push((sys, ProbeConfig::enabled(), fp));
    }

    let remaining = seconds - start.elapsed().as_secs_f64();
    let mut host = HostSpeed::new();
    let samples = rounds(&runs, spec, remaining, chk, || host.sample());
    let scale = report_host(&host);
    let mut out: Vec<Metric> = layer_ns
        .iter()
        .map(|(name, ns)| Metric::new((*name).to_string(), ns * scale, "ns"))
        .collect();
    for (i, (a, (ops, allocs))) in ASSEMBLIES.iter().zip(per_assembly).enumerate() {
        describe(a, &samples[2 * i]);
        describe(&format!("{a} probed"), &samples[2 * i + 1]);
        let plain = fastest(&samples[2 * i]);
        let probed = fastest(&samples[2 * i + 1]);
        let e2e = if w.probed { probed } else { plain };
        let attributed = reconcile::attributed_ns(a, &ops, w.body_len, &layer_ns);
        for (op, n) in reconcile::ops(a).iter().zip(&ops) {
            out.push(Metric::new(
                format!("{a}.ops_per_req.{}", op.name),
                *n,
                "1/req",
            ));
        }
        let summary = [
            (allocs, "1/req"),
            (attributed * scale, "ns"),
            ((e2e - attributed) * scale, "ns"),
            (probed / plain, "ratio"),
        ];
        for (name, (value, unit)) in reconcile::SUMMARY.iter().zip(summary) {
            out.push(Metric::new(format!("{a}.{name}"), value, unit));
        }
        eprintln!(
            "simbench: {a}: e2e {e2e:.1} host ns/req = attributed {attributed:.1} + residual {:.1} \
             ({:.0}% attributed); probe on/off {:.3}",
            e2e - attributed,
            100.0 * attributed / e2e,
            probed / plain
        );
    }
    out
}
