//! Load-sweep driver: run one system over a range of offered loads, in
//! parallel across load points, preserving per-point determinism.
//!
//! # Parallelism model
//!
//! Every grid point is one independent, seeded simulation — the engine
//! itself is strictly single-threaded (see `sim_core::queue`), so fanning
//! points across host cores cannot perturb results. The pool here is a
//! dependency-free `std::thread::scope` work-stealing loop: an atomic
//! cursor hands out point indices, results land in their input slot, and
//! output order is always input order. The worker count is process-global
//! (every figure function funnels through [`par_map`]), set by the
//! `--jobs N` flag on each experiment binary via [`crate::args`]:
//! `--jobs 1` runs inline on the calling thread — no pool at all — and by
//! construction produces byte-identical output to any other `--jobs`
//! value; the default is the host's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

use systems::ServerSystem;
use workload::{RunMetrics, WorkloadSpec};

use crate::report::Curve;

/// Configured worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the sweep worker count for this process. `0` restores the default
/// (one worker per available core). `1` disables the pool entirely.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective sweep worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    }
}

/// Parse `--jobs N` / `--jobs=N` from `args` and install it via
/// [`set_jobs`]. [`crate::args`] calls this on the arguments it checked,
/// before any sweep runs. Unparsable values are ignored (auto remains in
/// effect) rather than aborting a long sweep over a typo'd flag nobody
/// needs for correctness.
pub(crate) fn init_jobs_from_args(args: &[String]) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = if a == "--jobs" {
            it.next().cloned()
        } else {
            a.strip_prefix("--jobs=").map(str::to_string)
        };
        if let Some(n) = val.and_then(|v| v.parse::<usize>().ok()) {
            set_jobs(n);
        }
    }
}

/// Parse `--policy <spec>` / `--policy=<spec>` from `args` using the
/// policy spec grammar (`srpt`, `edf:deadline=50us`,
/// `wfq:w=4,1,1`, ...). Returns `None` when the flag is absent. Unlike
/// `--jobs`, a malformed spec aborts the process: silently sweeping the
/// default policy when the user asked for another would corrupt results.
pub fn policy_from_args(args: &[String]) -> Option<nicsched::PolicySpec> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = if a == "--policy" {
            it.next().cloned()
        } else {
            a.strip_prefix("--policy=").map(str::to_string)
        };
        if let Some(v) = val {
            match nicsched::PolicySpec::parse(&v) {
                Ok(spec) => found = Some(spec),
                Err(e) => {
                    eprintln!("invalid --policy {v:?}: {e}");
                    eprintln!("known policies: {}", nicsched::PolicySpec::NAMES.join(", "));
                    std::process::exit(2);
                }
            }
        }
    }
    found
}

/// Map `f` over `items` on the sweep pool, returning results in input
/// order. With an effective job count of 1 (or a single item) this runs
/// inline on the calling thread; either way the output is identical,
/// because every item is computed independently.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = jobs().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let results_mx = std::sync::Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                results_mx.lock().unwrap()[i] = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("all points computed"))
        .collect()
}

/// One labelled curve of a [`run_grid`] call: a closure from `(offered
/// load, base spec)` to metrics.
pub struct GridCurve<'a> {
    /// Curve label for tables and CSV.
    pub label: String,
    /// Per-point runner; receives the grid's offered load and the figure's
    /// shared base spec.
    pub run: Box<dyn Fn(f64, WorkloadSpec) -> RunMetrics + Sync + 'a>,
}

impl<'a> GridCurve<'a> {
    /// One assembly, probes off, run at each offered load.
    pub fn system(label: impl Into<String>, sys: impl ServerSystem + Sync + 'a) -> Self {
        GridCurve {
            label: label.into(),
            run: Box::new(move |rps, base: WorkloadSpec| {
                sys.run(base.at(rps), sim_core::ProbeConfig::disabled())
            }),
        }
    }
}

/// Run several labelled curves over one x-grid as a single flattened
/// parallel batch, returning [`Curve`]s in the given order with points in
/// x order. This is the shared body of every figure and ablation grid:
/// the `WorkloadSpec` is constructed once per figure (warmup, windows,
/// distribution, seed) and only the per-point load is derived, and the
/// curves×points matrix saturates the pool even when a single curve has
/// fewer points than workers.
pub fn run_grid(xs: &[f64], base: WorkloadSpec, curves: Vec<GridCurve<'_>>) -> Vec<Curve> {
    let points: Vec<(usize, f64)> = curves
        .iter()
        .enumerate()
        .flat_map(|(c, _)| xs.iter().map(move |&x| (c, x)))
        .collect();
    let mut metrics = par_map(&points, |&(c, x)| (curves[c].run)(x, base)).into_iter();
    curves
        .into_iter()
        .map(|c| Curve {
            label: c.label,
            points: metrics.by_ref().take(xs.len()).collect(),
        })
        .collect()
}

/// Evenly spaced loads from `lo` to `hi` inclusive, `n >= 2` points.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// The highest achieved throughput across a sweep (the "plateau" value
/// plotted by Figure 3 style experiments).
pub fn peak_throughput(results: &[RunMetrics]) -> f64 {
    results.iter().map(|m| m.achieved_rps).fold(0.0, f64::max)
}

/// The knee of a latency-throughput curve: the highest offered load whose
/// p99 stays at or below `slo` and which is not saturated. Returns the
/// achieved throughput at that point, or 0 if every point violates.
pub fn knee_throughput(results: &[RunMetrics], slo: sim_core::SimDuration) -> f64 {
    results
        .iter()
        .filter(|m| m.p99 <= slo && !m.saturated(0.03))
        .map(|m| m.achieved_rps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn fake(offered: f64) -> RunMetrics {
        RunMetrics {
            offered_rps: offered,
            achieved_rps: offered.min(1000.0),
            p50: SimDuration::from_micros(5),
            p99: SimDuration::from_micros(if offered > 800.0 { 500 } else { 20 }),
            p999: SimDuration::from_micros(40),
            p99_short: SimDuration::from_micros(15),
            p99_long: SimDuration::from_micros(40),
            mean: SimDuration::from_micros(8),
            completed: offered as u64,
            dropped: 0,
            preemptions: 0,
            worker_utilization: 0.5,
            stages: None,
            faults: workload::FaultMetrics::default(),
        }
    }

    #[test]
    fn par_map_is_input_ordered_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
        // The global job count races with concurrently running tests by
        // design; every setting must yield the same (ordered) output.
        for jobs in [1, 2, 4, 13, 0] {
            set_jobs(jobs);
            assert_eq!(par_map(&items, |&i| i * 3 + 1), expect, "jobs {jobs}");
        }
        set_jobs(0);
    }

    #[test]
    fn run_grid_matches_per_curve_sweeps() {
        let xs = linspace(100.0, 900.0, 7);
        let base = WorkloadSpec::new(
            0.0,
            workload::ServiceDist::Fixed(SimDuration::from_micros(1)),
        );
        let curve = |label: &str, scale: f64| GridCurve {
            label: label.into(),
            run: Box::new(move |x, _| fake(x * scale)),
        };
        let curves = run_grid(&xs, base, vec![curve("a", 1.0), curve("b", 2.0)]);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].label, "a");
        assert_eq!(curves[1].label, "b");
        for (x, m) in xs.iter().zip(&curves[0].points) {
            assert_eq!(m.offered_rps, *x);
        }
        for (x, m) in xs.iter().zip(&curves[1].points) {
            assert_eq!(m.offered_rps, *x * 2.0);
        }
    }

    #[test]
    fn linspace_endpoints() {
        let xs = linspace(0.0, 100.0, 5);
        assert_eq!(xs, vec![0.0, 25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn peak_and_knee() {
        let results: Vec<RunMetrics> = linspace(100.0, 2000.0, 20).into_iter().map(fake).collect();
        assert_eq!(peak_throughput(&results), 1000.0);
        let knee = knee_throughput(&results, SimDuration::from_micros(100));
        assert!(knee <= 800.0 && knee > 0.0, "knee {knee}");
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn linspace_rejects_degenerate() {
        let _ = linspace(0.0, 1.0, 1);
    }
}
