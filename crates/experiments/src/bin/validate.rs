//! Reproduction self-check: verify every headline claim of the paper at
//! quick scale and print PASS/FAIL per claim. Exits non-zero on any
//! failure — suitable as a CI smoke test for the whole reproduction.

use experiments::outln;
use experiments::sweep::{knee_throughput, peak_throughput};
use experiments::Scale;
use sim_core::SimDuration;

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn main() {
    experiments::sweep::init_jobs_from_args();
    let scale = Scale::Quick;
    let mut checks: Vec<Check> = Vec::new();

    // Figure 2: offload sustains more bimodal load than Shinjuku.
    {
        let f = experiments::figures::fig2(scale);
        let slo = SimDuration::from_micros(500);
        let shin = knee_throughput(&f.curves[0].points, slo);
        let off = knee_throughput(&f.curves[1].points, slo);
        checks.push(Check {
            name: "fig2: Offload (4w) outlasts Shinjuku (3w) on the bimodal mix",
            pass: off > shin,
            detail: format!("knees: shinjuku {shin:.0} vs offload {off:.0} rps"),
        });
    }

    // Figure 3: the queuing optimization raises 4-worker throughput a lot.
    {
        let f = experiments::figures::fig3(scale);
        let w4 = &f.curves[1].points;
        let first = w4.first().unwrap().achieved_rps;
        let peak = peak_throughput(w4);
        checks.push(Check {
            name: "fig3: outstanding cap lifts 4-worker throughput >150%",
            pass: peak > first * 2.5,
            detail: format!(
                "cap1 {first:.0} -> plateau {peak:.0} (+{:.0}%)",
                (peak / first - 1.0) * 100.0
            ),
        });
    }

    // Figure 4: the extra worker wins at 5us.
    {
        let f = experiments::figures::fig4(scale);
        let slo = SimDuration::from_micros(400);
        let shin = knee_throughput(&f.curves[0].points, slo);
        let off = knee_throughput(&f.curves[1].points, slo);
        checks.push(Check {
            name: "fig4: Offload (4w) beats Shinjuku (3w) on fixed 5us",
            pass: off > shin * 1.1,
            detail: format!("knees: {shin:.0} vs {off:.0} rps"),
        });
    }

    // Figure 6: the ARM dispatcher is the bottleneck.
    {
        let f = experiments::figures::fig6(scale);
        let shin = peak_throughput(&f.curves[0].points);
        let off = peak_throughput(&f.curves[1].points);
        checks.push(Check {
            name: "fig6: Shinjuku greatly outperforms Offload on fixed 1us",
            pass: shin > off * 1.8,
            detail: format!("peaks: shinjuku {shin:.0} vs offload {off:.0} rps"),
        });
    }

    // Microbench: the encoded paper numbers.
    {
        let rows = experiments::microbench::run();
        let arm = rows
            .iter()
            .find(|r| r.name.contains("ARM CPU -> host"))
            .unwrap();
        checks.push(Check {
            name: "microbench: ARM->host construct+traverse = 2.56us",
            pass: arm.measured.contains("2.560us"),
            detail: arm.measured.clone(),
        });
    }

    // Feedback gap: staleness costs tail latency.
    {
        let rows = experiments::feedback_gap::run(scale);
        let pass = rows[0].p99 <= rows[2].p99 && rows[2].p99 < rows[4].p99;
        checks.push(Check {
            name: "feedback gap: fresher core feedback -> lower p99",
            pass,
            detail: format!(
                "coherent {} / stingray {} / 50us {}",
                rows[0].p99, rows[2].p99, rows[4].p99
            ),
        });
    }

    let mut failed = 0;
    outln!(
        "mindgap reproduction self-check ({} claims)\n",
        checks.len()
    );
    for c in &checks {
        let status = if c.pass { "PASS" } else { "FAIL" };
        if !c.pass {
            failed += 1;
        }
        outln!("[{status}] {}\n       {}", c.name, c.detail);
    }
    outln!();
    if failed > 0 {
        outln!("{failed} claim(s) FAILED");
        std::process::exit(1);
    }
    outln!("all claims reproduced");
}
