//! Resilience grid: loss rate × fault type across every assembly.
//!
//! `--smoke` runs the deterministic CI body (one loss+crash point per
//! system, probing on, ledger asserted closed); `--invariants` layers the
//! runtime invariant checker over the smoke run (bit-identical output,
//! panics on any causality/conservation violation); `--json` prints the
//! rows as JSON instead of the aligned table; `--quick` shrinks the grid;
//! `--policy <spec>` swaps the scheduler on every policy-capable assembly
//! (policy spec grammar, e.g. `srpt` or `edf:deadline=50us`).

use experiments::outln;

fn main() {
    experiments::sweep::init_jobs_from_args();
    let args: Vec<String> = std::env::args().collect();
    let as_json = args.iter().any(|a| a == "--json");
    let invariants = args.iter().any(|a| a == "--invariants");
    let policy = experiments::sweep::policy_from_args(&args);
    let rows = if args.iter().any(|a| a == "--smoke") {
        experiments::resilience::smoke_checked(invariants)
    } else {
        let scale = if args.iter().any(|a| a == "--quick") {
            experiments::Scale::Quick
        } else {
            experiments::Scale::Full
        };
        experiments::resilience::run_with(scale, policy)
    };
    if as_json {
        outln!("{}", experiments::resilience::json(&rows));
    } else {
        outln!("{}", experiments::resilience::table(&rows));
        let path = experiments::resilience::write_csv(&rows, &experiments::results_dir())
            .expect("writing resilience CSV");
        outln!("wrote {}", path.display());
    }
}
