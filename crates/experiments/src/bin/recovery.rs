//! Recovery grid: NIC-side orphan re-dispatch vs client-retry-only,
//! suspicion window × fault type × policy on the offload assembly.
//!
//! `--smoke` runs the deterministic CI body (fcfs, crash + stall, one
//! retry-only and one 30µs nic-recovery arm each; asserts ledgers close
//! and nic p99 strictly beats retry-only p99 for both fault types);
//! `--invariants` layers the runtime invariant checker over the smoke run
//! (bit-identical output, panics on violations); `--json` prints rows as
//! JSON instead of the aligned table; `--quick` shrinks the grid;
//! `--policy <spec>` replaces the policy list (registry grammar, e.g.
//! `srpt` or `edf:deadline=50us`).

use experiments::outln;

fn main() {
    experiments::sweep::init_jobs_from_args();
    let args: Vec<String> = std::env::args().collect();
    let as_json = args.iter().any(|a| a == "--json");
    let invariants = args.iter().any(|a| a == "--invariants");
    let policy = experiments::sweep::policy_from_args(&args);
    let rows = if args.iter().any(|a| a == "--smoke") {
        experiments::recovery::smoke_checked(invariants)
    } else {
        let scale = if args.iter().any(|a| a == "--quick") {
            experiments::Scale::Quick
        } else {
            experiments::Scale::Full
        };
        experiments::recovery::run_with(scale, policy)
    };
    if as_json {
        outln!("{}", experiments::recovery::json(&rows));
    } else {
        outln!("{}", experiments::recovery::table(&rows));
        let path = experiments::recovery::write_csv(&rows, &experiments::results_dir())
            .expect("writing recovery CSV");
        outln!("wrote {}", path.display());
    }
}
