//! Recovery grid: NIC-side orphan re-dispatch vs client-retry-only,
//! suspicion window × fault type × policy on the offload assembly.
//!
//! `--smoke` runs the deterministic CI body (fcfs, crash + stall, one
//! retry-only and one 30µs nic-recovery arm each; asserts ledgers close
//! and nic p99 strictly beats retry-only p99 for both fault types);
//! `--invariants` layers the runtime invariant checker over the smoke run
//! (bit-identical output, panics on violations); `--json` prints rows as
//! JSON instead of the aligned table; `--quick` shrinks the grid;
//! `--policy <spec>` replaces the policy list (policy spec grammar, e.g.
//! `srpt` or `edf:deadline=50us`).

use experiments::{recovery, Scale};

fn main() {
    let args = experiments::args(
        "",
        &[
            "--jobs N",
            "--smoke",
            "--quick",
            "--invariants",
            "--json",
            "--policy <spec>",
        ],
    );
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let policy = experiments::sweep::policy_from_args(&args);
    let rows = if has("--smoke") {
        recovery::smoke(has("--invariants"))
    } else {
        let scale = if has("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        };
        recovery::run(scale, policy)
    };
    experiments::emit_grid("recovery", recovery::TITLE, &rows);
}
