//! Resilience grid: loss rate × fault type across every assembly.
//!
//! `--smoke` runs the deterministic CI body (one loss+crash point per
//! system, probing on, ledger asserted closed); `--invariants` layers the
//! runtime invariant checker over the smoke run (bit-identical output,
//! panics on any causality/conservation violation); `--json` prints the
//! rows as JSON instead of the aligned table; `--quick` shrinks the grid;
//! `--policy <spec>` swaps the scheduler on every policy-capable assembly
//! (policy spec grammar, e.g. `srpt` or `edf:deadline=50us`).

use experiments::{resilience, Scale};

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
        resilience::smoke(has("--invariants"))
    } else {
        let scale = if has("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        };
        resilience::run(scale, policy)
    };
    experiments::emit_grid("resilience", resilience::TITLE, &rows);
}
