//! Policy sweep: every shipped scheduling policy crossed
//! with the Fig. 2/3 workloads on every assembly.
//!
//! `--smoke` (alias `--quick`) runs the short deterministic grid CI
//! diffs against `POLICIES_SMOKE.json` and across `--jobs` values;
//! `--json` prints rows as JSON instead of the aligned table (and skips
//! the CSV); `--jobs N` fans independent cells over N threads without
//! perturbing a byte of output; `--invariants` runs every cell under the
//! runtime invariant checker (bit-identical output, panics on a
//! violation).

use experiments::{policies, Scale};

fn main() {
    let args = experiments::args(
        "",
        &["--jobs N", "--smoke", "--quick", "--invariants", "--json"],
    );
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let scale = if has("--smoke") || has("--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let rows = policies::run(scale, has("--invariants"));
    experiments::emit_grid("policies", policies::TITLE, &rows);
}
