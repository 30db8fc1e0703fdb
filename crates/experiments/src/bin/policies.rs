//! Policy sweep: every shipped scheduling policy crossed
//! with the Fig. 2/3 workloads on every assembly.
//!
//! `--smoke` (alias `--quick`) runs the short deterministic grid CI
//! diffs against `POLICIES_SMOKE.json` and across `--jobs` values;
//! `--json` prints rows as JSON instead of the aligned table (and skips
//! the CSV); `--jobs N` fans independent cells over N threads without
//! perturbing a byte of output.

use experiments::{policies, Scale};

fn main() {
    let args = experiments::args("", &["--jobs N", "--smoke", "--quick", "--json"]);
    let scale = if args.iter().any(|a| a == "--smoke" || a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    experiments::emit_grid("policies", policies::TITLE, &policies::run(scale));
}
