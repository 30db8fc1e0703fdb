//! Policy sweep: every shipped scheduling policy crossed
//! with the Fig. 2/3 workloads on every assembly.
//!
//! `--smoke` (alias `--quick`) runs the short deterministic grid CI
//! diffs across `--jobs` values; `--json` prints rows as JSON instead of
//! the aligned table (and skips the CSV); `--jobs N` fans independent
//! cells over N threads without perturbing a byte of output.

use experiments::outln;

fn main() {
    experiments::sweep::init_jobs_from_args();
    let args: Vec<String> = std::env::args().collect();
    let as_json = args.iter().any(|a| a == "--json");
    let scale = if args.iter().any(|a| a == "--smoke" || a == "--quick") {
        experiments::Scale::Quick
    } else {
        experiments::Scale::Full
    };
    let rows = experiments::policies::run(scale);
    if as_json {
        outln!("{}", experiments::policies::json(&rows));
    } else {
        outln!("{}", experiments::policies::table(&rows));
        let path = experiments::policies::write_csv(&rows, &experiments::results_dir())
            .expect("writing policies CSV");
        outln!("wrote {}", path.display());
    }
}
