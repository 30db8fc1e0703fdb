//! Extension experiments: multi-dispatcher scaling, Elastic RSS, slice
//! sweep, policy comparison, heavy tails.

use experiments::outln;

fn main() {
    experiments::sweep::init_jobs_from_args();
    let scale = experiments::Scale::Full;
    let gap_rows = experiments::feedback_gap::run(scale);
    outln!("{}", experiments::feedback_gap::table(&gap_rows));

    let rows = experiments::extensions::multi_dispatcher(scale);
    outln!("{}", experiments::extensions::multi_dispatcher_table(&rows));

    let (fig, active) = experiments::extensions::elastic_rss(scale);
    experiments::emit(&fig);
    outln!("mean provisioned cores per load point: {active:?}\n");

    for fig in [
        experiments::extensions::slice_sweep(scale),
        experiments::extensions::policies(scale),
        experiments::extensions::heavy_tail(scale),
        experiments::extensions::dual_socket(scale),
        experiments::extensions::jit_pacing(scale),
        experiments::extensions::worker_scaling(scale),
    ] {
        experiments::emit(&fig);
    }
}
