//! Regenerate every experiment in the repository: Figures 2-6, the
//! microbenchmark table, the ablations and the baseline comparison.

use experiments::outln;

fn main() {
    experiments::sweep::init_jobs_from_args();
    outln!("=== microbenchmarks ===");
    outln!(
        "{}",
        experiments::microbench::table(&experiments::microbench::run())
    );
    for figure in [
        experiments::figures::fig2(experiments::Scale::Full),
        experiments::figures::fig3(experiments::Scale::Full),
        experiments::figures::fig4(experiments::Scale::Full),
        experiments::figures::fig5(experiments::Scale::Full),
        experiments::figures::fig6(experiments::Scale::Full),
        experiments::ablation::comm_path(experiments::Scale::Full),
        experiments::ablation::preempt_path(experiments::Scale::Full),
        experiments::ablation::ddio(experiments::Scale::Full),
        experiments::ablation::baselines(experiments::Scale::Full),
    ] {
        experiments::emit(&figure);
    }

    outln!("=== extensions ===");
    let gap_rows = experiments::feedback_gap::run(experiments::Scale::Full);
    outln!("{}", experiments::feedback_gap::table(&gap_rows));

    let rows = experiments::extensions::multi_dispatcher(experiments::Scale::Full);
    outln!("{}", experiments::extensions::multi_dispatcher_table(&rows));
    let (fig, active) = experiments::extensions::elastic_rss(experiments::Scale::Full);
    experiments::emit(&fig);
    outln!("mean provisioned cores per load point: {active:?}\n");
    for fig in [
        experiments::extensions::slice_sweep(experiments::Scale::Full),
        experiments::extensions::policies(experiments::Scale::Full),
        experiments::extensions::heavy_tail(experiments::Scale::Full),
        experiments::extensions::dual_socket(experiments::Scale::Full),
        experiments::extensions::jit_pacing(experiments::Scale::Full),
        experiments::extensions::worker_scaling(experiments::Scale::Full),
    ] {
        experiments::emit(&fig);
    }
}
