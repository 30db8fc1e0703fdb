//! Regenerate every experiment in the repository: Figures 2-6, the
//! microbenchmark table, the ablations, the baseline comparison and the
//! extensions.

use experiments::{outln, report, Scale};

fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    outln!("=== microbenchmarks ===");
    let rows = experiments::microbench::run();
    outln!("{}", report::table(experiments::microbench::TITLE, &rows));
    experiments::emit(&experiments::figures::fig2(Scale::Full, None));
    let rows = experiments::figures::fig3(Scale::Full, None);
    experiments::emit_rows("fig3", experiments::figures::FIG3_TITLE, &rows);
    for figure in [
        experiments::figures::fig4(Scale::Full),
        experiments::figures::fig5(Scale::Full),
        experiments::figures::fig6(Scale::Full),
        experiments::ablation::comm_path(Scale::Full, None),
        experiments::ablation::preempt_path(Scale::Full, None),
        experiments::ablation::ddio(Scale::Full, None),
        experiments::ablation::baselines(Scale::Full),
    ] {
        experiments::emit(&figure);
    }

    outln!("=== extensions ===");
    experiments::extensions::emit_all(Scale::Full);
}
