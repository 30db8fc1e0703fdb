//! The §2.1/§2.2 baseline comparison on the dispersion workload.
fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    let figure = experiments::ablation::baselines(experiments::Scale::Full);
    experiments::emit(&figure);
}
