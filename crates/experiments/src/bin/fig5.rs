//! Regenerate the paper's Fig5 (see experiments::figures).
fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    let figure = experiments::figures::fig5(experiments::Scale::Full);
    experiments::emit(&figure);
}
