//! Regenerate the paper's Fig6 (see experiments::figures).
fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    let figure = experiments::figures::fig6(experiments::Scale::Full);
    experiments::emit(&figure);
}
