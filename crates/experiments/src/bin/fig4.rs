//! Regenerate the paper's Fig4 (see experiments::figures).
fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    let figure = experiments::figures::fig4(experiments::Scale::Full);
    experiments::emit(&figure);
}
