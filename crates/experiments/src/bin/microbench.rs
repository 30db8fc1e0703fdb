//! Reproduce the paper's inline microbenchmark numbers.

use experiments::{microbench, outln, report};

fn main() {
    experiments::args("", &[]);
    outln!("{}", report::table(microbench::TITLE, &microbench::run()));
}
