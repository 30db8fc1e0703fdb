//! Reproduce the paper's inline microbenchmark numbers.

use experiments::outln;

fn main() {
    let rows = experiments::microbench::run();
    outln!("{}", experiments::microbench::table(&rows));
}
