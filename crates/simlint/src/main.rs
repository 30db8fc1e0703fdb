//! `cargo run -p simlint` — fail the build on determinism
//! hazards anywhere in the workspace sources.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(simlint::run(&args));
}
