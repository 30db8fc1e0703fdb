//! # experiments — the paper's evaluation, regenerable
//!
//! One module per experiment class:
//!
//! * [`figures`] — Figures 2–6 exactly as captioned in §4.
//! * [`microbench`] — the paper's inline numbers (§1, §2.2, §3.3, §3.4.4).
//! * [`ablation`] — the §5.1/§5.2 proposals quantified (comm path,
//!   preemption path, DDIO placement) plus the §2.1 baseline comparison.
//! * [`extensions`] — further claims made measurable: multi-dispatcher
//!   scaling (§2.2(3)), Elastic RSS (§5.1(1)), the slice-length trade,
//!   programmable policies (§5.1(4)), heavier-tailed dispersion,
//!   dual-socket DDIO, JIT pacing, worker scaling.
//! * [`feedback_gap`] — the titular isolation experiment: scheduling
//!   quality as a pure function of feedback-path latency.
//! * [`resilience`] — the fault-injection grid: loss rate × fault type
//!   across every assembly, with request-ledger reconciliation.
//! * [`policies`] — the registry sweep: every pluggable scheduling
//!   policy × the Fig. 2/3 workloads × every assembly.
//! * [`sweep`] / [`report`] — the load-sweep driver and table/CSV output.
//!
//! Each figure has a binary (`cargo run --release -p experiments --bin
//! fig2` …) that prints the table and writes `results/<id>.csv`; `--bin
//! all` regenerates everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod extensions;
pub mod feedback_gap;
pub mod figures;
pub mod microbench;
pub mod plot;
pub mod policies;
pub mod recovery;
pub mod report;
pub mod resilience;
pub mod sweep;

pub use figures::Scale;
pub use report::{Curve, Figure};

/// Default output directory for CSV results, relative to the workspace.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Print a figure's table and persist its CSV, returning the CSV path.
/// With `--plot` in the process arguments, also renders an ASCII chart.
pub fn emit(figure: &Figure) -> std::path::PathBuf {
    outln!("{}", figure.table());
    if std::env::args().any(|a| a == "--plot") {
        outln!("{}", plot::ascii(figure, 64, 16));
    }
    let path = figure
        .write_csv(&results_dir())
        .expect("writing results CSV");
    outln!("wrote {}\n", path.display());
    path
}

/// Write `args` and a newline to stdout. When the reader has closed the
/// pipe (`trace | head -1`), the program ends quietly with status 0
/// instead of panicking the way `println!` does; any other write error
/// still panics.
pub fn print_line(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `println!` for the experiment binaries, ending quietly on a closed
/// pipe (see [`print_line`]).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}
