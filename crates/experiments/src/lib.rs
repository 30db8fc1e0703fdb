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
//! * [`recovery`] — NIC-side orphan re-dispatch vs client-retry-only.
//! * [`policies`] — the policy sweep: every shipped scheduling
//!   policy × the Fig. 2/3 workloads × every assembly.
//! * [`sweep`] — load sweeps and the parallel cell runner.
//! * [`report`] — the one renderer: every row type declares its columns
//!   once ([`report::Row`]), and [`report::table`], [`report::csv`] and
//!   [`report::json`] write them.
//!
//! Each figure has a binary (`cargo run --release -p experiments --bin
//! fig2` …) that prints the table and writes `results/<id>.csv`; `--bin
//! all` regenerates everything. Every binary checks its arguments with
//! [`args`] before it runs: `--help` prints its usage line, and an unknown
//! argument exits with status 2.

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

use report::Row;

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
    let path =
        report::write_csv(&figure.rows(), &results_dir(), &figure.id).expect("writing results CSV");
    outln!("wrote {}\n", path.display());
    path
}

/// Print rows' table under `title` and write them to
/// `results/<name>.csv`.
pub fn emit_rows<R: Row>(name: &str, title: &str, rows: &[R]) {
    outln!("{}", report::table(title, rows));
    let path = report::write_csv(rows, &results_dir(), name).expect("writing results CSV");
    outln!("wrote {}\n", path.display());
}

/// The grid binaries' output: with `--json` in the process arguments,
/// the rows as JSON on stdout and no CSV; otherwise [`emit_rows`].
pub fn emit_grid<R: Row>(name: &str, title: &str, rows: &[R]) {
    if std::env::args().any(|a| a == "--json") {
        outln!("{}", report::json(rows));
    } else {
        emit_rows(name, title, rows);
    }
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

/// The process arguments after the program name, checked against what the
/// binary accepts before anything runs. `flags` lists its options; an
/// entry with a placeholder (`"--policy <spec>"`) takes a value, as the
/// next argument or after `=`. `operands` names the positional words the
/// binary takes (`""` for none) for the usage line. `--help` prints that
/// line and exits 0; an unknown argument prints it to stderr and exits 2.
/// A `--jobs N` among accepted flags sets the sweep worker count.
pub fn args(operands: &str, flags: &[&str]) -> Vec<String> {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let verdict = check_args(&args, !operands.is_empty(), flags);
    if verdict == Ok(true) {
        outln!("{}", usage(&program, operands, flags));
        std::process::exit(0);
    }
    if let Err(e) = verdict {
        eprintln!("{e}");
        eprintln!("{}", usage(&program, operands, flags));
        std::process::exit(2);
    }
    sweep::init_jobs_from_args(&args);
    args
}

/// `Ok(true)` when `args` ask for help, `Ok(false)` when they are all
/// accepted, and the first offending argument otherwise.
fn check_args(args: &[String], operands: bool, flags: &[&str]) -> Result<bool, String> {
    let mut words = args.iter();
    while let Some(a) = words.next() {
        if a == "--help" || a == "-h" {
            return Ok(true);
        }
        if operands && !a.starts_with('-') {
            continue;
        }
        let (name, inline) = a
            .split_once('=')
            .map_or((a.as_str(), false), |(n, _)| (n, true));
        match flags.iter().find(|f| f.split(' ').next() == Some(name)) {
            Some(f) if f.contains(' ') => {
                if !inline && words.next().is_none() {
                    return Err(format!("{name} needs a value"));
                }
            }
            Some(_) if !inline => {}
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(false)
}

fn usage(program: &str, operands: &str, flags: &[&str]) -> String {
    let name = std::path::Path::new(program)
        .file_name()
        .map_or(program.into(), |n| n.to_string_lossy());
    let mut line = format!("usage: {name}");
    if !operands.is_empty() {
        line += &format!(" {operands}");
    }
    for flag in flags {
        line += &format!(" [{flag}]");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str, operands: bool) -> Result<bool, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        check_args(&args, operands, &["--jobs N", "--smoke", "--policy <spec>"])
    }

    #[test]
    fn known_flags_and_values_pass() {
        assert_eq!(check("", false), Ok(false));
        assert_eq!(check("--smoke --jobs 2 --policy=srpt", false), Ok(false));
        assert_eq!(
            check("--jobs=4 --policy edf:deadline=50us", false),
            Ok(false)
        );
        assert_eq!(check("rss 4000 --smoke", true), Ok(false));
    }

    #[test]
    fn help_wins_and_unknown_arguments_fail() {
        assert_eq!(check("--smoke --help", false), Ok(true));
        assert_eq!(check("-h", false), Ok(true));
        assert!(check("--bogus", false).is_err());
        assert!(check("--smoke=1", false).is_err());
        assert!(check("rss", false).is_err());
        assert!(
            check("--smoke --jobs", false).is_err(),
            "a value is missing"
        );
    }

    #[test]
    fn usage_lists_operands_then_flags() {
        assert_eq!(
            usage("/x/trace", "[system] [rps]", &["--json", "--policy <spec>"]),
            "usage: trace [system] [rps] [--json] [--policy <spec>]"
        );
    }
}
