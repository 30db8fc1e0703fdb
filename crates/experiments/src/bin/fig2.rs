//! Regenerate the paper's Fig2 (see experiments::figures). `--policy
//! <spec>` swaps the scheduler on both assemblies (policy spec grammar).
fn main() {
    let args = experiments::args("", &["--jobs N", "--policy <spec>", "--plot"]);
    let policy = experiments::sweep::policy_from_args(&args);
    experiments::emit(&experiments::figures::fig2(
        experiments::Scale::Full,
        policy,
    ));
}
