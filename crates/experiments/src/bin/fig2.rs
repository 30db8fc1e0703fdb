//! Regenerate the paper's Fig2 (see experiments::figures). `--policy
//! <spec>` swaps the scheduler on both assemblies (policy spec grammar).
fn main() {
    experiments::sweep::init_jobs_from_args();
    let policy = experiments::sweep::init_policy_from_args();
    let figure = experiments::figures::fig2_with(experiments::Scale::Full, policy);
    experiments::emit(&figure);
}
