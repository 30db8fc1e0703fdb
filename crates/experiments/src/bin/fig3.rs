//! Regenerate the paper's Fig3 (see experiments::figures). `--policy
//! <spec>` swaps the offload scheduler (policy spec grammar).
fn main() {
    let args = experiments::args("", &["--jobs N", "--policy <spec>"]);
    let policy = experiments::sweep::policy_from_args(&args);
    let rows = experiments::figures::fig3(experiments::Scale::Full, policy);
    experiments::emit_rows("fig3", experiments::figures::FIG3_TITLE, &rows);
}
