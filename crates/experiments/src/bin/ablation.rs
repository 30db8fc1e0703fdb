//! The §5.1/§5.2 ablations: comm path, preemption path, DDIO placement.
//! `--policy <spec>` swaps the offload scheduler (policy spec grammar).
fn main() {
    experiments::sweep::init_jobs_from_args();
    let policy = experiments::sweep::init_policy_from_args();
    for figure in [
        experiments::ablation::comm_path_with(experiments::Scale::Full, policy),
        experiments::ablation::preempt_path_with(experiments::Scale::Full, policy),
        experiments::ablation::ddio_with(experiments::Scale::Full, policy),
    ] {
        experiments::emit(&figure);
    }
}
