//! The §5.1/§5.2 ablations: comm path, preemption path, DDIO placement.
//! `--policy <spec>` swaps the offload scheduler (policy spec grammar).
use experiments::{ablation, Scale};

fn main() {
    experiments::sweep::init_jobs_from_args();
    let args: Vec<String> = std::env::args().collect();
    let policy = experiments::sweep::policy_from_args(&args);
    for figure in [
        ablation::comm_path(Scale::Full, policy),
        ablation::preempt_path(Scale::Full, policy),
        ablation::ddio(Scale::Full, policy),
    ] {
        experiments::emit(&figure);
    }
}
