//! The §5.1/§5.2 ablations: comm path, preemption path, DDIO placement.
//! `--policy <spec>` swaps the offload scheduler (policy spec grammar).
use experiments::{ablation, Scale};

fn main() {
    let args = experiments::args("", &["--jobs N", "--policy <spec>", "--plot"]);
    let policy = experiments::sweep::policy_from_args(&args);
    for figure in [
        ablation::comm_path(Scale::Full, policy),
        ablation::preempt_path(Scale::Full, policy),
        ablation::ddio(Scale::Full, policy),
    ] {
        experiments::emit(&figure);
    }
}
