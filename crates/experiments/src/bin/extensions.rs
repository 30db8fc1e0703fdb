//! Extension experiments: the feedback-gap isolation, multi-dispatcher
//! scaling, Elastic RSS, slice sweep, policy comparison, heavy tails,
//! dual socket, JIT pacing and worker scaling.

fn main() {
    experiments::sweep::init_jobs_from_args();
    experiments::extensions::emit_all(experiments::Scale::Full);
}
