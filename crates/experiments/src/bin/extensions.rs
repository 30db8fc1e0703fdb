//! Extension experiments: the feedback-gap isolation, multi-dispatcher
//! scaling, Elastic RSS, slice sweep, policy comparison, heavy tails,
//! dual socket, JIT pacing and worker scaling.

fn main() {
    experiments::args("", &["--jobs N", "--plot"]);
    experiments::extensions::emit_all(experiments::Scale::Full);
}
