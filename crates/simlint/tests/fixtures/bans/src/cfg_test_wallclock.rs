// The wall-clock ban holds in #[cfg(test)]-gated code too: a test that
// times itself is flaky on a loaded machine. `--all-targets` compiles
// the test module, so these reads fire.
pub fn model_step(x: u64) -> u64 {
    x + 1
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn step_is_fast_enough() {
        let t0 = Instant::now();
        assert_eq!(super::model_step(1), 2);
        let _elapsed = t0.elapsed();
    }
}
