// Iteration order of a HashMap flowing into a comparator-driven sort:
// the workspace clippy.toml bans the mentions, and the dataflow pass
// flags the *flow* at the sort call.
use std::collections::HashMap;

pub fn ranked(m: &HashMap<u64, u64>) -> Vec<u64> {
    let live: &HashMap<u64, u64> = m;
    let mut v: Vec<u64> = live.keys().copied().collect();
    v.sort_by(|a, b| a.cmp(b));
    v
}
