#![forbid(unsafe_code)]
use std::collections::HashMap;
pub fn pick(m: &HashMap<u64, u64>) -> Vec<u64> {
    // simlint: allow(determinism-taint, reason=engine sorts before use)
    let order: Vec<u64> = m.keys().copied().collect();
    order
}
