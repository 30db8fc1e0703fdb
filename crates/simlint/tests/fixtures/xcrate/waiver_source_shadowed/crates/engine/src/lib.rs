#![forbid(unsafe_code)]
use gen::pick;
pub fn drive(v: &[u64], m: &std::collections::HashMap<u64, u64>, q: &mut Queue) {
    q.schedule(v.as_ptr() as u64, pick(m));
}
