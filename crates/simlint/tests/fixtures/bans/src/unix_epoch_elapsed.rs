// The epoch constant is harmless on its own; the clock read through it
// is the hazard, and it fires.
use std::time::UNIX_EPOCH;

pub fn age_secs() -> u64 {
    UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs())
}
