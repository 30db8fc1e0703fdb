// A bare `as` cast between nanosecond counts and floats rounds silently;
// outside the crate's declared `time_boundary` file it is a finding.
pub fn mean_ns(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n as f64
}

pub fn scaled(d: SimDuration, k: f64) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos() as f64 * k as u64)
}
