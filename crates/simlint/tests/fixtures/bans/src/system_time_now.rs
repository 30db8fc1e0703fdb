// The calendar clock is as much a wall clock as Instant.
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
