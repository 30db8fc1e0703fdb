// A hash map's default hasher is seeded per process: naming it is
// enough to make two identical runs differ.
use std::collections::hash_map::RandomState;

pub fn hasher() -> RandomState {
    RandomState::new()
}
