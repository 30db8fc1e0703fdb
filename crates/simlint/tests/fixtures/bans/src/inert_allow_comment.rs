// A waiver-shaped comment is only a comment: no source comment can
// silence a finding, so both hash containers below still fire. Only a
// scoped `#[allow(clippy::disallowed_types)]` lifts the ban.
// simlint: allow(unordered, reason=membership tests only)
use std::collections::HashMap;

// simlint: allow-block(unordered, lines=3, reason=built once, never iterated)
pub fn seen() -> std::collections::HashSet<u8> {
    std::collections::HashSet::new()
}

pub fn table() -> HashMap<u8, u8> {
    HashMap::new()
}
