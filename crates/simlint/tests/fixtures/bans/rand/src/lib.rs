//! Stand-in for the `rand` crate: just the ambient-entropy names the ban list covers.
pub fn thread_rng() -> u64 { 0 }
pub fn random() -> u64 { 0 }
pub mod rngs { pub struct OsRng; }
pub trait SeedableRng: Sized { fn from_entropy() -> Self; }
