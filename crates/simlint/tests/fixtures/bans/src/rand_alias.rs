// Renaming the crate does not make its entropy seeded.
use entropy::rngs::OsRng;
use entropy::SeedableRng;
use rand as entropy;

pub struct Seeded;

impl SeedableRng for Seeded {
    fn from_entropy() -> Self {
        Seeded
    }
}

pub fn draws() -> u64 {
    let _os = OsRng;
    let _seeded = Seeded::from_entropy();
    entropy::thread_rng() ^ entropy::random()
}
