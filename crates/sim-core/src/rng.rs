//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator draws from a [`Rng`] that is
//! seeded explicitly, so a simulation run is a pure function of its
//! configuration. The generator is SplitMix64 — tiny, fast, passes BigCrush
//! for our purposes, and trivially *splittable*: [`Rng::fork`] derives an
//! independent stream, which lets each client / core / distribution own its
//! own stream without cross-contamination when components are added or
//! reordered.

/// A 64-bit SplitMix64 generator.
///
/// Not cryptographically secure; used only for workload synthesis.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Two generators with the same seed
    /// produce identical streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point of a raw 0 seed producing a weak
        // early sequence by pre-advancing once.
        let mut rng = Rng { state: seed };
        let _ = rng.next_u64();
        rng
    }

    /// Derive an independent child stream. The parent advances, so repeated
    /// forks yield distinct children.
    pub fn fork(&mut self) -> Rng {
        // The golden-gamma constant keeps child streams decorrelated.
        Rng::new(self.next_u64() ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe as input to `ln()`.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Lemire's multiply-shift with rejection for exact uniformity.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Sample an exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        -mean * self.next_f64_open().ln()
    }

    /// Sample a standard normal via Box–Muller (one value per call; the
    /// second root is discarded to keep the generator stateless beyond
    /// `state`).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.next_f64_open();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let mut parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // A second fork from the same parent is a different stream.
        let mut c3 = parent1.fork();
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!(
            (est - mean).abs() < 0.05 * mean,
            "estimated mean {est} too far from {mean}"
        );
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = Rng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn chance_rate() {
        let mut rng = Rng::new(17);
        let hits = (0..100_000).filter(|_| rng.chance(0.005)).count();
        // 500 expected; allow generous slack.
        assert!((300..=700).contains(&hits), "hits {hits}");
    }
}
