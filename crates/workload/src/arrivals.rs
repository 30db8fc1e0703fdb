//! Arrival processes for open-loop load generation.
//!
//! The paper drives both systems with "an open loop load generator similar
//! to mutilate that transmits requests over UDP" (§4). Open-loop means
//! arrivals do not wait for responses — exactly what makes overload visible
//! as unbounded queueing. Poisson arrivals are the standard model.

use sim_core::{Rng, SimDuration};

/// An arrival process generating inter-arrival gaps.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_rps` requests/second (exponential gaps).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
}

/// Stateful gap generator for one client.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Rng,
}

impl ArrivalGen {
    /// Create a generator over `process` drawing from `rng`.
    pub fn new(process: ArrivalProcess, rng: Rng) -> ArrivalGen {
        ArrivalGen { process, rng }
    }

    /// The gap until the next arrival.
    pub fn next_gap(&mut self) -> SimDuration {
        match self.process {
            ArrivalProcess::Poisson { rate_rps } => {
                SimDuration::from_secs_f64(self.rng.exponential(1.0 / rate_rps))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_rate(process: ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut gen = ArrivalGen::new(process, Rng::new(seed));
        let total: f64 = (0..n).map(|_| gen.next_gap().as_secs_f64()).sum();
        n as f64 / total
    }

    #[test]
    fn poisson_rate_converges() {
        let r = empirical_rate(
            ArrivalProcess::Poisson {
                rate_rps: 500_000.0,
            },
            200_000,
            1,
        );
        assert!((r - 500_000.0).abs() < 10_000.0, "rate {r}");
    }

    #[test]
    fn poisson_gaps_have_cv_one() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 1e6 }, Rng::new(4));
        let gaps: Vec<f64> = (0..100_000).map(|_| gen.next_gap().as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.02, "coefficient of variation {cv}");
    }

    #[test]
    fn determinism_per_seed() {
        let p = ArrivalProcess::Poisson { rate_rps: 1e6 };
        let mut a = ArrivalGen::new(p, Rng::new(9));
        let mut b = ArrivalGen::new(p, Rng::new(9));
        for _ in 0..1000 {
            assert_eq!(a.next_gap(), b.next_gap());
        }
    }
}
