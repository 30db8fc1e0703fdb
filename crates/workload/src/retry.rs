//! Client-side reliability policy.
//!
//! Open-loop load generators in the paper's methodology fire and forget;
//! under fault injection that silently flatters the tail — a dropped
//! request simply never appears in the latency histogram. [`RetryPolicy`]
//! gives the client mutilate-style reliability: a per-request timeout,
//! bounded exponential backoff between attempts, and a hard attempt cap so
//! a dead server cannot pin the client forever. Duplicate-response
//! suppression lives with the client state (`systems::common`); this
//! module is the pure policy: *when* to give up and *how long* to wait.

use sim_core::SimDuration;

/// Timeout/retry policy for one client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Timeout for the first attempt.
    pub timeout: SimDuration,
    /// Multiplier applied to the timeout on every retry (`>= 1.0`).
    pub backoff: f64,
    /// Upper bound the backed-off timeout never exceeds.
    pub max_timeout: SimDuration,
    /// Total attempts including the first (`>= 1`). After the last
    /// attempt's timeout fires the request is abandoned.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Defaults matched to the simulated testbed: the end-to-end sojourn
    /// under healthy load is tens of microseconds, so a 200 µs first
    /// timeout retransmits only genuinely lost work, doubling up to a 2 ms
    /// cap over at most 4 attempts.
    pub fn paper_default() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_micros(200),
            backoff: 2.0,
            max_timeout: SimDuration::from_millis(2),
            max_attempts: 4,
        }
    }

    /// Timeout armed for `attempt` (1-based): `timeout · backoff^(n-1)`,
    /// clamped to [`max_timeout`](RetryPolicy::max_timeout).
    ///
    /// # Panics
    /// Panics if `attempt == 0` — attempts are 1-based.
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "attempts are 1-based");
        let mut t = self.timeout;
        for _ in 1..attempt {
            t = t.mul_f64(self.backoff);
            if t >= self.max_timeout {
                return self.max_timeout;
            }
        }
        t.min(self.max_timeout)
    }

    /// Whether a request on `attempt` (1-based) may be retransmitted once
    /// more after a timeout.
    pub fn may_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            timeout: SimDuration::from_micros(100),
            backoff: 2.0,
            max_timeout: SimDuration::from_micros(350),
            max_attempts: 8,
        };
        assert_eq!(p.timeout_for(1), SimDuration::from_micros(100));
        assert_eq!(p.timeout_for(2), SimDuration::from_micros(200));
        assert_eq!(p.timeout_for(3), SimDuration::from_micros(350));
        assert_eq!(p.timeout_for(7), SimDuration::from_micros(350));
    }

    #[test]
    fn attempt_budget() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::paper_default()
        };
        assert!(p.may_retry(1));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_is_a_bug() {
        RetryPolicy::paper_default().timeout_for(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The backed-off timeout is monotone in the attempt number and
        /// never exceeds the configured cap (an ISSUE-2 acceptance
        /// property).
        #[test]
        fn backoff_never_exceeds_cap(
            base_us in 1u64..1_000,
            backoff in 1.0f64..4.0,
            cap_us in 1u64..100_000,
            attempt in 1u32..64,
        ) {
            let p = RetryPolicy {
                timeout: SimDuration::from_micros(base_us),
                backoff,
                max_timeout: SimDuration::from_micros(cap_us),
                max_attempts: 64,
            };
            let t = p.timeout_for(attempt);
            prop_assert!(t <= p.max_timeout, "timeout {t} above cap");
            if attempt > 1 {
                prop_assert!(t >= p.timeout_for(attempt - 1).min(p.max_timeout));
            }
        }
    }
}
