//! HDR-style log-linear histogram for latency percentiles.
//!
//! Latency distributions in this repository span five orders of magnitude
//! (tens of nanoseconds to milliseconds), and the figures report the 99th
//! percentile, so we need a histogram that is compact, O(1) to update, and
//! has bounded *relative* error. The classic answer is a log-linear layout
//! (as in HdrHistogram): values are bucketed by magnitude, and each
//! magnitude is split into `2^precision` linear sub-buckets, giving a
//! worst-case relative quantile error of `2^-precision`.

/// Log-linear histogram over `u64` values (we use nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// log2 of sub-buckets per magnitude; relative error is 2^-precision.
    precision: u32,
    /// Counts, indexed by [`Histogram::index_of`]. Grown on demand up to
    /// the highest bucket recorded; buckets past the end are zero.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Histogram {
    /// Create a histogram with the given precision (sub-bucket bits).
    ///
    /// `precision = 7` gives ≤0.8% relative error in ~1.2 KiB per magnitude
    /// recorded, plenty for p99 plots. Nothing is allocated until the first
    /// record, and only the magnitudes recorded so far take memory.
    pub fn new(precision: u32) -> Self {
        assert!((1..=14).contains(&precision), "precision out of range");
        Histogram {
            precision,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Default latency histogram: 0.8% relative error.
    pub fn latency() -> Self {
        Histogram::new(7)
    }

    /// Index of the bucket holding `value`.
    fn index_of(&self, value: u64) -> usize {
        let p = self.precision;
        if value < (1 << p) {
            // The first 2^p values are exact.
            value as usize
        } else {
            let magnitude = 63 - value.leading_zeros(); // >= p
            let sub = (value >> (magnitude - p)) - (1 << p); // in [0, 2^p)
            ((magnitude - p + 1) as usize) * (1 << p) + sub as usize
        }
    }

    /// Representative (highest) value of bucket `index` — the upper edge, so
    /// percentile queries never under-report.
    fn value_of(&self, index: usize) -> u64 {
        let p = self.precision;
        let per = 1usize << p;
        let group = index / per;
        let sub = (index % per) as u64;
        if group == 0 {
            sub
        } else {
            let magnitude = group as u32 + p - 1;
            let base = (1u64 << p) + sub;
            let shift = magnitude - p;
            // Upper edge: everything below the next sub-bucket boundary.
            (base << shift) + ((1u64 << shift) - 1)
        }
    }

    /// Add `count` to bucket `idx`. One bounds check, as with a fixed
    /// array: only a miss takes the growth path.
    #[inline]
    fn add(&mut self, idx: usize, count: u64) {
        match self.counts.get_mut(idx) {
            Some(c) => *c += count,
            None => self.grow(idx, count),
        }
    }

    /// Grow `counts` to hold bucket `idx`, which starts at `count`. Out of
    /// line: once a run's highest magnitude is reached this never runs
    /// again.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, idx: usize, count: u64) {
        self.counts.resize(idx, 0);
        self.counts.push(count);
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        self.add(idx, 1);
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Record `count` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = self.index_of(value);
        self.add(idx, count);
        self.total += count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128 * count as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q in [0, 1]`, with relative error ≤ 2^-precision.
    /// Returns `None` when empty.
    ///
    /// `value_at_quantile(0.99)` is the p99 the paper's figures plot.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), nearest-rank definition.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the true extremes, which we track exactly.
                return Some(self.value_of(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience wrappers for the common reporting points.
    pub fn p50(&self) -> Option<u64> {
        self.value_at_quantile(0.50)
    }
    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.value_at_quantile(0.90)
    }
    /// 99th percentile — the paper's "tail latency".
    pub fn p99(&self) -> Option<u64> {
        self.value_at_quantile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.value_at_quantile(0.999)
    }

    /// Merge another histogram recorded with the same precision.
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.precision, other.precision,
            "histogram precision mismatch"
        );
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Reset to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::latency();
        assert!(h.is_empty());
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(127));
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        // With 128 uniform values, the median by nearest rank is value 63.
        assert_eq!(h.p50(), Some(63));
        assert_eq!(h.value_at_quantile(1.0), Some(127));
    }

    #[test]
    fn relative_error_bound_holds() {
        let mut h = Histogram::new(7);
        // Values across many magnitudes.
        let mut x: u64 = 3;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 10_000_000; // up to 10 ms in ns
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank] as f64;
            let est = h.value_at_quantile(q).unwrap() as f64;
            // Upper-edge convention: estimate >= exact, within 2^-7 + slack.
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            if exact > 0.0 {
                assert!(
                    (est - exact) / exact <= 1.0 / 128.0 + 1e-9,
                    "q={q}: est {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::latency();
        for v in [1_000u64, 2_000, 3_000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.mean(), 4_000.0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new(5);
        let mut b = Histogram::new(5);
        for _ in 0..37 {
            a.record(123_456);
        }
        b.record_n(123_456, 37);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.mean(), b.mean());
        b.record_n(99, 0);
        assert_eq!(b.count(), 37, "recording zero occurrences is a no-op");
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut whole = Histogram::new(7);
        let mut a = Histogram::new(7);
        let mut b = Histogram::new(7);
        for i in 0..5_000u64 {
            let v = (i * 7919) % 1_000_000;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p99(), whole.p99());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn merge_rejects_mixed_precision() {
        let mut a = Histogram::new(7);
        let b = Histogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::latency();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.p99(), None);
        h.record(9);
        assert_eq!(h.p99(), Some(9));
    }

    #[test]
    fn quantile_clamps_to_true_extremes() {
        let mut h = Histogram::new(3); // coarse on purpose
        h.record(1_000_003);
        assert_eq!(h.value_at_quantile(0.5), Some(1_000_003));
        assert_eq!(h.value_at_quantile(1.0), Some(1_000_003));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every quantile estimate is >= the exact order statistic and
        /// within the advertised relative error.
        #[test]
        fn quantile_error_bound(mut values in proptest::collection::vec(0u64..u64::MAX / 2, 1..400),
                                qs in proptest::collection::vec(0.0f64..=1.0, 1..8)) {
            let mut h = Histogram::new(7);
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for q in qs {
                let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
                let exact = values[rank];
                let est = h.value_at_quantile(q).unwrap();
                prop_assert!(est >= exact);
                if exact > 0 {
                    let rel = (est - exact) as f64 / exact as f64;
                    prop_assert!(rel <= 1.0 / 128.0 + 1e-9, "rel error {rel}");
                }
            }
        }

        /// Count/min/max/mean bookkeeping is exact regardless of input.
        #[test]
        fn exact_bookkeeping(values in proptest::collection::vec(0u64..1_000_000_000, 1..400)) {
            let mut h = Histogram::latency();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.min(), values.iter().copied().min());
            prop_assert_eq!(h.max(), values.iter().copied().max());
            let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        }

        /// Merging two histograms equals recording the concatenated stream.
        #[test]
        fn merge_is_concat(xs in proptest::collection::vec(0u64..1_000_000, 0..200),
                           ys in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut a = Histogram::new(6);
            let mut b = Histogram::new(6);
            let mut whole = Histogram::new(6);
            for &x in &xs { a.record(x); whole.record(x); }
            for &y in &ys { b.record(y); whole.record(y); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert_eq!(a.p50(), whole.p50());
            prop_assert_eq!(a.p99(), whole.p99());
            prop_assert_eq!(a.min(), whole.min());
            prop_assert_eq!(a.max(), whole.max());
        }
    }
}
