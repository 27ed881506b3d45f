//! Lightweight statistics for simulation outputs.
//!
//! Experiments report latency distributions, throughput and utilization;
//! these accumulators are allocation-light and deterministic so they can sit
//! on hot simulation paths.

/// A base-2 logarithmic histogram over `u64` values.
///
/// Bucket `i` covers `[2^(i-1), 2^i)` for `i >= 1`; bucket 0 covers the
/// single value 0. Log buckets are the right shape for latency data, which
/// spans many decades in these experiments.
///
/// # Examples
///
/// ```
/// use cim_sim::stats::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [0, 1, 2, 3, 4, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.bucket_count(0), 1); // value 0
/// assert_eq!(h.bucket_count(1), 1); // value 1
/// assert_eq!(h.bucket_count(2), 2); // values 2,3
/// assert_eq!(h.bucket_count(3), 1); // value 4
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Adds one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all recorded values (u128: 2^64 max-values don't overflow).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Number of values that fell in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 64`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0) computed from bucket
    /// boundaries. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket 64 covers values up to u64::MAX; the shift must be
                // done in u128 *including* the -1, otherwise `(1u128 << 64)
                // as u64` truncates to 0 and underflows.
                let bound = if i == 0 { 0 } else { (1u128 << i) - 1 };
                return Some(bound.min(u64::MAX as u128) as u64);
            }
        }
        Some(u64::MAX)
    }

    /// The `q`-quantile (0.0..=1.0) with linear interpolation *within* the
    /// hit bucket, assuming values are uniformly spread across it. Where
    /// [`Log2Histogram::quantile_upper_bound`] always answers with the
    /// bucket's upper boundary (a worst-case bound that overstates p50/p95
    /// by up to 2× at high ranks), this estimate lands inside the bucket:
    /// the error is bounded by one bucket width instead of snapping to a
    /// power of two. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cim_sim::stats::Log2Histogram;
    ///
    /// let mut h = Log2Histogram::new();
    /// for v in 1..=1000u64 {
    ///     h.record(v);
    /// }
    /// // The true median is 500; the interpolated estimate stays within
    /// // the hit bucket [512, 1024) width instead of answering 1023.
    /// let p50 = h.quantile(0.5).unwrap();
    /// assert!((p50 - 500.0).abs() <= 512.0);
    /// assert!(p50 < h.quantile_upper_bound(0.5).unwrap() as f64 + 1.0);
    /// ```
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if i == 0 {
                    // Bucket 0 holds only the value 0.
                    return Some(0.0);
                }
                // Bucket i (i >= 1) covers [2^(i-1), 2^i); bucket 64's upper
                // edge is clamped to just past u64::MAX.
                let lo = (1u128 << (i - 1)) as f64;
                let hi = if i >= 64 {
                    (u64::MAX as f64) + 1.0
                } else {
                    (1u128 << i) as f64
                };
                let frac = (target - seen) as f64 / c as f64;
                return Some(lo + frac * (hi - lo));
            }
            seen += c;
        }
        Some(u64::MAX as f64)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// An exact-percentile collector that stores every sample.
///
/// Use for experiment-sized data (up to a few million points); use
/// [`Log2Histogram`] on unbounded hot paths.
///
/// # Examples
///
/// ```
/// use cim_sim::stats::Samples;
///
/// let mut s = Samples::new();
/// for v in 1..=100u64 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.percentile(50.0), Some(50.0));
/// assert_eq!(s.percentile(99.0), Some(99.0));
/// assert_eq!(s.percentile(100.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN sample");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank method); `None` when empty.
    ///
    /// Costs O(n log n) when any [`record`](Self::record) happened since
    /// the last percentile query (the backing vector is re-sorted); later
    /// queries without intervening records are O(1). When querying several
    /// percentiles after a batch of records, prefer
    /// [`percentiles`](Self::percentiles), which sorts once.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.percentile_sorted(p))
    }

    /// The percentiles at each requested rank, with a single sort.
    ///
    /// Returns one value per entry of `ps`, in the same order, or `None`
    /// when no samples were recorded.
    ///
    /// # Panics
    ///
    /// Panics if any rank is outside `[0, 100]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cim_sim::stats::Samples;
    ///
    /// let mut s = Samples::new();
    /// for v in 1..=100u64 {
    ///     s.record(v as f64);
    /// }
    /// assert_eq!(s.percentiles(&[50.0, 90.0, 99.0]), Some(vec![50.0, 90.0, 99.0]));
    /// ```
    pub fn percentiles(&mut self, ps: &[f64]) -> Option<Vec<f64>> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(ps.iter().map(|&p| self.percentile_sorted(p)).collect())
    }

    /// Nearest-rank lookup; requires `values` sorted and non-empty.
    fn percentile_sorted(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0,100], got {p}"
        );
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        self.values[rank.min(n) - 1]
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let median = h.quantile_upper_bound(0.5).expect("non-empty");
        assert!((511..=1023).contains(&median), "median bound {median}");
        assert_eq!(h.quantile_upper_bound(1.0), Some(1023));
        assert!(Log2Histogram::new().quantile_upper_bound(0.5).is_none());
    }

    #[test]
    fn histogram_interpolated_quantile_stays_inside_the_hit_bucket() {
        let mut h = Log2Histogram::new();
        let mut s = Samples::new();
        for v in 1..=1000u64 {
            h.record(v);
            s.record(v as f64);
        }
        for (q, p) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let est = h.quantile(q).expect("non-empty");
            let exact = s.percentile(p).expect("non-empty");
            let bucket = Log2Histogram::bucket_of(exact as u64);
            let width = if bucket == 0 {
                1.0
            } else {
                (1u128 << (bucket - 1)) as f64
            };
            assert!(
                (est - exact).abs() <= width,
                "q={q}: interpolated {est} vs exact {exact} (bucket width {width})"
            );
            let bound = h.quantile_upper_bound(q).expect("non-empty") as f64;
            assert!(
                est <= bound + 1.0,
                "q={q}: {est} exceeds upper bound {bound}"
            );
        }
        // Edge cases: empty histogram, the zero bucket, the top bucket.
        assert!(Log2Histogram::new().quantile(0.5).is_none());
        let mut z = Log2Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), Some(0.0));
        let mut top = Log2Histogram::new();
        top.record(u64::MAX);
        assert!(top.quantile(1.0).unwrap() >= (1u64 << 63) as f64);
    }

    #[test]
    fn histogram_handles_u64_max() {
        // Regression: bucket 64's upper bound used to be computed as
        // `(1u128 << 64) as u64 - 1`, which truncates to 0 before the
        // subtraction (debug panic / wrong value in release).
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.bucket_count(64), 1);
        assert_eq!(h.quantile_upper_bound(0.5), Some(u64::MAX));
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
        assert_eq!(h.sum(), u64::MAX as u128);
        // Bucket 63 (values 2^62..2^63) is unaffected by the clamp.
        let mut h63 = Log2Histogram::new();
        h63.record(1u64 << 62);
        assert_eq!(h63.quantile_upper_bound(1.0), Some((1u64 << 63) - 1));
    }

    #[test]
    fn samples_percentiles_batch_matches_single() {
        let mut s = Samples::new();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0] {
            s.record(v);
        }
        let batch = s.percentiles(&[0.0, 50.0, 100.0]).unwrap();
        assert_eq!(batch, vec![1.0, 5.0, 9.0]);
        for (i, p) in [0.0, 50.0, 100.0].into_iter().enumerate() {
            assert_eq!(s.percentile(p), Some(batch[i]));
        }
        assert!(Samples::new().percentiles(&[50.0]).is_none());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_count(3), 2);
        assert!((a.mean() - (110.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn samples_percentiles_exact() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(3.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.mean(), 3.0);
        assert!(Samples::new().percentile(50.0).is_none());
    }
}
