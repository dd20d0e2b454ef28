//! Mergeable latency sketches for bounded-memory longitudinal campaigns.
//!
//! A multi-month campaign produces millions of response times — far too
//! many to hold as samples. [`LatencySketch`] keeps a fixed-size summary
//! per aggregation cell: running moments (Welford, via
//! [`RunningMoments`]) plus log-spaced bucket counts for quantile
//! estimates. Sketches merge losslessly for the counts and with the
//! standard pairwise-moments identity for mean/variance, so per-shard
//! sketches folded in a canonical order reproduce the one-shot
//! computation bit-for-bit (the campaign engine's resume invariant; see
//! `DESIGN.md` §9).

use crate::streaming::RunningMoments;

/// Log-spaced bucket upper bounds in milliseconds for [`LatencySketch`].
/// A final implicit +inf bucket catches everything above the last bound.
/// The range spans sub-millisecond cache hits to the multi-second
/// timeouts of the paper's failure tail.
pub const SKETCH_BUCKETS_MS: [f64; 24] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 125.0, 250.0, 500.0, 1_000.0, 1_500.0,
    2_000.0, 3_000.0, 4_000.0, 6_000.0, 8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0, 48_000.0,
];

/// Number of bucket slots a [`LatencySketch`] carries (bounds + overflow).
pub const SKETCH_BUCKET_COUNT: usize = SKETCH_BUCKETS_MS.len() + 1;

/// Counts over a table of bucket upper bounds: the bucket core of both
/// latency histograms, [`LatencySketch`] and `obs::Histogram`. `N` is one
/// more than the table's length: slot `i` counts the observations in
/// `(bounds[i - 1], bounds[i]]`, the last slot the +inf overflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Buckets<const N: usize>(pub [u64; N]);

impl<const N: usize> Default for Buckets<N> {
    fn default() -> Self {
        Buckets([0; N])
    }
}

impl<const N: usize> Buckets<N> {
    /// Observations counted.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Counts `x` in the first bucket whose bound is at least `x`.
    pub fn observe(&mut self, bounds: &[f64], x: f64) {
        debug_assert_eq!(bounds.len() + 1, N);
        let slot = bounds.iter().position(|&b| x <= b).unwrap_or(bounds.len());
        self.0[slot] += 1;
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The `q`-quantile by linear interpolation inside the bucket that
    /// holds rank `q × total`, from the bound below it (0 below the first)
    /// to its own, or to `overflow` in the overflow bucket. `None` when
    /// empty.
    pub fn quantile(&self, bounds: &[f64], q: f64, overflow: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
                let hi = bounds.get(i).copied().unwrap_or(overflow);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            seen += c;
        }
        Some(overflow)
    }
}

/// A fixed-size, mergeable latency summary: running moments plus
/// log-bucket counts. O(1) memory per cell regardless of sample count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySketch {
    moments: RunningMoments,
    buckets: Buckets<SKETCH_BUCKET_COUNT>,
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch::default()
    }

    /// Reconstructs a sketch from previously exported parts (checkpoint
    /// decode). The inverse of [`moments`](Self::moments) +
    /// [`bucket_counts`](Self::bucket_counts).
    pub fn from_parts(
        moments: RunningMoments,
        counts: [u64; SKETCH_BUCKET_COUNT],
    ) -> LatencySketch {
        let buckets = Buckets(counts);
        LatencySketch { moments, buckets }
    }

    /// Adds one observation in milliseconds. Non-finite values are
    /// ignored (the probe layer never produces them).
    pub fn observe(&mut self, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        self.moments.observe(ms);
        self.buckets.observe(&SKETCH_BUCKETS_MS, ms);
    }

    /// Merges another sketch into this one. Bucket counts add exactly;
    /// moments combine with the pairwise update, so a left-fold over
    /// sketches in a fixed order is deterministic.
    pub fn merge(&mut self, other: &LatencySketch) {
        self.moments.merge(&other.moments);
        self.buckets.merge(&other.buckets);
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Mean of observations, ms.
    pub fn mean(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// Sample standard deviation, ms.
    pub fn std_dev(&self) -> Option<f64> {
        self.moments.std_dev()
    }

    /// Minimum observation, ms.
    pub fn min(&self) -> Option<f64> {
        self.moments.min()
    }

    /// Maximum observation, ms.
    pub fn max(&self) -> Option<f64> {
        self.moments.max()
    }

    /// The underlying moments accumulator (checkpoint encode).
    pub fn moments(&self) -> &RunningMoments {
        &self.moments
    }

    /// Per-bucket counts; the final slot is the +inf overflow bucket
    /// (checkpoint encode).
    pub fn bucket_counts(&self) -> &[u64; SKETCH_BUCKET_COUNT] {
        &self.buckets.0
    }

    /// Approximate `q`-quantile by linear interpolation inside the
    /// containing bucket (the overflow bucket ends at the maximum),
    /// clamped to the observed min/max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (min, max) = (self.moments.min()?, self.moments.max()?);
        let q = self.buckets.quantile(&SKETCH_BUCKETS_MS, q, max)?;
        Some(q.clamp(min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reports_nothing() {
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn observations_land_in_buckets_and_moments() {
        let mut s = LatencySketch::new();
        for ms in [0.1, 1.0, 10.0, 100.0, 1_000.0, 100_000.0] {
            s.observe(ms);
        }
        assert_eq!(s.count(), 6);
        assert_eq!(s.bucket_counts().iter().sum::<u64>(), 6);
        // 100_000 ms overflows the last bound.
        assert_eq!(s.bucket_counts()[SKETCH_BUCKET_COUNT - 1], 1);
        assert_eq!(s.min(), Some(0.1));
        assert_eq!(s.max(), Some(100_000.0));
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut s = LatencySketch::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn quantile_tracks_distribution_roughly() {
        let mut s = LatencySketch::new();
        for i in 0..10_000 {
            s.observe((i % 100) as f64 + 0.5);
        }
        let p50 = s.quantile(0.5).unwrap();
        assert!((20.0..80.0).contains(&p50), "p50 {p50}");
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 > p50, "p99 {p99} <= p50 {p50}");
        assert!(p99 <= 100.0, "p99 {p99}");
    }

    #[test]
    fn merge_matches_single_stream_counts() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 97) % 1_000) as f64).collect();
        let mut whole = LatencySketch::new();
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        for (i, &x) in data.iter().enumerate() {
            whole.observe(x);
            if i % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.bucket_counts(), whole.bucket_counts());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn a_value_on_a_bound_counts_in_that_bound_s_bucket() {
        let mut buckets = Buckets::<SKETCH_BUCKET_COUNT>::default();
        for bound in SKETCH_BUCKETS_MS {
            buckets.observe(&SKETCH_BUCKETS_MS, bound);
        }
        let mut expected = [1; SKETCH_BUCKET_COUNT];
        expected[SKETCH_BUCKET_COUNT - 1] = 0;
        assert_eq!(buckets.0, expected);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut s = LatencySketch::new();
        for ms in [3.0, 14.0, 15.9, 26.5] {
            s.observe(ms);
        }
        let back = LatencySketch::from_parts(s.moments().clone(), *s.bucket_counts());
        assert_eq!(back, s);
    }
}
