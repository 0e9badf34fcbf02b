//! Single-pass (Welford) summary statistics.
//!
//! [`SampleStats`](crate::SampleStats) takes every sample as a slice,
//! which is fine for a few hundred routes but wasteful for the engine's
//! large sweeps. [`StreamingStats`] keeps only O(1) state — count, mean, the
//! centered second moment, min and max — and still reproduces the
//! two-pass mean/variance/CI to floating-point accuracy. Accumulators
//! from disjoint shards can be [`merge`](StreamingStats::merge)d with
//! Chan et al.'s parallel update.

use std::fmt;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use nonsearch_analysis::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingStats {
    /// Same as [`StreamingStats::new`] (empty, with `min = +∞` and
    /// `max = −∞` so the first observation always replaces them).
    fn default() -> StreamingStats {
        StreamingStats::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> StreamingStats {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates every value of `data`.
    pub fn from_slice(data: &[f64]) -> StreamingStats {
        data.iter().copied().collect()
    }

    /// Adds one observation.
    ///
    /// Non-finite observations poison the moments (they propagate as
    /// NaN/∞, exactly like summing them would); callers that need
    /// rejection should filter first, as
    /// [`SampleStats`](crate::SampleStats) does.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator into this one (Chan et al.'s parallel
    /// variance update). Merging shard accumulators in a fixed order is
    /// deterministic; the result agrees with one sequential pass to
    /// floating-point accuracy (not bit-exactly).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `true` when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (n−1) sample variance; zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`0.0` when empty).
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// (`1.96 · SE`), matching
    /// [`SampleStats::ci95_half_width`](crate::SampleStats::ci95_half_width).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> StreamingStats {
        let mut s = StreamingStats::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} ±{:.4} (95% CI, n={})",
            self.mean,
            self.ci95_half_width(),
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleStats;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{a} vs {b}"
        );
    }

    #[test]
    fn matches_two_pass_sample_stats() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let two_pass = SampleStats::from_slice(&data).unwrap();
        let streaming = StreamingStats::from_slice(&data);
        assert_eq!(streaming.count() as usize, two_pass.count());
        assert_close(streaming.mean(), two_pass.mean());
        assert_close(streaming.variance(), two_pass.variance());
        assert_close(streaming.std_error(), two_pass.std_error());
        assert_close(streaming.ci95_half_width(), two_pass.ci95_half_width());
        assert_eq!(streaming.min(), two_pass.min());
        assert_eq!(streaming.max(), two_pass.max());
    }

    #[test]
    fn empty_and_singleton() {
        let empty = StreamingStats::new();
        assert_eq!(StreamingStats::default(), empty);
        assert_eq!(empty.min(), f64::INFINITY);
        assert_eq!(empty.max(), f64::NEG_INFINITY);
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        assert_eq!(empty.ci95_half_width(), 0.0);

        let mut one = StreamingStats::new();
        one.push(3.5);
        assert_eq!(one.mean(), 3.5);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.min(), 3.5);
        assert_eq!(one.max(), 3.5);
    }

    #[test]
    fn merge_agrees_with_sequential() {
        let data: Vec<f64> = (0..321).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let sequential = StreamingStats::from_slice(&data);
        for split in [1usize, 7, 160, 320] {
            let mut merged = StreamingStats::from_slice(&data[..split]);
            merged.merge(&StreamingStats::from_slice(&data[split..]));
            assert_eq!(merged.count(), sequential.count());
            assert_close(merged.mean(), sequential.mean());
            assert_close(merged.variance(), sequential.variance());
            assert_eq!(merged.min(), sequential.min());
            assert_eq!(merged.max(), sequential.max());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = StreamingStats::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s, before);
        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_mentions_ci() {
        let s = StreamingStats::from_slice(&[1.0, 2.0]);
        assert!(s.to_string().contains("95% CI"));
    }
}
