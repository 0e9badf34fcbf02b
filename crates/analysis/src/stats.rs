//! Summary statistics for experiment measurements.

use std::fmt;

/// Summary statistics of a sample of `f64` measurements.
///
/// # Example
///
/// ```
/// use nonsearch_analysis::SampleStats;
///
/// let s = SampleStats::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.median() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    count: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
    sorted: Vec<f64>,
}

impl SampleStats {
    /// Computes statistics for `data`.
    ///
    /// Returns `None` if `data` is empty or contains non-finite values.
    pub fn from_slice(data: &[f64]) -> Option<SampleStats> {
        if data.is_empty() || data.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        // Unbiased (n−1) sample variance; zero for singleton samples.
        let variance = if data.len() > 1 {
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(SampleStats {
            count: data.len(),
            mean,
            variance,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            sorted,
        })
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.count as f64).sqrt()
    }

    /// Half-width of the normal-approximation 95% confidence interval for
    /// the mean (`1.96 · SE`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (interpolated for even sizes).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolated quantile, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }
}

impl fmt::Display for SampleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} ±{:.4} (95% CI, n={}) median={:.4} range=[{:.4}, {:.4}]",
            self.mean,
            self.ci95_half_width(),
            self.count,
            self.median(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = SampleStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(SampleStats::from_slice(&[]).is_none());
        assert!(SampleStats::from_slice(&[1.0, f64::NAN]).is_none());
        assert!(SampleStats::from_slice(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn singleton() {
        let s = SampleStats::from_slice(&[3.5]).unwrap();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.median(), 3.5);
        assert_eq!(s.quantile(0.99), 3.5);
    }

    #[test]
    fn median_interpolates() {
        let odd = SampleStats::from_slice(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(odd.median(), 2.0);
        let even = SampleStats::from_slice(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!((even.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let s = SampleStats::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let s = SampleStats::from_slice(&[1.0]).unwrap();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = SampleStats::from_slice(&[1.0, 2.0, 3.0]).unwrap();
        let many: Vec<f64> = (0..300).map(|i| (i % 3) as f64 + 1.0).collect();
        let many = SampleStats::from_slice(&many).unwrap();
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn display_mentions_ci() {
        let s = SampleStats::from_slice(&[1.0, 2.0]).unwrap();
        let text = s.to_string();
        assert!(text.contains("95% CI"));
        assert!(text.contains("n=2"));
    }
}
