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
/// assert!(s.ci95_half_width() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    count: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
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
        Some(SampleStats {
            count: data.len(),
            mean,
            variance,
            min: data.iter().copied().fold(f64::INFINITY, f64::min),
            max: data.iter().copied().fold(f64::NEG_INFINITY, f64::max),
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
}

impl fmt::Display for SampleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} ±{:.4} (95% CI, n={}) range=[{:.4}, {:.4}]",
            self.mean,
            self.ci95_half_width(),
            self.count,
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
        assert_eq!((s.min(), s.max()), (3.5, 3.5));
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
