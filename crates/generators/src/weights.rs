//! Sampling primitives used by the attachment processes.

use crate::{GeneratorError, Result};
use rand::Rng;

/// Weighted sampling over `0..n` by prefix sums and binary search.
///
/// Build cost O(n), sample cost O(log n). Suited to static weight vectors
/// such as power-law degree distributions or Kleinberg's lattice-distance
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSampler {
    cumulative: Vec<f64>,
}

impl CumulativeSampler {
    /// Builds a sampler from non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `weights` is empty,
    /// contains a negative or non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(GeneratorError::invalid(
                "weights",
                "[]",
                "a non-empty slice",
            ));
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(GeneratorError::invalid(
                    "weights",
                    w,
                    "finite non-negative values",
                ));
            }
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return Err(GeneratorError::invalid("weights", acc, "a positive total"));
        }
        Ok(CumulativeSampler { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` if the sampler has no categories (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples an index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("sampler is non-empty");
        let x = rng.gen_range(0.0..total);
        // partition_point returns the first index with cumulative > x.
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// A small discrete distribution over `1..=k`, used for the Cooper–Frieze
/// per-step edge counts (`p` and `q` in the paper's notation).
///
/// ```
/// use nonsearch_generators::DiscreteDistribution;
///
/// // 70% one edge, 30% two edges.
/// let d = DiscreteDistribution::new(vec![0.7, 0.3])?;
/// assert!((d.mean() - 1.3).abs() < 1e-12);
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDistribution {
    /// `weights[i]` is the probability of value `i + 1`.
    weights: Vec<f64>,
    sampler: CumulativeSampler,
}

impl DiscreteDistribution {
    /// Builds a distribution where `weights[i]` is the (unnormalized)
    /// probability of the value `i + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] under the same
    /// conditions as [`CumulativeSampler::new`].
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        let sampler = CumulativeSampler::new(&weights)?;
        Ok(DiscreteDistribution { weights, sampler })
    }

    /// The point distribution that always yields `value`.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `value == 0`.
    pub fn constant(value: usize) -> Result<Self> {
        if value == 0 {
            return Err(GeneratorError::invalid(
                "value",
                0usize,
                "a positive integer",
            ));
        }
        let mut weights = vec![0.0; value];
        weights[value - 1] = 1.0;
        Self::new(weights)
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i + 1) as f64 * w)
            .sum::<f64>()
            / total
    }

    /// Samples a value `v ≥ 1` with probability `weights[v - 1]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn cumulative_sampler_matches_weights() {
        let s = CumulativeSampler::new(&[1.0, 3.0]).unwrap();
        assert_eq!(s.len(), 2);
        let mut rng = rng_from_seed(5);
        let draws = 40_000;
        let ones = (0..draws).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / draws as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let s = CumulativeSampler::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..1000 {
            assert_eq!(s.sample(&mut rng), 1);
        }
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(CumulativeSampler::new(&[]).is_err());
        assert!(CumulativeSampler::new(&[-1.0]).is_err());
        assert!(CumulativeSampler::new(&[f64::NAN]).is_err());
        assert!(CumulativeSampler::new(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn discrete_distribution_basics() {
        let d = DiscreteDistribution::new(vec![0.5, 0.0, 0.5]).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let mut rng = rng_from_seed(3);
        for _ in 0..100 {
            let v = d.sample(&mut rng);
            assert!(v == 1 || v == 3);
        }
    }

    #[test]
    fn constant_distribution() {
        let d = DiscreteDistribution::constant(4).unwrap();
        assert!((d.mean() - 4.0).abs() < 1e-12);
        let mut rng = rng_from_seed(4);
        assert_eq!(d.sample(&mut rng), 4);
        assert!(DiscreteDistribution::constant(0).is_err());
    }
}
