//! Discrete power-law degree sequences.
//!
//! The "pure random graph" line of related work (Adamic et al., Sarshar et
//! al.) studies graphs whose degree distribution follows `P(d) ∝ d^{−k}`
//! with exponent `k` strictly between 2 and 3. This module samples such
//! sequences for the configuration model.

use crate::{CumulativeSampler, GeneratorError, Result};
use rand::Rng;

/// Parameters for a discrete power-law degree distribution
/// `P(d) ∝ d^{−exponent}` on `d ∈ [d_min, d_max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawConfig {
    exponent: f64,
    d_min: usize,
    d_max: Option<usize>,
}

impl PowerLawConfig {
    /// Creates a configuration with the natural cutoff
    /// `d_max = n^{1/(exponent−1)}` applied at sampling time.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `exponent ≤ 1` or
    /// `d_min == 0`.
    pub fn new(exponent: f64, d_min: usize) -> Result<Self> {
        if !exponent.is_finite() || exponent <= 1.0 {
            return Err(GeneratorError::invalid(
                "exponent",
                exponent,
                "a finite value > 1",
            ));
        }
        if d_min == 0 {
            return Err(GeneratorError::invalid(
                "d_min",
                0usize,
                "a positive degree",
            ));
        }
        Ok(PowerLawConfig {
            exponent,
            d_min,
            d_max: None,
        })
    }

    /// Overrides the maximum degree cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `d_max < d_min`.
    pub fn with_cutoff(mut self, d_max: usize) -> Result<Self> {
        if d_max < self.d_min {
            return Err(GeneratorError::invalid("d_max", d_max, "a degree ≥ d_min"));
        }
        self.d_max = Some(d_max);
        Ok(self)
    }

    /// The power-law exponent `k`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The cutoff that will apply for a graph on `n` vertices: the
    /// explicit override if set, else the natural cutoff
    /// `max(d_min, ⌊n^{1/(k−1)}⌋)`.
    pub fn cutoff_for(&self, n: usize) -> usize {
        match self.d_max {
            Some(d) => d,
            None => {
                let natural = (n as f64).powf(1.0 / (self.exponent - 1.0)).floor() as usize;
                natural.max(self.d_min)
            }
        }
    }
}

/// Samples a degree sequence of length `n` from the power law, adjusted
/// to an even stub sum (a requirement for the configuration model).
///
/// The parity fix increments one uniformly chosen entry that sits below
/// the cutoff (or decrements one above `d_min` if every entry is at the
/// cutoff), perturbing the distribution by O(1/n).
///
/// # Errors
///
/// Returns [`GeneratorError::InvalidParameter`] if `n == 0`.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{power_law_degree_sequence, rng_from_seed, PowerLawConfig};
///
/// let cfg = PowerLawConfig::new(2.5, 1)?;
/// let mut rng = rng_from_seed(1);
/// let degrees = power_law_degree_sequence(1000, &cfg, &mut rng)?;
/// assert_eq!(degrees.len(), 1000);
/// assert_eq!(degrees.iter().sum::<usize>() % 2, 0);
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
pub fn power_law_degree_sequence<R: Rng + ?Sized>(
    n: usize,
    config: &PowerLawConfig,
    rng: &mut R,
) -> Result<Vec<usize>> {
    if n == 0 {
        return Err(GeneratorError::invalid(
            "n",
            0usize,
            "a positive vertex count",
        ));
    }
    let d_min = config.d_min;
    let d_max = config.cutoff_for(n);
    let weights: Vec<f64> = (d_min..=d_max)
        .map(|d| (d as f64).powf(-config.exponent))
        .collect();
    let sampler = CumulativeSampler::new(&weights).expect("positive weights");
    let mut degrees: Vec<usize> = (0..n).map(|_| sampler.sample(rng) + d_min).collect();
    if degrees.iter().sum::<usize>() % 2 == 1 {
        // Find an adjustable entry; every sequence has one unless
        // d_min == d_max, where parity can only be fixed when n is even
        // (but then the sum d_min·n with odd total means d_min odd and n
        // odd — bump one entry anyway by +1 is out of range, so -1).
        if let Some(i) = pick_index_where(&degrees, |d| d < d_max, rng) {
            degrees[i] += 1;
        } else if let Some(i) = pick_index_where(&degrees, |d| d > d_min, rng) {
            degrees[i] -= 1;
        } else {
            return Err(GeneratorError::InvalidDegreeSequence {
                reason: format!("cannot fix odd stub sum with constant degree {d_min} and odd n"),
            });
        }
    }
    Ok(degrees)
}

fn pick_index_where<R: Rng + ?Sized>(
    degrees: &[usize],
    pred: impl Fn(usize) -> bool,
    rng: &mut R,
) -> Option<usize> {
    let candidates: Vec<usize> = degrees
        .iter()
        .enumerate()
        .filter(|&(_, &d)| pred(d))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn sequence_respects_bounds_and_parity() {
        let cfg = PowerLawConfig::new(2.3, 2)
            .unwrap()
            .with_cutoff(50)
            .unwrap();
        let mut rng = rng_from_seed(1);
        let seq = power_law_degree_sequence(501, &cfg, &mut rng).unwrap();
        assert_eq!(seq.len(), 501);
        assert!(seq.iter().all(|&d| (2..=50).contains(&d)));
        assert_eq!(seq.iter().sum::<usize>() % 2, 0);
    }

    #[test]
    fn heavier_tail_for_smaller_exponent() {
        let mut rng = rng_from_seed(2);
        let shallow = PowerLawConfig::new(2.1, 1)
            .unwrap()
            .with_cutoff(1000)
            .unwrap();
        let steep = PowerLawConfig::new(3.5, 1)
            .unwrap()
            .with_cutoff(1000)
            .unwrap();
        let mean = |cfg: &PowerLawConfig, rng: &mut rand_chacha::ChaCha8Rng| {
            let seq = power_law_degree_sequence(20_000, cfg, rng).unwrap();
            seq.iter().sum::<usize>() as f64 / seq.len() as f64
        };
        assert!(mean(&shallow, &mut rng) > mean(&steep, &mut rng));
    }

    #[test]
    fn natural_cutoff_grows_with_n() {
        let cfg = PowerLawConfig::new(2.5, 1).unwrap();
        assert!(cfg.cutoff_for(100) < cfg.cutoff_for(100_000));
        // k = 2.5 → cutoff = n^{2/3}.
        assert_eq!(cfg.cutoff_for(1000), 99); // 1000^(2/3) ≈ 99.99…
    }

    #[test]
    fn explicit_cutoff_wins() {
        let cfg = PowerLawConfig::new(2.5, 1).unwrap().with_cutoff(7).unwrap();
        assert_eq!(cfg.cutoff_for(10_000_000), 7);
    }

    #[test]
    fn validation() {
        assert!(PowerLawConfig::new(1.0, 1).is_err());
        assert!(PowerLawConfig::new(f64::INFINITY, 1).is_err());
        assert!(PowerLawConfig::new(2.5, 0).is_err());
        assert!(PowerLawConfig::new(2.5, 5).unwrap().with_cutoff(4).is_err());
        let cfg = PowerLawConfig::new(2.5, 1).unwrap();
        let mut rng = rng_from_seed(3);
        assert!(power_law_degree_sequence(0, &cfg, &mut rng).is_err());
    }

    #[test]
    fn constant_degree_odd_n_unfixable() {
        let cfg = PowerLawConfig::new(2.0, 3).unwrap().with_cutoff(3).unwrap();
        let mut rng = rng_from_seed(4);
        // 3 stubs × 3 vertices = 9, odd and unfixable.
        assert!(power_law_degree_sequence(3, &cfg, &mut rng).is_err());
        // Even n is fine.
        assert!(power_law_degree_sequence(4, &cfg, &mut rng).is_ok());
    }

    #[test]
    fn empirical_frequencies_follow_power_law() {
        let cfg = PowerLawConfig::new(2.0, 1).unwrap().with_cutoff(4).unwrap();
        let mut rng = rng_from_seed(5);
        let seq = power_law_degree_sequence(100_000, &cfg, &mut rng).unwrap();
        let count = |d: usize| seq.iter().filter(|&&x| x == d).count() as f64;
        // P(1)/P(2) should be ≈ 4 for k = 2.
        let ratio = count(1) / count(2);
        assert!((ratio - 4.0).abs() < 0.3, "ratio = {ratio}");
    }
}
