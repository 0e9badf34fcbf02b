//! Discrete power-law exponent estimation.
//!
//! Implements the exact discrete maximum-likelihood estimator of
//! Clauset–Shalizi–Newman: for observations `x ≥ x_min` under
//! `P(d) = d^{−k} / ζ(k, x_min)`, the MLE `k̂` solves
//! `E_k[ln X] = (1/n) Σ ln x_i`, which we find by bisection using
//! Euler–Maclaurin-corrected Hurwitz-zeta sums. A Kolmogorov–Smirnov
//! distance between the empirical and fitted tail serves as goodness
//! indicator. The paper's models should produce `k > 1` (and real
//! networks `k ∈ [2, 3]`).
//!
//! # Cost
//!
//! A fit costs the same at any sample size beyond the tail scan: each
//! bisection step evaluates `ζ(k, x_min)` and `Σ ln(d)·d^{−k}` over the
//! same 20 000 direct terms in one pass, with one `powf` per term. The
//! 20 000 values of `ln(d)` are tabulated once per fit (160 KB). The
//! loop stops at its fixed point, after at most 57 steps on every E8
//! trial graph, rather than running all 80.
//!
//! # Why the results match the 80-step, two-pass form bit for bit
//!
//! * Each fused sum adds the same terms in the same order from the same
//!   starting value (`-0.0`, as `Iterator::sum`) as its own separate
//!   fold would, and `ln(d)` from the table is the value the fold would
//!   compute, so both sums keep their bits.
//! * A step sets `mid = ½(lo + hi)` and then `lo = mid` or `hi = mid`.
//!   Once `mid == lo` or `mid == hi`, that update either leaves
//!   `(lo, hi)` unchanged or collapses it to `(x, x)`. From an unchanged
//!   pair the next step recomputes the same `mid` and takes the same
//!   branch; from `(x, x)` every `mid` is `x` and both branches keep
//!   `(x, x)`. So every remaining step of the 80 leaves `(lo, hi)` as it
//!   is, and the exponent `½(lo + hi)` is the same whether the loop stops
//!   there or runs on.

use std::fmt;

/// Result of a discrete power-law fit to a degree sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent `k̂` in `P(d) ∝ d^{−k̂}`.
    pub exponent: f64,
    /// The cutoff actually used.
    pub x_min: usize,
    /// Number of observations at or above `x_min`.
    pub tail_size: usize,
    /// Kolmogorov–Smirnov distance between empirical and fitted CCDF on
    /// the tail (smaller is better).
    pub ks_distance: f64,
}

impl fmt::Display for PowerLawFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={:.3} (x_min={}, tail n={}, KS={:.4})",
            self.exponent, self.x_min, self.tail_size, self.ks_distance
        )
    }
}

/// Truncation point beyond which zeta sums switch to the analytic tail.
const ZETA_DIRECT_TERMS: usize = 20_000;
/// Bisection bracket for the exponent.
const K_LO: f64 = 1.0001;
const K_HI: f64 = 25.0;
/// Cap on bisection steps; the fixed point stops the loop long before.
const BISECTION_STEPS: usize = 80;

/// The direct terms of the Hurwitz-zeta sums for one cutoff `a`:
/// `ln(d)` for `d ∈ [a, a + ZETA_DIRECT_TERMS)`, computed once per fit
/// and shared by every bisection step.
struct ZetaTerms {
    a: usize,
    ln_d: Vec<f64>,
}

impl ZetaTerms {
    fn new(a: usize) -> ZetaTerms {
        let ln_d = (a..a + ZETA_DIRECT_TERMS)
            .map(|d| (d as f64).ln())
            .collect();
        ZetaTerms { a, ln_d }
    }

    /// `(Σ_{d≥a} d^{−k}, Σ_{d≥a} ln(d)·d^{−k})`: both generalized zeta
    /// sums from one pass over the direct terms (one `powf` each), with
    /// Euler–Maclaurin tail corrections.
    ///
    /// Each accumulator starts at `-0.0` and adds the terms in order of
    /// `d`, exactly as `Iterator::sum` over the term sequence does, so
    /// each sum has the bits of its own separate fold.
    fn sums(&self, k: f64) -> (f64, f64) {
        let mut zeta = -0.0;
        let mut zeta_log = -0.0;
        for (d, &ln_d) in (self.a..).zip(&self.ln_d) {
            let term = (d as f64).powf(-k);
            zeta += term;
            zeta_log += ln_d * term;
        }
        let nf = (self.a + ZETA_DIRECT_TERMS) as f64;
        let (ln_n, head, tail) = (nf.ln(), nf.powf(1.0 - k), nf.powf(-k));
        let zeta = zeta + head / (k - 1.0) + 0.5 * tail;
        let tail_integral = head * (ln_n / (k - 1.0) + 1.0 / ((k - 1.0) * (k - 1.0)));
        let zeta_log = zeta_log + tail_integral + 0.5 * ln_n * tail;
        (zeta, zeta_log)
    }

    /// `E_k[ln X]` for the discrete power law on `x ≥ a`.
    fn expected_log(&self, k: f64) -> f64 {
        let (zeta, zeta_log) = self.sums(k);
        zeta_log / zeta
    }
}

/// Fits a discrete power law to `degrees` using observations `≥ x_min`.
///
/// Returns `None` if `x_min == 0`, fewer than 10 observations reach the
/// cutoff, or the sample mean of `ln x` does not exceed `ln x_min` by a
/// numerically meaningful margin (all mass at the cutoff — the MLE has no
/// finite solution). The estimate is clamped to `k ≤ 25`.
///
/// # Example
///
/// ```
/// use nonsearch_analysis::fit_power_law_mle;
///
/// // A synthetic Zipf-ish sample: counts ∝ d^{-2} for d = 1..=100.
/// let mut sample = Vec::new();
/// for d in 1usize..=100 {
///     let copies = (1e6 / (d as f64).powi(2)).round() as usize;
///     sample.extend(std::iter::repeat(d).take(copies));
/// }
/// let fit = fit_power_law_mle(&sample, 1).unwrap();
/// assert!((fit.exponent - 2.0).abs() < 0.1, "k = {}", fit.exponent);
/// ```
pub fn fit_power_law_mle(degrees: &[usize], x_min: usize) -> Option<PowerLawFit> {
    if x_min == 0 {
        return None;
    }
    let tail: Vec<usize> = degrees.iter().copied().filter(|&d| d >= x_min).collect();
    if tail.len() < 10 {
        return None;
    }
    let n = tail.len() as f64;
    let mean_log: f64 = tail.iter().map(|&d| (d as f64).ln()).sum::<f64>() / n;
    if mean_log <= (x_min as f64).ln() + 1e-9 {
        return None; // every observation at the cutoff
    }

    // E_k[ln X] is continuous and strictly decreasing in k; bisect.
    let terms = ZetaTerms::new(x_min);
    let mut lo = K_LO;
    let mut hi = K_HI;
    let exponent = if terms.expected_log(hi) > mean_log {
        // Even the steepest allowed law has a heavier log-mean: clamp.
        K_HI
    } else {
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            // `lo` and `hi` are adjacent or equal: this step's update is
            // the last one that can change them (see the module doc).
            let fixed_point = mid == lo || mid == hi;
            if terms.expected_log(mid) > mean_log {
                lo = mid;
            } else {
                hi = mid;
            }
            if fixed_point {
                break;
            }
        }
        0.5 * (lo + hi)
    };
    let ks = ks_distance(&tail, &terms, exponent);
    Some(PowerLawFit {
        exponent,
        x_min,
        tail_size: tail.len(),
        ks_distance: ks,
    })
}

/// KS distance between the empirical tail CDF and the fitted discrete
/// power law with exponent `k` (zeta-normalized, evaluated on the
/// observed support `[terms.a, max]`).
fn ks_distance(tail: &[usize], terms: &ZetaTerms, k: f64) -> f64 {
    let x_min = terms.a;
    let max = *tail.iter().max().expect("tail is non-empty");
    let (norm, _) = terms.sums(k);
    let n = tail.len() as f64;
    let mut counts = vec![0usize; max - x_min + 1];
    for &d in tail {
        counts[d - x_min] += 1;
    }
    let mut model_cdf = 0.0;
    let mut empirical_cdf = 0.0;
    let mut worst: f64 = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let d = (x_min + i) as f64;
        model_cdf += d.powf(-k) / norm;
        empirical_cdf += c as f64 / n;
        worst = worst.max((model_cdf - empirical_cdf).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_sample(k: f64, d_max: usize, scale: f64) -> Vec<usize> {
        let mut sample = Vec::new();
        for d in 1..=d_max {
            let copies = (scale / (d as f64).powf(k)).round() as usize;
            sample.extend(std::iter::repeat_n(d, copies));
        }
        sample
    }

    fn zeta(k: f64, a: usize) -> f64 {
        ZetaTerms::new(a).sums(k).0
    }

    #[test]
    fn zeta_matches_known_values() {
        // ζ(2) = π²/6, ζ(3) ≈ 1.2020569.
        assert!((zeta(2.0, 1) - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-6);
        assert!((zeta(3.0, 1) - 1.202_056_9).abs() < 1e-6);
        // Hurwitz shift: ζ(2, 2) = ζ(2) − 1.
        assert!((zeta(2.0, 2) - (zeta(2.0, 1) - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn zeta_log_matches_known_values() {
        // Σ ln(d)·d^{−2} = −ζ'(2) ≈ 0.9375482543.
        let (_, zeta_log) = ZetaTerms::new(1).sums(2.0);
        assert!((zeta_log - 0.937_548_254_3).abs() < 1e-6, "{zeta_log}");
    }

    #[test]
    fn expected_log_decreases_in_k() {
        let terms = ZetaTerms::new(1);
        assert!(terms.expected_log(1.5) > terms.expected_log(2.5));
        assert!(terms.expected_log(2.5) > terms.expected_log(5.0));
    }

    #[test]
    fn recovers_known_exponents() {
        for k in [1.8, 2.2, 2.8] {
            let sample = zipf_sample(k, 500, 2e6);
            let fit = fit_power_law_mle(&sample, 1).unwrap();
            assert!(
                (fit.exponent - k).abs() < 0.08,
                "k = {k}, fitted = {}",
                fit.exponent
            );
        }
    }

    #[test]
    fn recovers_exponent_with_larger_xmin() {
        let sample = zipf_sample(2.4, 500, 5e6);
        let fit = fit_power_law_mle(&sample, 3).unwrap();
        assert!(
            (fit.exponent - 2.4).abs() < 0.1,
            "fitted = {}",
            fit.exponent
        );
        assert_eq!(fit.x_min, 3);
    }

    #[test]
    fn good_fit_has_small_ks() {
        let sample = zipf_sample(2.5, 300, 5e6);
        let fit = fit_power_law_mle(&sample, 1).unwrap();
        assert!(fit.ks_distance < 0.02, "KS = {}", fit.ks_distance);
    }

    #[test]
    fn non_power_law_has_large_ks() {
        // A uniform degree sample is very far from any power law.
        let sample: Vec<usize> = (0..5000).map(|i| 1 + (i % 50)).collect();
        let fit = fit_power_law_mle(&sample, 1).unwrap();
        assert!(fit.ks_distance > 0.1, "KS = {}", fit.ks_distance);
    }

    #[test]
    fn xmin_filters_the_head() {
        let mut sample = zipf_sample(2.0, 100, 1e6);
        // Contaminate the head with a spike at degree 1.
        sample.extend(std::iter::repeat_n(1, 3_000_000));
        let fit_all = fit_power_law_mle(&sample, 1).unwrap();
        let fit_tail = fit_power_law_mle(&sample, 5).unwrap();
        // Cutting the contaminated head should move the estimate toward 2.
        assert!((fit_tail.exponent - 2.0).abs() < (fit_all.exponent - 2.0).abs());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_power_law_mle(&[], 1).is_none());
        assert!(fit_power_law_mle(&[5; 100], 5).is_none()); // all at x_min
        assert!(fit_power_law_mle(&[1, 2, 3], 1).is_none()); // tiny tail
        assert!(fit_power_law_mle(&[1; 100], 0).is_none()); // bad x_min
    }

    #[test]
    fn near_constant_sample_clamps_to_k_max() {
        // 99% at x_min, 1% slightly above: extremely steep but fittable.
        let mut sample = vec![1usize; 9900];
        sample.extend(std::iter::repeat_n(2, 10));
        let fit = fit_power_law_mle(&sample, 1).unwrap();
        assert!(fit.exponent > 5.0);
    }

    #[test]
    fn display_mentions_exponent() {
        let sample = zipf_sample(2.0, 50, 1e5);
        let fit = fit_power_law_mle(&sample, 1).unwrap();
        assert!(fit.to_string().contains("k="));
    }
}
