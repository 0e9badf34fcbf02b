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
//! A fit costs the same at any sample size beyond the tail scan. A
//! full evaluation computes `ζ(k, x_min)` and `Σ ln(d)·d^{−k}` over
//! 20 000 direct terms in one pass, with one `powf` per term; the
//! 20 000 values of `ln(d)` are tabulated once per fit (160 KB). A
//! bisection step needs only the sign of `E_mid[ln X] − mean_log`, and a
//! cheap estimate (200 direct terms and an Euler–Maclaurin tail) gives
//! it whenever it clears the target by `DECISION_MARGIN`. Only the other
//! steps, the last 30 or so once `mid` is within about 1e-6 of the root,
//! and the `K_HI` clamp test take a full evaluation. On E8's six models
//! at n = 20 000 and 200 000 a fit takes 31–35 full evaluations, where
//! evaluating every step took 57–58. The loop stops at its fixed point,
//! after at most 57 steps, rather than running all 80.
//!
//! # Why the estimate never changes a step
//!
//! A step sets `lo = mid` iff the full evaluation `ê` of `E = E_k[ln X]`
//! at `k = mid` exceeds the target `t`. When the estimate `ĉ` is more
//! than `DECISION_MARGIN` from `t`, its side of `t` is taken instead,
//! which is `ê`'s side whenever `|ĉ − ê| < DECISION_MARGIN`. That bound
//! holds for every `k ∈ (K_LO, K_HI)` and every cutoff `a = x_min`
//! below 2^53 (where `d as f64` is exact; degrees are far smaller), so
//! the path, the exponent and the KS distance keep every bit.
//!
//! Let `S = Σ_{d≥a} d^{−k}` and `L = Σ_{d≥a} ln(d)·d^{−k}`, so `E = L/S`.
//! Then `S ≥ a^{1−k}/(k−1)`, as each term exceeds the integral over
//! `[d, d+1]`. Also `ln a ≤ E ≤ ln a + 2 + 1/(k−1)`: write
//! `E − ln a = ∫₀^∞ P(X > a·e^s) ds`, bound `P` by 1 for `s < ln 2` and
//! by `(j−1)^{1−k}` for `s ∈ [ln j, ln(j+1))`, and the integral is at
//! most `ln 2 + ζ(k)`. A formula's error in `E` is `(ΔL − E·ΔS)/S'`,
//! with `S'` within 1e-8 of `S`. Its numerator is the formula's error
//! for `h(x) = (ln x − E)·x^{−k}`. Euler–Maclaurin's remainder after
//! the `B_{2p}` term is at most `2ζ(2p)/(2π)^{2p}` times the integral
//! of `|h^{(2p)}|`: `1/12` for `p = 1`, `1/720` for `p = 2`. Put
//! `u = a/N` for the tail's start `N`.
//!
//! 1. **The full evaluation's truncation**, at `N = a + 20 000`. Its
//!    tail ends at `½h(N)`. It omits `−h'(N)/12` and a remainder of at
//!    most `∫_N^∞|h''|/12`. Let `ℓ = ln N − E`, so
//!    `|ℓ| ≤ ln(1/u) + 2 + 1/(k−1)`. Then `|h'(N)| ≤ N^{−k−1}(1 + k|ℓ|)`
//!    and `∫|h''| ≤ N^{−k−1}(3 + k|ℓ|)`. Over `S`, with
//!    `N = 20 000/(1−u)`, the error is at most
//!    `(k−1)·u^{k−1}(1−u)²·(2 + k|ℓ|)/(6·20 000²)`. Now
//!    `(k−1)·u^{k−1}·ln(1/u) ≤ 1/e` and `u^{k−1}(1−u)² ≤ 4/(k+1)²`, so
//!    it is below `(k/e + 8)/(6·20 000²) < 7.2e-9`.
//! 2. **The estimate's truncation**, at `N = a + 200`. It keeps the
//!    `B₂` term. What is left is at most `(|h'''(N)| + ∫_N^∞|h⁗|)/720`,
//!    so at most `N^{−k−3}·(2(k)₃|ℓ| + c₃ + ((k)₃ + c₄)/(k+3))/720`,
//!    where `(k)₃ = k(k+1)(k+2)`, `c₃ = 3k² + 6k + 2` and
//!    `c₄ = 4k³ + 18k² + 22k + 6`. Over `S`, with `N = 200/(1−u)`,
//!    `(k−1)·u^{k−1}·ln(1/u) ≤ 1/e` and `u^{k−1}(1−u)⁴ ≤ (4/(k+3))⁴`,
//!    it is largest at `K_HI` and below `1.2e-8`.
//! 3. **Rounding.** Every summand of both sums and both tails is
//!    positive. So a computed sum of `n` direct terms is within a
//!    relative `ε = (n + 16)·u` of its formula's value, `u = 2^{−53}`:
//!    `(n + 2)·u` for the additions, plus `14u` for the worst summand's
//!    `powf`, `ln`, products and quotients (`k − 1` and `1 − k` are
//!    exact for `k ≥ 1`). The quotient is then within
//!    `(2ε + u)·E`. With `E ≤ ln 2^53 + 2 + 10^4`, that is below
//!    `4.47e-8` for the full evaluation and `4.9e-10` for the estimate.
//!
//! Together, `|ĉ − ê| < 6.5e-8 < DECISION_MARGIN = 1e-7`. Measured on a
//! grid over the bracket, the gap is at most 2.2e-10, largest near
//! `K_LO`, where `E ≈ 10^4`. The unit tests hold it below
//! `DECISION_MARGIN / 100` for every cutoff they cover.
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
/// Direct terms of the cheap estimate of `E_k[ln X]`; the rest of both
/// sums is its Euler–Maclaurin tail, `B₂` term included.
const ESTIMATE_TERMS: usize = 200;
/// How far the cheap estimate must clear a step's target for its side
/// to decide the step: above the proven bound (6.5e-8) on its distance
/// from the full evaluation (see the module doc).
const DECISION_MARGIN: f64 = 1e-7;

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

    /// A cheap estimate of [`expected_log`](Self::expected_log): the
    /// first `ESTIMATE_TERMS` direct terms, then the Euler–Maclaurin tail
    /// at `N = a + ESTIMATE_TERMS` with its `B₂` term, `k·N^{−k−1}/12`
    /// for `ζ` and `N^{−k−1}(k·ln N − 1)/12` for the log sum.
    fn estimate_expected_log(&self, k: f64) -> f64 {
        let mut zeta = 0.0;
        let mut zeta_log = 0.0;
        for (d, &ln_d) in (self.a..).zip(&self.ln_d[..ESTIMATE_TERMS]) {
            let term = (d as f64).powf(-k);
            zeta += term;
            zeta_log += ln_d * term;
        }
        let nf = (self.a + ESTIMATE_TERMS) as f64;
        let (ln_n, head, tail) = (nf.ln(), nf.powf(1.0 - k), nf.powf(-k));
        let b2 = tail / (12.0 * nf);
        zeta += head / (k - 1.0) + 0.5 * tail + k * b2;
        zeta_log += head * (ln_n / (k - 1.0) + 1.0 / ((k - 1.0) * (k - 1.0)))
            + 0.5 * ln_n * tail
            + (k * ln_n - 1.0) * b2;
        zeta_log / zeta
    }

    /// Whether `expected_log(k) > target`. The estimate answers when it
    /// clears `target` by `DECISION_MARGIN`, which it does only where the
    /// full evaluation gives the same answer (see the module doc); else
    /// the full evaluation answers, and `full_evaluations` counts it.
    fn exceeds(&self, k: f64, target: f64, full_evaluations: &mut usize) -> bool {
        let estimate = self.estimate_expected_log(k);
        if (estimate - target).abs() > DECISION_MARGIN {
            return estimate > target;
        }
        *full_evaluations += 1;
        self.expected_log(k) > target
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
    fit_counted(degrees, x_min).map(|(fit, _)| fit)
}

/// [`fit_power_law_mle`], with the number of full evaluations of the
/// zeta sums its exponent search took (the `K_HI` clamp test included,
/// the KS pass not).
fn fit_counted(degrees: &[usize], x_min: usize) -> Option<(PowerLawFit, usize)> {
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
    let mut full_evaluations = 1; // the clamp test
    let exponent = if terms.expected_log(hi) > mean_log {
        // Even the steepest allowed law has a heavier log-mean: clamp.
        K_HI
    } else {
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            // `lo` and `hi` are adjacent or equal: this step's update is
            // the last one that can change them (see the module doc).
            let fixed_point = mid == lo || mid == hi;
            if terms.exceeds(mid, mean_log, &mut full_evaluations) {
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
    let fit = PowerLawFit {
        exponent,
        x_min,
        tail_size: tail.len(),
        ks_distance: ks,
    };
    Some((fit, full_evaluations))
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

    /// The cutoffs the estimate's tests cover.
    const X_MINS: [usize; 6] = [1, 2, 3, 5, 10, 100];

    #[test]
    fn estimate_stays_within_a_hundredth_of_the_margin() {
        // 121 exponents with `k − 1` log-spaced over the bracket.
        let ratio = (K_HI - 1.0) / (K_LO - 1.0);
        for a in X_MINS {
            let terms = ZetaTerms::new(a);
            for i in 0..=120 {
                let k = (1.0 + (K_LO - 1.0) * ratio.powf(f64::from(i) / 120.0)).clamp(K_LO, K_HI);
                let gap = (terms.estimate_expected_log(k) - terms.expected_log(k)).abs();
                assert!(gap <= DECISION_MARGIN / 100.0, "x_min={a} k={k}: {gap:e}");
            }
        }
    }

    #[test]
    fn targets_within_the_margin_take_the_full_evaluation() {
        for a in X_MINS {
            let terms = ZetaTerms::new(a);
            for k in [1.01, 2.125, 2.5, 7.0] {
                let exact = terms.expected_log(k);
                // Offsets in margins, and the full evaluations expected.
                for (offset, full) in [
                    (-10.0, 0),
                    (-0.5, 1),
                    (-1e-8, 1),
                    (0.0, 1),
                    (1e-8, 1),
                    (0.5, 1),
                    (10.0, 0),
                ] {
                    let target = exact + offset * DECISION_MARGIN;
                    let mut full_evaluations = 0;
                    assert_eq!(
                        terms.exceeds(k, target, &mut full_evaluations),
                        exact > target
                    );
                    assert_eq!(full_evaluations, full, "x_min={a} k={k} offset={offset}");
                }
            }
        }
    }

    #[test]
    fn e8_fits_skip_most_full_evaluations() {
        use nonsearch_generators::{
            rng_from_seed, BarabasiAlbert, CooperFrieze, CooperFriezeConfig, MergedMori,
            UniformAttachment,
        };
        // One graph of each of E8's six models at n = 20 000, fitted at
        // E8's cutoff of 3. With every step a full evaluation these fits
        // took 57 or 58 each (the clamp test and 56–57 steps); the
        // estimate leaves 32–34.
        const N: usize = 20_000;
        let mut rng = rng_from_seed(0xE8);
        let config = CooperFriezeConfig::balanced(0.7).unwrap();
        let samples = [
            MergedMori::sample(N, 1, 0.3, &mut rng).unwrap().degrees(),
            MergedMori::sample(N, 1, 0.6, &mut rng).unwrap().degrees(),
            MergedMori::sample(N, 1, 0.9, &mut rng).unwrap().degrees(),
            CooperFrieze::sample(N, &config, &mut rng)
                .unwrap()
                .degrees(),
            BarabasiAlbert::sample(N, 2, &mut rng).unwrap().degrees(),
            UniformAttachment::sample(N, 1, &mut rng).unwrap().degrees(),
        ];
        for (model, degrees) in samples.iter().enumerate() {
            let (_, full) = fit_counted(degrees, 3).expect("fittable");
            assert!(full <= 40, "model {model}: {full} full evaluations");
        }
    }
}
