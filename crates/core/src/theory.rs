//! Closed-form quantities from the paper and its related work.

use std::error::Error;
use std::fmt;

/// Errors from the lower-bound machinery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A numeric parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value, formatted.
        value: String,
        /// The valid range, human-readable.
        expected: &'static str,
    },
    /// Monte-Carlo conditioning never accepted a sample.
    NoAcceptedSamples {
        /// Trials attempted.
        trials: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter {
                name,
                value,
                expected,
            } => {
                write!(
                    f,
                    "parameter `{name}` = {value} is invalid (expected {expected})"
                )
            }
            CoreError::NoAcceptedSamples { trials } => {
                write!(
                    f,
                    "no samples satisfied the conditioning event in {trials} trials"
                )
            }
        }
    }
}

impl Error for CoreError {}

impl CoreError {
    pub(crate) fn invalid<V: fmt::Display>(
        name: &'static str,
        value: V,
        expected: &'static str,
    ) -> Self {
        CoreError::InvalidParameter {
            name,
            value: value.to_string(),
            expected,
        }
    }
}

pub(crate) fn check_probability(name: &'static str, value: f64) -> crate::Result<()> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(CoreError::invalid(name, value, "a probability in [0, 1]"))
    }
}

/// Integer square root (floor).
pub(crate) fn isqrt(x: usize) -> usize {
    if x == 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as usize;
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

/// The window end of Lemma 3: `b = a + ⌊√(a−1)⌋`.
///
/// # Panics
///
/// Panics if `a < 2` (the Móri tree needs two seed vertices).
pub fn lemma3_window_end(a: usize) -> usize {
    assert!(a >= 2, "anchor must be at least 2");
    a + isqrt(a - 1)
}

/// Lemma 3's lower bound on the event probability: `e^{−(1−p)}`.
pub fn lemma3_bound(p: f64) -> f64 {
    (-(1.0 - p)).exp()
}

/// One conditional factor of the event probability:
/// `P(N_k ≤ a | E_{a,k−1}) = [p(k−2) + (1−p)a] / [p(k−2) + (1−p)(k−1)]`.
///
/// Conditional on the event so far, **every** edge of the tree on `k−1`
/// vertices points into `[1, a]`, so the preferential mass on `[1, a]` is
/// the whole indegree total `k−2`; the uniform mass splits `a` to `k−1`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `p ∉ [0, 1]` or `k ≤ a`.
pub fn mori_conditional_factor(k: usize, a: usize, p: f64) -> crate::Result<f64> {
    check_probability("p", p)?;
    if k <= a || a < 2 {
        return Err(CoreError::invalid("k", k, "a vertex index > a ≥ 2"));
    }
    let pref = p * (k - 2) as f64;
    Ok((pref + (1.0 - p) * a as f64) / (pref + (1.0 - p) * (k - 1) as f64))
}

/// Exact probability of the event `E_{a,b} = ∩_{a<k≤b} {N_k ≤ a}` in the
/// Móri tree with parameter `p`:
/// the product of [`mori_conditional_factor`] over `k ∈ (a, b]`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `p ∉ [0, 1]` or
/// `b < a` or `a < 2`.
pub fn mori_event_probability_exact(a: usize, b: usize, p: f64) -> crate::Result<f64> {
    check_probability("p", p)?;
    if a < 2 || b < a {
        return Err(CoreError::invalid(
            "(a, b)",
            format!("({a}, {b})"),
            "2 ≤ a ≤ b",
        ));
    }
    let mut prob = 1.0;
    for k in (a + 1)..=b {
        prob *= mori_conditional_factor(k, a, p)?;
    }
    Ok(prob)
}

/// The strong-model exponent of Theorem 1: `1/2 − p − ε` (meaningful for
/// `p < 1/2`).
pub fn strong_model_exponent(p: f64, epsilon: f64) -> f64 {
    0.5 - p - epsilon
}

/// Móri's maximum-degree growth exponent: the max degree of `G_t` grows
/// like `t^p` \[Mór05\], the fact powering the strong-model reduction.
pub fn mori_max_degree_exponent(p: f64) -> f64 {
    p
}

/// Adamic et al.'s mean-field cost exponent for high-degree search on
/// power-law graphs with exponent `k`: `2(1 − 2/k)`.
pub fn adamic_high_degree_exponent(k: f64) -> f64 {
    2.0 * (1.0 - 2.0 / k)
}

/// Adamic et al.'s mean-field cost exponent for the pure random walk:
/// `3(1 − 2/k)`.
pub fn adamic_random_walk_exponent(k: f64) -> f64 {
    3.0 * (1.0 - 2.0 / k)
}

/// The exact mean and variance of a request count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMoments {
    /// Expected requests.
    pub mean: f64,
    /// Variance of the request count.
    pub variance: f64,
}

/// E1's p = 1 graphs are stars (or merged stars) on `n` vertices, searched
/// from the hub: let K be the number of distinct leaves in the hub's
/// shuffled slot list up to and including the target's first slot. K is
/// uniform on `{1, …, n − 1}`, so `E[K] = n/2` and
/// `Var[K] = ((n − 1)² − 1)/12 = n(n − 2)/12`. `high-degree`,
/// `greedy-id`, `oldest-first`, `lookahead-walk` and
/// `sim-strong-high-degree` each make exactly K requests.
///
/// # Panics
///
/// Panics if `n < 2` (a star needs a leaf).
pub fn p_one_leaf_requests(n: usize) -> RequestMoments {
    assert!(n >= 2, "a star needs at least one leaf");
    RequestMoments {
        mean: n as f64 / 2.0,
        variance: (n * (n - 2)) as f64 / 12.0,
    }
}

/// `avoiding-walk` on the same p = 1 graphs makes exactly `2K − 1`
/// requests (each step back to the hub is one), so its mean is `n − 1`
/// and its variance `4 · Var[K] = n(n − 2)/3`; see
/// [`p_one_leaf_requests`].
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn p_one_avoiding_walk_requests(n: usize) -> RequestMoments {
    assert!(n >= 2, "a star needs at least one leaf");
    RequestMoments {
        mean: (n - 1) as f64,
        variance: (n * (n - 2)) as f64 / 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_basics() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(3), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(99), 9);
        assert_eq!(isqrt(100), 10);
        for x in 0..2000usize {
            let r = isqrt(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "x = {x}");
        }
    }

    #[test]
    fn window_end_examples() {
        assert_eq!(lemma3_window_end(2), 3); // √1 = 1
        assert_eq!(lemma3_window_end(10), 13); // √9 = 3
        assert_eq!(lemma3_window_end(101), 111); // √100 = 10
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn window_end_needs_seed() {
        let _ = lemma3_window_end(1);
    }

    #[test]
    fn conditional_factor_matches_hand_computation() {
        // k = 3, a = 2: the factor is [p + 2(1−p)] / [p + 2(1−p)] = 1
        // (both existing vertices are ≤ a, the event cannot fail).
        let f = mori_conditional_factor(3, 2, 0.5).unwrap();
        assert!((f - 1.0).abs() < 1e-12);
        // k = 4, a = 2, p = 0.5: [1 + 0.5·2] / [1 + 0.5·3] = 2/2.5 = 0.8.
        let f = mori_conditional_factor(4, 2, 0.5).unwrap();
        assert!((f - 0.8).abs() < 1e-12);
    }

    #[test]
    fn factors_are_probabilities_and_increase_with_p() {
        for &p in &[0.0, 0.3, 0.7, 1.0] {
            for k in 11..40 {
                let f = mori_conditional_factor(k, 10, p).unwrap();
                assert!((0.0..=1.0).contains(&f));
            }
        }
        let lo = mori_conditional_factor(20, 10, 0.2).unwrap();
        let hi = mori_conditional_factor(20, 10, 0.9).unwrap();
        assert!(hi > lo);
    }

    #[test]
    fn p_one_event_is_certain() {
        // Pure preferential: no mass ever lands past a (all indegree ≤ a).
        let prob = mori_event_probability_exact(50, 60, 1.0).unwrap();
        assert!((prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lemma3_bound_holds_at_the_prescribed_window() {
        for &p in &[0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            for &a in &[10usize, 100, 1_000, 10_000, 100_000] {
                let b = lemma3_window_end(a);
                let exact = mori_event_probability_exact(a, b, p).unwrap();
                let bound = lemma3_bound(p);
                assert!(
                    exact >= bound - 1e-12,
                    "p = {p}, a = {a}: exact {exact} < bound {bound}"
                );
            }
        }
    }

    #[test]
    fn event_probability_decreases_with_window_width() {
        let a = 100;
        let narrow = mori_event_probability_exact(a, a + 5, 0.3).unwrap();
        let wide = mori_event_probability_exact(a, a + 50, 0.3).unwrap();
        assert!(narrow > wide);
        // Empty window: probability 1.
        assert_eq!(mori_event_probability_exact(a, a, 0.3).unwrap(), 1.0);
    }

    #[test]
    fn validation() {
        assert!(mori_conditional_factor(5, 5, 0.5).is_err());
        assert!(mori_conditional_factor(5, 1, 0.5).is_err());
        assert!(mori_event_probability_exact(10, 9, 0.5).is_err());
        assert!(mori_event_probability_exact(10, 20, 1.5).is_err());
    }

    #[test]
    fn related_work_exponents() {
        // k = 2: both exponents vanish (search is constant-ish).
        assert!(adamic_high_degree_exponent(2.0).abs() < 1e-12);
        assert!(adamic_random_walk_exponent(2.0).abs() < 1e-12);
        // k = 3: 2/3 vs 1.
        assert!((adamic_high_degree_exponent(3.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((adamic_random_walk_exponent(3.0) - 1.0).abs() < 1e-12);
        // The walk exponent always dominates.
        for k in [2.1, 2.5, 2.9] {
            assert!(adamic_random_walk_exponent(k) > adamic_high_degree_exponent(k));
        }
    }

    #[test]
    fn strong_exponent_degrades_with_p() {
        assert!((strong_model_exponent(0.2, 0.0) - 0.3).abs() < 1e-12);
        assert!(strong_model_exponent(0.5, 0.0).abs() < 1e-12);
        assert!(strong_model_exponent(0.6, 0.1) < 0.0);
        assert_eq!(mori_max_degree_exponent(0.4), 0.4);
    }

    #[test]
    fn error_display() {
        let e = CoreError::invalid("p", 2.0, "a probability in [0, 1]");
        assert!(e.to_string().contains("`p`"));
        let e = CoreError::NoAcceptedSamples { trials: 7 };
        assert!(e.to_string().contains('7'));
    }

    /// Enumerates K uniform on {1, …, n − 1} and the counts K and 2K − 1
    /// in exact integer arithmetic. The closed forms round once from
    /// the same rationals, so they must match bit for bit.
    #[test]
    fn p_one_moments_match_the_enumerated_uniform_law() {
        // (mean, variance) of `counts` as one rounding of each exact
        // rational: Σx / N and (N·Σx² − (Σx)²) / N².
        let moments = |counts: &[u64]| {
            let len = counts.len() as u64;
            let sum: u64 = counts.iter().sum();
            let squares: u64 = counts.iter().map(|x| x * x).sum();
            RequestMoments {
                mean: sum as f64 / len as f64,
                variance: (len * squares - sum * sum) as f64 / (len * len) as f64,
            }
        };
        for n in 2..=64u64 {
            let leaves: Vec<u64> = (1..n).collect();
            let walks: Vec<u64> = leaves.iter().map(|k| 2 * k - 1).collect();
            let n = n as usize;
            assert_eq!(p_one_leaf_requests(n), moments(&leaves), "K, n = {n}");
            assert_eq!(
                p_one_avoiding_walk_requests(n),
                moments(&walks),
                "2K - 1, n = {n}"
            );
        }
    }
}
