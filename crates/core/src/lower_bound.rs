//! Numeric lower bounds: Lemma 1 and the theorems' concrete values.

use crate::theory::{check_probability, mori_event_probability_exact, CoreError};
use crate::window::EquivalenceWindow;

/// Lemma 1: if a set `V` of vertices is equivalent conditional on `E`,
/// any weak-model search for a `v ∈ V` costs at least `|V|·P(E)/2`
/// expected requests.
///
/// Intuition: conditional on `E`, the searcher cannot distinguish the
/// `|V|` window vertices, so in expectation it must touch half of them
/// before hitting the right one.
pub fn lemma1_lower_bound(window_size: usize, event_probability: f64) -> f64 {
    window_size as f64 * event_probability / 2.0
}

/// The concrete Theorem 1 lower bound for finding vertex `n` in the Móri
/// model with parameter `p` (weak model): `|V|·P(E_{a,b})/2` with
/// `a = n−1` and the Lemma 3 window. Grows as `Ω(√n)`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `n < 3` or `p ∉ [0, 1]`.
pub fn theorem1_weak_bound(n: usize, p: f64) -> crate::Result<f64> {
    check_probability("p", p)?;
    if n < 3 {
        return Err(CoreError::invalid("n", n, "a target index ≥ 3"));
    }
    let window = EquivalenceWindow::for_target(n);
    let prob = mori_event_probability_exact(window.a(), window.b(), p)?;
    Ok(lemma1_lower_bound(window.len(), prob))
}

/// The Theorem 2 shape for Cooper–Frieze models: the same `|V|·P(E)/2`
/// with a window of `Θ(√n)` equivalent vertices. The event probability
/// is model-dependent; this helper takes a measured/estimated `P(E)` and
/// applies Lemma 1 with the Lemma 3 window size.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `n < 3` or
/// `event_probability ∉ [0, 1]`.
pub fn theorem2_weak_bound(n: usize, event_probability: f64) -> crate::Result<f64> {
    check_probability("event_probability", event_probability)?;
    if n < 3 {
        return Err(CoreError::invalid("n", n, "a target index ≥ 3"));
    }
    let window = EquivalenceWindow::for_target(n);
    Ok(lemma1_lower_bound(window.len(), event_probability))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_arithmetic() {
        assert_eq!(lemma1_lower_bound(100, 0.5), 25.0);
        assert_eq!(lemma1_lower_bound(0, 0.9), 0.0);
    }

    #[test]
    fn theorem1_bound_grows_like_sqrt() {
        let p = 0.6;
        let b1 = theorem1_weak_bound(1_000, p).unwrap();
        let b2 = theorem1_weak_bound(100_000, p).unwrap();
        let ratio = b2 / b1;
        assert!((ratio - 10.0).abs() < 1.0, "ratio = {ratio}");
    }

    #[test]
    fn theorem1_bound_is_positive_and_below_window() {
        for &p in &[0.1, 0.5, 1.0] {
            let n = 10_000;
            let b = theorem1_weak_bound(n, p).unwrap();
            let window = EquivalenceWindow::for_target(n);
            assert!(b > 0.0);
            assert!(b <= window.len() as f64 / 2.0 + 1e-12);
        }
    }

    #[test]
    fn higher_p_gives_larger_event_probability_and_bound() {
        let lo = theorem1_weak_bound(10_000, 0.1).unwrap();
        let hi = theorem1_weak_bound(10_000, 0.9).unwrap();
        assert!(hi > lo);
    }

    #[test]
    fn theorem2_applies_lemma1() {
        let b = theorem2_weak_bound(10_001, 0.5).unwrap();
        // Window for target 10001 has ⌊√9999⌋ = 99 members.
        assert!((b - 99.0 * 0.5 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(theorem1_weak_bound(2, 0.5).is_err());
        assert!(theorem1_weak_bound(100, 1.5).is_err());
        assert!(theorem2_weak_bound(100, -0.1).is_err());
    }
}
