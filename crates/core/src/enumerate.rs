//! Exact enumeration of small Móri trees.
//!
//! A Móri tree on `n` vertices is determined by the father vector
//! `(N_2, …, N_n)` (with `N_2 = 1` always); enumerating all vectors with
//! their exact probabilities lets us verify Lemma 2's exchangeability
//! claim *exactly* rather than statistically — the distribution over
//! trees must be literally invariant under window permutations.

use crate::theory::{check_probability, CoreError};

/// A father assignment: entry `i` is the (one-based) father label of the
/// vertex with label `i + 2`.
pub type FatherVector = Vec<usize>;

/// The exact distribution over Móri trees of a given size.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDistribution {
    outcomes: Vec<(FatherVector, f64)>,
}

impl TreeDistribution {
    /// All `(fathers, probability)` outcomes.
    pub fn outcomes(&self) -> &[(FatherVector, f64)] {
        &self.outcomes
    }

    /// Probability of the outcomes satisfying `pred`.
    pub fn mass_where<F: Fn(&FatherVector) -> bool>(&self, pred: F) -> f64 {
        self.outcomes
            .iter()
            .filter(|(f, _)| pred(f))
            .map(|(_, q)| q)
            .sum()
    }
}

/// Enumerates every Móri tree on `n` vertices with its exact probability.
///
/// The recursion follows the model: vertex `k` chooses father `u` with
/// probability `[p·d(u) + (1−p)] / [p(k−2) + (1−p)(k−1)]` where `d(u)` is
/// the indegree of `u` just before time `k`.
///
/// There are `(n−2)!` outcomes at most (`N_k ∈ [1, k−1]`), so keep
/// `n ≤ 10` or so.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `n < 2`, `n > 12`, or
/// `p ∉ [0, 1]`.
pub fn enumerate_mori_trees(n: usize, p: f64) -> crate::Result<TreeDistribution> {
    check_probability("p", p)?;
    if !(2..=12).contains(&n) {
        return Err(CoreError::invalid("n", n, "a tree size in [2, 12]"));
    }
    let mut outcomes: Vec<(FatherVector, f64)> = Vec::new();
    // State: fathers chosen so far (vertex 2 fixed to father 1), indegrees.
    let mut fathers: FatherVector = vec![1];
    let mut indegree = vec![0usize; n + 1]; // 1-based labels
    indegree[1] = 1;
    recurse(n, p, 3, &mut fathers, &mut indegree, 1.0, &mut outcomes);
    Ok(TreeDistribution { outcomes })
}

fn recurse(
    n: usize,
    p: f64,
    k: usize,
    fathers: &mut FatherVector,
    indegree: &mut [usize],
    prob: f64,
    out: &mut Vec<(FatherVector, f64)>,
) {
    if k > n {
        out.push((fathers.clone(), prob));
        return;
    }
    let denom = p * (k - 2) as f64 + (1.0 - p) * (k - 1) as f64;
    for u in 1..k {
        let weight = p * indegree[u] as f64 + (1.0 - p);
        if weight <= 0.0 {
            continue; // p = 1 and indegree 0: unreachable father
        }
        fathers.push(u);
        indegree[u] += 1;
        recurse(n, p, k + 1, fathers, indegree, prob * weight / denom, out);
        indegree[u] -= 1;
        fathers.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masses_sum_to_one() {
        for &p in &[0.0, 0.3, 0.7, 1.0] {
            for n in 2..=7 {
                let mass = enumerate_mori_trees(n, p).unwrap().mass_where(|_| true);
                assert!((mass - 1.0).abs() < 1e-9, "n = {n}, p = {p}: mass = {mass}");
            }
        }
    }

    #[test]
    fn smallest_tree_is_deterministic() {
        let dist = enumerate_mori_trees(2, 0.5).unwrap();
        assert_eq!(dist.outcomes().len(), 1);
        assert_eq!(dist.outcomes()[0].0, vec![1]);
    }

    #[test]
    fn n3_matches_closed_form() {
        // P(N_3 = 1) = 1/(2−p).
        let p = 0.4;
        let dist = enumerate_mori_trees(3, p).unwrap();
        let prob = dist.mass_where(|f| f == &[1, 1]);
        assert!((prob - 1.0 / (2.0 - p)).abs() < 1e-12);
        let prob2 = dist.mass_where(|f| f == &[1, 2]);
        assert!((prob2 - (1.0 - p) / (2.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn p_one_is_the_star() {
        let dist = enumerate_mori_trees(6, 1.0).unwrap();
        let star_mass = dist.mass_where(|f| f.iter().all(|&x| x == 1));
        assert!((star_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn p_zero_is_uniform_recursive() {
        // Every father vector has probability ∏ 1/(k−1).
        let dist = enumerate_mori_trees(5, 0.0).unwrap();
        let expect = 1.0 / (2.0 * 3.0 * 4.0);
        for (_, q) in dist.outcomes() {
            assert!((q - expect).abs() < 1e-12);
        }
        assert_eq!(dist.outcomes().len(), 24);
    }

    #[test]
    fn outcome_count_is_factorial() {
        // For p < 1 all (n−2)!·1 vectors are reachable… actually
        // N_k ranges over k−1 choices: total ∏_{k=3}^{n}(k−1) = (n−1)!/1.
        let dist = enumerate_mori_trees(6, 0.5).unwrap();
        assert_eq!(dist.outcomes().len(), 2 * 3 * 4 * 5);
    }

    #[test]
    fn event_mass_matches_exact_formula() {
        use crate::theory::mori_event_probability_exact;
        // E_{a,b} with a = 3, b = 5 on trees of size 5.
        let p = 0.6;
        let dist = enumerate_mori_trees(5, p).unwrap();
        let event_mass = dist.mass_where(|f| {
            // Vertices 4 and 5 (entries 2 and 3) must have fathers ≤ 3.
            f[2] <= 3 && f[3] <= 3
        });
        let exact = mori_event_probability_exact(3, 5, p).unwrap();
        assert!(
            (event_mass - exact).abs() < 1e-12,
            "enumerated {event_mass} vs closed form {exact}"
        );
    }

    #[test]
    fn validation() {
        assert!(enumerate_mori_trees(1, 0.5).is_err());
        assert!(enumerate_mori_trees(13, 0.5).is_err());
        assert!(enumerate_mori_trees(5, 1.5).is_err());
    }
}
