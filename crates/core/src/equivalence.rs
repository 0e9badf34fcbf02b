//! Verification of probabilistic vertex equivalence (Definition 2 /
//! Lemma 2).
//!
//! Two complementary checks:
//!
//! * [`exact_window_exchangeability`] — enumerate every Móri tree of a
//!   small size with its exact probability and verify that the
//!   conditional distribution given `E_{a,b}` is literally invariant
//!   under every window transposition. This is Lemma 2, machine-checked.
//! * [`sampled_window_symmetry`] — for sizes where enumeration is
//!   impossible, sample trees conditional on the event and compare
//!   per-position statistics of window vertices (father label mean,
//!   final indegree); exchangeability implies the positions are
//!   statistically indistinguishable.

use crate::enumerate::enumerate_mori_trees;
use crate::event::mori_window_event_holds;
use crate::theory::{check_probability, CoreError};
use crate::window::EquivalenceWindow;
use crate::Permutation;
use nonsearch_engine::{run_trials, CellObs};
use nonsearch_generators::{MoriTree, SeedSequence};
use std::collections::BTreeMap;
use std::fmt;

/// Result of the exact exchangeability check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeabilityCheck {
    /// Probability mass of the conditioning event.
    pub event_mass: f64,
    /// Largest absolute discrepancy `|P(G ∧ E) − P(σ(G) ∧ E)|` over all
    /// outcomes `G` and window transpositions `σ`.
    pub max_discrepancy: f64,
    /// Number of (outcome, transposition) pairs compared.
    pub comparisons: usize,
}

impl ExchangeabilityCheck {
    /// `true` if the distribution is exchangeable up to `tol`.
    pub fn is_exchangeable(&self, tol: f64) -> bool {
        self.max_discrepancy <= tol
    }
}

impl fmt::Display for ExchangeabilityCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event mass {:.6}, max discrepancy {:.3e} over {} comparisons",
            self.event_mass, self.max_discrepancy, self.comparisons
        )
    }
}

/// Exactly verifies Lemma 2 on trees of size `window.b()`: conditional
/// on `E_{a,b}`, the tree distribution is invariant under every
/// transposition of window vertices.
///
/// # Errors
///
/// Propagates [`CoreError::InvalidParameter`] from the enumerator
/// (`window.b() ≤ 12` required).
pub fn exact_window_exchangeability(
    window: &EquivalenceWindow,
    p: f64,
) -> crate::Result<ExchangeabilityCheck> {
    let n = window.minimum_tree_size();
    let dist = enumerate_mori_trees(n, p)?;
    let in_event = |fathers: &Vec<usize>| -> bool {
        ((window.a() + 1)..=window.b()).all(|k| fathers[k - 2] <= window.a())
    };
    // Index outcomes satisfying the event. A BTreeMap (not HashMap)
    // keeps the discrepancy fold below in sorted-key order, so the
    // reported maximum is reproducible bit for bit across runs.
    let mut event_prob: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
    let mut event_mass = 0.0;
    for (fathers, prob) in dist.outcomes() {
        if in_event(fathers) {
            *event_prob.entry(fathers.clone()).or_insert(0.0) += *prob;
            event_mass += *prob;
        }
    }
    let members = window.members();
    let mut max_discrepancy: f64 = 0.0;
    let mut comparisons = 0usize;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            let sigma = Permutation::transposition(n, members[i], members[j]);
            for (fathers, prob) in &event_prob {
                let permuted = sigma.apply_to_fathers(fathers);
                let other = event_prob.get(&permuted).copied().unwrap_or(0.0);
                max_discrepancy = max_discrepancy.max((prob - other).abs());
                comparisons += 1;
            }
        }
    }
    Ok(ExchangeabilityCheck {
        event_mass,
        max_discrepancy,
        comparisons,
    })
}

/// Result of the sampled symmetry check.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetryReport {
    /// Conditioned sample size (trials on which the event held).
    pub accepted: usize,
    /// Total trials attempted.
    pub attempted: usize,
    /// Mean father label of each window position (index 0 = label `a+1`).
    pub father_means: Vec<f64>,
    /// Mean final indegree of each window position.
    pub indegree_means: Vec<f64>,
    /// Largest pairwise z-statistic between window positions' father
    /// means; exchangeability ⇒ asymptotically standard normal, so
    /// values ≲ 4 are consistent with symmetry.
    pub max_z: f64,
}

impl fmt::Display for SymmetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {}/{} conditioned samples, max |z| = {:.2}",
            self.accepted, self.attempted, self.max_z
        )
    }
}

/// Samples Móri trees of size `window.b()` conditional on `E_{a,b}`
/// (by rejection) on `threads` workers (0 = all cores) and tests that
/// window positions are statistically interchangeable. Trial `t`
/// draws from `SeedSequence::new(seed).child_rng(t)` and the per-slot
/// sums add up in trial order, so the report is bit-identical for any
/// thread count. Returns the scheduler's observation of the run next
/// to the report; each trial's time is generation time.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for bad `p` or zero `trials`.
/// * [`CoreError::NoAcceptedSamples`] if no trial satisfied the event.
pub fn sampled_window_symmetry(
    window: &EquivalenceWindow,
    p: f64,
    trials: usize,
    seed: u64,
    threads: usize,
) -> crate::Result<(SymmetryReport, CellObs)> {
    check_probability("p", p)?;
    if trials == 0 {
        return Err(CoreError::invalid("trials", 0usize, "a positive count"));
    }
    let seeds = SeedSequence::new(seed);
    let size = window.minimum_tree_size();
    let w = window.len();
    let mut accepted = 0usize;
    let mut father_sum = vec![0.0f64; w];
    let mut father_sq = vec![0.0f64; w];
    let mut indeg_sum = vec![0.0f64; w];
    let obs = run_trials(
        trials,
        threads,
        &seeds,
        || (),
        // A trial yields each window slot's (father label, indegree),
        // or nothing when the event fails.
        |(), obs, t, _| {
            obs.phases.time_fetch(false, || {
                let mut rng = seeds.child_rng(t as u64);
                let tree =
                    MoriTree::sample(size, p, &mut rng).expect("window sizes are valid tree sizes");
                if !mori_window_event_holds(tree.trace(), window) {
                    return None;
                }
                let mut slots: Vec<(usize, usize)> = ((window.a() + 1)..=window.b())
                    .map(|label| (tree.father_of_label(label).expect("covered").label(), 0))
                    .collect();
                for r in tree.trace() {
                    if window.contains_label(r.father.label()) {
                        slots[r.father.label() - window.a() - 1].1 += 1;
                    }
                }
                Some(slots)
            })
        },
        |slots| {
            if let Some(slots) = slots {
                accepted += 1;
                for (slot, (father, indegree)) in slots.into_iter().enumerate() {
                    let father = father as f64;
                    father_sum[slot] += father;
                    father_sq[slot] += father * father;
                    indeg_sum[slot] += indegree as f64;
                }
            }
        },
    );
    if accepted == 0 {
        return Err(CoreError::NoAcceptedSamples { trials });
    }
    let nacc = accepted as f64;
    let father_means: Vec<f64> = father_sum.iter().map(|s| s / nacc).collect();
    let indegree_means: Vec<f64> = indeg_sum.iter().map(|s| s / nacc).collect();
    let variances: Vec<f64> = father_sq
        .iter()
        .zip(&father_means)
        .map(|(sq, m)| (sq / nacc - m * m).max(0.0))
        .collect();
    let mut max_z = 0.0f64;
    for i in 0..w {
        for j in (i + 1)..w {
            let se = ((variances[i] + variances[j]) / nacc).sqrt();
            if se > 0.0 {
                max_z = max_z.max((father_means[i] - father_means[j]).abs() / se);
            }
        }
    }
    let report = SymmetryReport {
        accepted,
        attempted: trials,
        father_means,
        indegree_means,
        max_z,
    };
    Ok((report, obs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma2_holds_exactly_on_small_trees() {
        for &p in &[0.0, 0.3, 0.5, 0.8, 1.0] {
            let window = EquivalenceWindow::with_bounds(4, 7);
            let check = exact_window_exchangeability(&window, p).unwrap();
            assert!(check.is_exchangeable(1e-12), "p = {p}: {check}");
            assert!(check.event_mass > 0.0);
            assert!(check.comparisons > 0);
        }
    }

    #[test]
    fn lemma2_also_holds_for_the_prescribed_window() {
        // The Lemma 3 window from anchor 6: [[7, 8]], trees of size 8.
        let window = EquivalenceWindow::from_anchor(6);
        let check = exact_window_exchangeability(&window, 0.6).unwrap();
        assert!(check.is_exchangeable(1e-12), "{check}");
    }

    #[test]
    fn unconditioned_distribution_is_not_exchangeable() {
        // Without conditioning, vertex 7 can father vertex 8 but not vice
        // versa, so the raw distribution must be asymmetric. We simulate
        // "no conditioning" with the trivial event (window anchored high
        // enough to allow all fathers — here force it by using a window
        // whose event is everything: a = b−1 ≥ everything possible? No:
        // instead verify that extending the event breaks symmetry).
        let p = 0.5;
        let dist = enumerate_mori_trees(8, p).unwrap();
        // Compare P(N_8 = 7) with P(N_7 = ... ) under a *swapped* vector:
        // pick the outcome where 8 → 7 and note its swap is infeasible.
        let mass_8_to_7 = dist.mass_where(|f| f[6] == 7);
        assert!(mass_8_to_7 > 0.0);
        // Any σ swapping 7 and 8 maps it to a vector with N_7 = 8 — which
        // has probability zero. Hence no exchangeability without E.
    }

    /// `sampled_window_symmetry` as one serial loop over the trials: the
    /// bit-for-bit reference for its in-order fold.
    fn serial_reference(
        window: &EquivalenceWindow,
        p: f64,
        trials: usize,
        seed: u64,
    ) -> crate::Result<SymmetryReport> {
        check_probability("p", p)?;
        if trials == 0 {
            return Err(CoreError::invalid("trials", 0usize, "a positive count"));
        }
        let seeds = SeedSequence::new(seed);
        let size = window.minimum_tree_size();
        let w = window.len();
        let mut accepted = 0usize;
        let mut father_sum = vec![0.0f64; w];
        let mut father_sq = vec![0.0f64; w];
        let mut indeg_sum = vec![0.0f64; w];
        for t in 0..trials {
            let mut rng = seeds.child_rng(t as u64);
            let tree =
                MoriTree::sample(size, p, &mut rng).expect("window sizes are valid tree sizes");
            if !mori_window_event_holds(tree.trace(), window) {
                continue;
            }
            accepted += 1;
            let mut indegree = vec![0usize; w];
            for r in tree.trace() {
                if window.contains_label(r.father.label()) {
                    indegree[r.father.label() - window.a() - 1] += 1;
                }
            }
            for (slot, label) in ((window.a() + 1)..=window.b()).enumerate() {
                let father = tree.father_of_label(label).expect("covered").label() as f64;
                father_sum[slot] += father;
                father_sq[slot] += father * father;
                indeg_sum[slot] += indegree[slot] as f64;
            }
        }
        if accepted == 0 {
            return Err(CoreError::NoAcceptedSamples { trials });
        }
        let nacc = accepted as f64;
        let father_means: Vec<f64> = father_sum.iter().map(|s| s / nacc).collect();
        let indegree_means: Vec<f64> = indeg_sum.iter().map(|s| s / nacc).collect();
        let variances: Vec<f64> = father_sq
            .iter()
            .zip(&father_means)
            .map(|(sq, m)| (sq / nacc - m * m).max(0.0))
            .collect();
        let mut max_z = 0.0f64;
        for i in 0..w {
            for j in (i + 1)..w {
                let se = ((variances[i] + variances[j]) / nacc).sqrt();
                if se > 0.0 {
                    max_z = max_z.max((father_means[i] - father_means[j]).abs() / se);
                }
            }
        }
        Ok(SymmetryReport {
            accepted,
            attempted: trials,
            father_means,
            indegree_means,
            max_z,
        })
    }

    #[test]
    fn sampled_symmetry_matches_the_serial_loop_at_any_thread_count() {
        let window = EquivalenceWindow::from_anchor(40);
        for (p, trials, seed) in [(0.3, 700, 5), (0.8, 400, 6)] {
            let reference = serial_reference(&window, p, trials, seed).unwrap();
            for threads in [1, 4] {
                let (report, obs) =
                    sampled_window_symmetry(&window, p, trials, seed, threads).unwrap();
                // Exact f64 equality: the sums must add up in the serial
                // loop's order.
                assert_eq!(report, reference, "p={p} threads={threads}");
                assert_eq!(obs.metrics.trials, trials as u64);
            }
        }
    }

    #[test]
    fn sampled_symmetry_for_moderate_windows() {
        let window = EquivalenceWindow::from_anchor(50); // [[51, 57]]
        let (report, _) = sampled_window_symmetry(&window, 0.4, 4000, 11, 2).unwrap();
        assert!(report.accepted > 500, "acceptance too low: {report}");
        assert!(report.max_z < 4.0, "symmetry rejected: {report}");
        assert_eq!(report.father_means.len(), window.len());
    }

    #[test]
    fn no_accepted_samples_is_an_error() {
        // p = 0 with a huge window makes the event extremely unlikely;
        // with 1 trial the rejection sampler realistically fails.
        let window = EquivalenceWindow::with_bounds(2, 12);
        let err = sampled_window_symmetry(&window, 0.0, 1, 0, 1);
        // Either an error or (improbably) a pass; accept both but check
        // the error variant is the documented one when it fails.
        if let Err(e) = err {
            assert!(matches!(e, CoreError::NoAcceptedSamples { .. }));
        }
    }

    #[test]
    fn check_display() {
        let window = EquivalenceWindow::with_bounds(4, 6);
        let check = exact_window_exchangeability(&window, 0.5).unwrap();
        assert!(check.to_string().contains("event mass"));
    }
}
