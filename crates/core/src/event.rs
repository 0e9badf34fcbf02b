//! The equivalence events of Lemma 2 and their Monte-Carlo estimation.

use crate::theory::{check_probability, CoreError};
use crate::window::EquivalenceWindow;
use nonsearch_engine::{run_trials, CellObs};
use nonsearch_generators::{AttachmentTrace, CooperFrieze, MoriTree, SeedSequence};
use std::fmt;

/// `true` if the Móri-tree event `E_{a,b} = ∩_{a<k≤b} {N_k ≤ a}` holds on
/// the given construction trace (Lemma 2).
///
/// # Panics
///
/// Panics if the trace does not cover the window (tree smaller than `b`).
pub fn mori_window_event_holds(trace: &AttachmentTrace, window: &EquivalenceWindow) -> bool {
    for k in (window.a() + 1)..=window.b() {
        let father = trace
            .father_of_label(k)
            .unwrap_or_else(|| panic!("trace does not cover window vertex {k}"));
        if father.label() > window.a() {
            return false;
        }
    }
    true
}

/// The Cooper–Frieze analogue of the window event, for configurations
/// with one edge per step (`q = p = δ_1`):
///
/// 1. every edge sourced at a window vertex targets a vertex `≤ a`,
/// 2. no edge targets a window vertex, and
/// 3. no window vertex sources more than its single arrival edge
///    (i.e. no Old step chose a window vertex as its initial vertex).
///
/// Together these make the window vertices interchangeable: each is a
/// fresh leaf whose only connection points into the old core.
pub fn cooper_frieze_window_event_holds(cf: &CooperFrieze, window: &EquivalenceWindow) -> bool {
    let trace = cf.trace();
    let mut out_count = vec![0usize; window.len()];
    for rec in trace.iter() {
        let child = rec.child.label();
        let father = rec.father.label();
        if window.contains_label(father) {
            return false; // (2)
        }
        if window.contains_label(child) {
            if father > window.a() {
                return false; // (1)
            }
            out_count[child - window.a() - 1] += 1;
        }
    }
    out_count.iter().all(|&c| c <= 1) // (3)
}

/// A Monte-Carlo estimate with its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventEstimate {
    /// Fraction of trials on which the event held.
    pub estimate: f64,
    /// Binomial standard error `√(p̂(1−p̂)/trials)`.
    pub std_error: f64,
    /// Number of trials.
    pub trials: usize,
    /// Number of successes.
    pub successes: usize,
}

impl fmt::Display for EventEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({}/{} trials)",
            self.estimate, self.std_error, self.successes, self.trials
        )
    }
}

/// Estimates `P(E_{a,b})` for the Móri tree by direct simulation:
/// `trials` independent trees of size `b` are sampled on `threads`
/// workers (0 = all cores) and the event is checked on each trace.
/// Trial `t` draws from `SeedSequence::new(seed).child_rng(t)`, so the
/// estimate is the same for any thread count. Returns the scheduler's
/// observation of the run next to the estimate; each trial's time is
/// generation time.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `p ∉ [0, 1]` or
/// `trials == 0`.
pub fn estimate_mori_event_probability(
    window: &EquivalenceWindow,
    p: f64,
    trials: usize,
    seed: u64,
    threads: usize,
) -> crate::Result<(EventEstimate, CellObs)> {
    check_probability("p", p)?;
    if trials == 0 {
        return Err(CoreError::invalid("trials", 0usize, "a positive count"));
    }
    let seeds = SeedSequence::new(seed);
    let tree_size = window.minimum_tree_size();
    let mut successes = 0usize;
    let obs = run_trials(
        trials,
        threads,
        &seeds,
        || (),
        |(), obs, t, _| {
            obs.phases.time_fetch(false, || {
                let mut rng = seeds.child_rng(t as u64);
                let tree = MoriTree::sample(tree_size, p, &mut rng)
                    .expect("window sizes are valid tree sizes");
                mori_window_event_holds(tree.trace(), window)
            })
        },
        |holds| successes += usize::from(holds),
    );
    let rate = successes as f64 / trials as f64;
    let estimate = EventEstimate {
        estimate: rate,
        std_error: (rate * (1.0 - rate) / trials as f64).sqrt(),
        trials,
        successes,
    };
    Ok((estimate, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::mori_event_probability_exact;
    use nonsearch_generators::{rng_from_seed, CooperFriezeConfig};

    #[test]
    fn event_checker_agrees_with_definition() {
        let mut rng = rng_from_seed(1);
        let window = EquivalenceWindow::with_bounds(5, 8);
        let mut seen_true = false;
        let mut seen_false = false;
        for _ in 0..200 {
            let tree = MoriTree::sample(8, 0.3, &mut rng).unwrap();
            let holds = mori_window_event_holds(tree.trace(), &window);
            let manual = (6..=8).all(|k| tree.father_of_label(k).unwrap().label() <= 5);
            assert_eq!(holds, manual);
            seen_true |= holds;
            seen_false |= !holds;
        }
        assert!(seen_true && seen_false, "both outcomes should occur");
    }

    #[test]
    fn monte_carlo_matches_exact_product() {
        let window = EquivalenceWindow::with_bounds(20, 24);
        for &p in &[0.2, 0.7] {
            let exact = mori_event_probability_exact(20, 24, p).unwrap();
            let (est, _) = estimate_mori_event_probability(&window, p, 3000, 42, 2).unwrap();
            assert!(
                (est.estimate - exact).abs() < 4.0 * est.std_error + 0.01,
                "p = {p}: estimated {} vs exact {exact}",
                est.estimate
            );
        }
    }

    #[test]
    fn p_one_event_always_holds() {
        let window = EquivalenceWindow::from_anchor(30);
        let (est, obs) = estimate_mori_event_probability(&window, 1.0, 200, 7, 2).unwrap();
        assert_eq!(est.successes, 200);
        assert_eq!(obs.metrics.trials, 200);
    }

    #[test]
    fn estimate_display() {
        let window = EquivalenceWindow::with_bounds(10, 12);
        let (est, _) = estimate_mori_event_probability(&window, 0.5, 100, 3, 1).unwrap();
        assert!(est.to_string().contains("trials"));
    }

    #[test]
    fn validation() {
        let window = EquivalenceWindow::with_bounds(10, 12);
        assert!(estimate_mori_event_probability(&window, 1.5, 10, 0, 1).is_err());
        assert!(estimate_mori_event_probability(&window, 0.5, 0, 0, 1).is_err());
    }

    #[test]
    fn estimates_are_identical_across_thread_counts_and_keep_the_serial_streams() {
        let window = EquivalenceWindow::from_anchor(60);
        let (one, obs) = estimate_mori_event_probability(&window, 0.4, 500, 19, 1).unwrap();
        let (four, _) = estimate_mori_event_probability(&window, 0.4, 500, 19, 4).unwrap();
        assert_eq!(one, four);
        assert_eq!(obs.metrics.trials, 500);
        // Trial t draws from the root's child stream t, so every prefix
        // of the trial sequence counts the successes of a serial loop
        // over those streams.
        let seeds = SeedSequence::new(19);
        let mut serial = 0;
        for trials in 1..=40 {
            let mut rng = seeds.child_rng(trials as u64 - 1);
            let tree = MoriTree::sample(window.minimum_tree_size(), 0.4, &mut rng).unwrap();
            serial += usize::from(mori_window_event_holds(tree.trace(), &window));
            let (est, _) = estimate_mori_event_probability(&window, 0.4, trials, 19, 2).unwrap();
            assert_eq!(est.successes, serial, "trials={trials}");
        }
    }

    #[test]
    fn cooper_frieze_event_detects_violations() {
        let cfg = CooperFriezeConfig::balanced(0.7).unwrap();
        let mut rng = rng_from_seed(9);
        let mut seen_true = false;
        let mut seen_false = false;
        for _ in 0..300 {
            let cf = CooperFrieze::sample(30, &cfg, &mut rng).unwrap();
            let window = EquivalenceWindow::with_bounds(26, 30);
            let holds = cooper_frieze_window_event_holds(&cf, &window);
            // Manual re-check from the trace.
            let trace = cf.trace();
            let manual = trace.iter().all(|r| {
                let (c, f) = (r.child.label(), r.father.label());
                !(27..=30).contains(&f) && (!(27..=30).contains(&c) || f <= 26)
            }) && (27..=30)
                .all(|w| trace.iter().filter(|r| r.child.label() == w).count() <= 1);
            assert_eq!(holds, manual);
            seen_true |= holds;
            seen_false |= !holds;
        }
        assert!(seen_true && seen_false, "both outcomes should occur");
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn undersized_trace_panics() {
        let mut rng = rng_from_seed(2);
        let tree = MoriTree::sample(5, 0.5, &mut rng).unwrap();
        let window = EquivalenceWindow::with_bounds(6, 9);
        let _ = mori_window_event_holds(tree.trace(), &window);
    }
}
