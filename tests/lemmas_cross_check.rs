//! Cross-crate validation of Lemmas 2 and 3: closed forms (core) vs
//! simulation (generators) vs enumeration.

use nonsearch::core::{
    enumerate_mori_trees, estimate_mori_event_probability, exact_window_exchangeability,
    lemma3_bound, mori_event_probability_exact, mori_window_event_holds, sampled_window_symmetry,
    EquivalenceWindow,
};
use nonsearch::generators::{rng_from_seed, MoriTree};

#[test]
fn lemma3_exact_monte_carlo_and_bound_agree() {
    for &p in &[0.25, 0.5, 0.9] {
        let a = 400;
        let window = EquivalenceWindow::from_anchor(a);
        let exact = mori_event_probability_exact(window.a(), window.b(), p).unwrap();
        // Lemma 3's bound holds for the exact value…
        assert!(exact >= lemma3_bound(p) - 1e-12, "p = {p}");
        // …and Monte Carlo agrees with the exact product.
        let (mc, _) = estimate_mori_event_probability(&window, p, 1500, 7, 2).unwrap();
        assert!(
            (mc.estimate - exact).abs() < 4.0 * mc.std_error + 0.02,
            "p = {p}: MC {} vs exact {exact}",
            mc.estimate
        );
    }
}

#[test]
fn lemma2_exact_exchangeability_small_trees() {
    for &p in &[0.0, 0.5, 1.0] {
        let window = EquivalenceWindow::with_bounds(5, 8);
        let check = exact_window_exchangeability(&window, p).unwrap();
        assert!(check.is_exchangeable(1e-12), "p = {p}: {check}");
    }
}

#[test]
fn lemma2_sampled_symmetry_medium_trees() {
    let window = EquivalenceWindow::from_anchor(80);
    let (report, _) = sampled_window_symmetry(&window, 0.5, 3000, 13, 2).unwrap();
    assert!(report.max_z < 4.5, "symmetry rejected: {report}");
}

#[test]
fn enumeration_agrees_with_sampling() {
    // P(E) on tiny windows: enumerate exactly, then sample.
    let p = 0.6;
    let window = EquivalenceWindow::with_bounds(4, 6);
    let dist = enumerate_mori_trees(6, p).unwrap();
    // Window vertices are labels 5 and 6 → fathers indices 3 and 4.
    let exact_mass = dist.mass_where(|f| f[3] <= 4 && f[4] <= 4);
    let closed = mori_event_probability_exact(4, 6, p).unwrap();
    assert!((exact_mass - closed).abs() < 1e-12);

    let mut hits = 0usize;
    let trials = 4000;
    let mut rng = rng_from_seed(3);
    for _ in 0..trials {
        let tree = MoriTree::sample(6, p, &mut rng).unwrap();
        hits += mori_window_event_holds(tree.trace(), &window) as usize;
    }
    let frequency = hits as f64 / trials as f64;
    assert!(
        (frequency - closed).abs() < 0.03,
        "sampled {frequency} vs closed {closed}"
    );
}

#[test]
fn event_probability_converges_to_positive_constant() {
    // Lemma 3's point: with the √a window, P(E) does NOT vanish as the
    // graph grows — it stays bounded below by e^{-(1-p)}.
    let p = 0.3;
    let probs: Vec<f64> = [100usize, 1_000, 10_000, 100_000]
        .iter()
        .map(|&a| {
            let w = EquivalenceWindow::from_anchor(a);
            mori_event_probability_exact(w.a(), w.b(), p).unwrap()
        })
        .collect();
    for prob in &probs {
        assert!(*prob >= lemma3_bound(p) - 1e-12);
        assert!(*prob <= 1.0);
    }
    // And it stabilizes: the largest two anchors differ by little.
    assert!((probs[2] - probs[3]).abs() < 0.02, "{probs:?}");
}
