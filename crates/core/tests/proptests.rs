//! Property-based tests: the permutation action on graphs, window
//! invariants, probability bounds, and the degrees-only samples.

use nonsearch_core::{
    lemma1_lower_bound, lemma3_bound, mori_conditional_factor, mori_event_probability_exact,
    BarabasiAlbertModel, CooperFriezeModel, EquivalenceWindow, GraphModel, MergedMoriModel,
    ModelSource, Permutation, PowerLawGiantModel, UniformAttachmentModel,
};
use nonsearch_engine::GraphSource;
use nonsearch_generators::{rng_from_seed, SeedSequence};
use nonsearch_graph::{degree_sequence, NodeId, UndirectedCsr};
use proptest::prelude::*;

/// E8's six models, merged Móri with `m ∈ {2, 3}` (whose merged blocks
/// carry self-loops) and the power-law giant (the default, graph-reading
/// degrees).
fn degree_models() -> Vec<Box<dyn GraphModel + Sync>> {
    vec![
        Box::new(MergedMoriModel { p: 0.3, m: 1 }),
        Box::new(MergedMoriModel { p: 0.6, m: 1 }),
        Box::new(MergedMoriModel { p: 0.9, m: 1 }),
        Box::new(CooperFriezeModel::balanced(0.7)),
        Box::new(BarabasiAlbertModel { m: 2 }),
        Box::new(UniformAttachmentModel { m: 1 }),
        Box::new(MergedMoriModel { p: 0.6, m: 2 }),
        Box::new(MergedMoriModel { p: 0.5, m: 3 }),
        Box::new(PowerLawGiantModel {
            exponent: 2.5,
            d_min: 1,
        }),
    ]
}

/// A transposition of two seed-chosen vertices (the identity when they
/// coincide) — the permutations Lemma 2's equivalence check applies.
fn arb_transposition(n: usize, seed: u64) -> Permutation {
    let (u, v) = (seed as usize % n, (seed as usize / n) % n);
    Permutation::transposition(n, NodeId::new(u), NodeId::new(v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permutation_graph_action_is_a_group_action(
        n in 2usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..30),
        s1 in 0u64..300,
        s2 in 0u64..300,
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        let a = arb_transposition(n, s1);
        let b = arb_transposition(n, s2);
        // a(b(G)) is the action of the composed images, edge for edge.
        let ab = a.apply_to_graph(&b.apply_to_graph(&g));
        for ((_, (u, v)), (_, uv)) in g.edges().zip(ab.edges()) {
            prop_assert_eq!(uv, (a.image(b.image(u)), a.image(b.image(v))));
        }
        // A transposition undoes itself; identity fixes G; the action
        // preserves the degree multiset.
        prop_assert_eq!(a.apply_to_graph(&a.apply_to_graph(&g)), g.clone());
        prop_assert_eq!(Permutation::identity(n).apply_to_graph(&g), g.clone());
        let mut before: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let image = a.apply_to_graph(&g);
        let mut after: Vec<usize> = image.nodes().map(|v| image.degree(v)).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn window_size_is_floor_sqrt(a in 2usize..100_000) {
        let w = EquivalenceWindow::from_anchor(a);
        let width = w.len();
        prop_assert!(width * width < a);
        prop_assert!((width + 1) * (width + 1) > a - 1);
        prop_assert!(w.contains_label(a + 1) || w.is_empty());
        prop_assert!(!w.contains_label(a));
        prop_assert!(!w.contains_label(w.b() + 1));
    }

    #[test]
    fn conditional_factors_are_probabilities(
        a in 2usize..500,
        width in 1usize..60,
        p_centi in 0u32..=100,
    ) {
        let p = p_centi as f64 / 100.0;
        for k in (a + 1)..=(a + width) {
            let f = mori_conditional_factor(k, a, p).unwrap();
            prop_assert!((0.0..=1.0).contains(&f), "k={k} a={a} p={p}: {f}");
        }
    }

    #[test]
    fn event_probability_monotone_in_width_and_bounded(
        a in 2usize..2000,
        width in 0usize..100,
        p_centi in 0u32..=100,
    ) {
        let p = p_centi as f64 / 100.0;
        let shorter = mori_event_probability_exact(a, a + width, p).unwrap();
        let longer = mori_event_probability_exact(a, a + width + 1, p).unwrap();
        prop_assert!(longer <= shorter + 1e-15);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&shorter));
    }

    #[test]
    fn lemma3_bound_holds_for_all_anchors_and_p(
        a in 2usize..50_000,
        p_centi in 0u32..=100,
    ) {
        let p = p_centi as f64 / 100.0;
        let w = EquivalenceWindow::from_anchor(a);
        let exact = mori_event_probability_exact(w.a(), w.b(), p).unwrap();
        prop_assert!(
            exact >= lemma3_bound(p) - 1e-12,
            "a={a} p={p}: {exact} < {}",
            lemma3_bound(p)
        );
    }

    #[test]
    fn lemma1_bound_is_monotone(
        size in 0usize..10_000,
        prob_centi in 0u32..=100,
    ) {
        let prob = prob_centi as f64 / 100.0;
        let bound = lemma1_lower_bound(size, prob);
        prop_assert!(bound >= 0.0);
        prop_assert!(bound <= size as f64 / 2.0 + 1e-12);
        prop_assert!(lemma1_lower_bound(size + 1, prob) >= bound);
    }
}

proptest! {
    // Each case samples nine models twice: fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn degrees_only_samples_match_the_sampled_graphs(
        n in 8usize..1500,
        seed in 0u64..u64::MAX,
    ) {
        for model in degree_models() {
            let graph = model.sample_graph(n, &mut rng_from_seed(seed));
            let degrees = model.sample_degrees(n, &mut rng_from_seed(seed));
            prop_assert_eq!(&degrees, &degree_sequence(&graph), "{}", model.name());
        }
    }

    #[test]
    fn model_source_degrees_match_its_trial_graphs(
        n in 8usize..1500,
        trial in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let seeds = SeedSequence::new(seed).subsequence(trial as u64);
        for model in degree_models() {
            let source = ModelSource::new(model.as_ref());
            let graph = source.trial_graph(n, trial, &seeds);
            let degrees = source.trial_degrees(n, trial, &seeds);
            prop_assert_eq!(&degrees, &degree_sequence(&graph), "{}", model.name());
            // E7 reads the maximum: the graph's `max_degree`.
            let (_, max) = graph.max_degree().expect("sampled graphs are non-empty");
            prop_assert_eq!(degrees.iter().max(), Some(&max), "{}", model.name());
        }
    }
}
