//! Property-based tests: generator invariants under arbitrary parameters.

use nonsearch_generators::{
    degree_preserving_rewire, power_law_degree_sequence, rng_from_seed, BarabasiAlbert,
    ConfigModel, CooperFrieze, CooperFriezeConfig, KleinbergGrid, MergedMori, MoriTree,
    PowerLawConfig, SimplificationPolicy, UniformAttachment,
};
use nonsearch_graph::{degree_sequence, is_connected, GraphProperties, NodeId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mori_tree_is_always_a_tree(
        n in 2usize..200,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let tree = MoriTree::sample(n, p, &mut rng_from_seed(seed)).unwrap();
        let und = tree.undirected();
        prop_assert!(und.is_tree());
        // Fathers strictly older, trace covers everyone.
        for k in 2..=n {
            let father = tree.father_of_label(k).unwrap();
            prop_assert!(father.label() < k);
        }
        prop_assert_eq!(tree.trace().len(), n - 1);
    }

    #[test]
    fn merged_mori_shape(
        n in 2usize..60,
        m in 1usize..5,
        p in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let merged = MergedMori::sample(n, m, p, &mut rng_from_seed(seed)).unwrap();
        let g = merged.undirected();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n * m - 1);
        prop_assert!(is_connected(&g));
        // Every non-root block sends exactly m edges.
        let mut out_degree = vec![0usize; n];
        for r in merged.tree_trace() {
            out_degree[merged.block_of_tree_label(r.child.label()).index()] += 1;
        }
        prop_assert!(out_degree[1..].iter().all(|&d| d == m));
    }

    #[test]
    fn cooper_frieze_always_connected_with_exact_size(
        n in 2usize..150,
        alpha in 0.05f64..=1.0,
        beta in 0.0f64..=1.0,
        gamma in 0.0f64..=1.0,
        delta in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let one = nonsearch_generators::DiscreteDistribution::constant(1).unwrap();
        let cfg = CooperFriezeConfig::new(alpha, beta, gamma, delta, one.clone(), one)
            .unwrap();
        let cf = CooperFrieze::sample(n, &cfg, &mut rng_from_seed(seed)).unwrap();
        let g = cf.undirected();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(is_connected(&g));
        prop_assert_eq!(cf.new_step_count(), n - 2);
        prop_assert_eq!(cf.trace().len(), g.edge_count());
    }

    #[test]
    fn barabasi_albert_min_degree_and_simplicity(
        n in 6usize..120,
        m in 1usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(n >= m + 2);
        let ba = BarabasiAlbert::sample(n, m, &mut rng_from_seed(seed)).unwrap();
        let und = ba.undirected();
        prop_assert!(is_connected(&und));
        prop_assert_eq!(und.self_loop_count(), 0);
        let min_degree = und.nodes().map(|v| und.degree(v)).min().unwrap();
        prop_assert!(min_degree >= 1);
    }

    #[test]
    fn uniform_attachment_is_simple_and_connected(
        n in 2usize..150,
        m in 1usize..4,
        seed in 0u64..1000,
    ) {
        let ua = UniformAttachment::sample(n, m, &mut rng_from_seed(seed)).unwrap();
        let und = ua.undirected();
        prop_assert!(is_connected(&und));
        prop_assert_eq!(und.self_loop_count(), 0);
        prop_assert_eq!(und.parallel_edge_count(), 0);
    }

    #[test]
    fn power_law_sequence_in_bounds_and_even(
        n in 1usize..500,
        exp_centi in 150u32..350,
        d_min in 1usize..4,
        seed in 0u64..1000,
    ) {
        let exponent = exp_centi as f64 / 100.0;
        let cfg = PowerLawConfig::new(exponent, d_min).unwrap();
        let result = power_law_degree_sequence(n, &cfg, &mut rng_from_seed(seed));
        if let Ok(seq) = result {
            prop_assert_eq!(seq.len(), n);
            prop_assert_eq!(seq.iter().sum::<usize>() % 2, 0);
            let cutoff = cfg.cutoff_for(n);
            prop_assert!(seq.iter().all(|&d| d >= d_min && d <= cutoff));
        }
        // Err is allowed only in the unfixable constant-degree case.
    }

    #[test]
    fn config_model_multigraph_preserves_degrees(
        degrees in proptest::collection::vec(0usize..8, 2..40),
        seed in 0u64..1000,
    ) {
        prop_assume!(degrees.iter().sum::<usize>() % 2 == 0);
        let cm = ConfigModel::sample(
            &degrees,
            SimplificationPolicy::Multigraph,
            &mut rng_from_seed(seed),
        )
        .unwrap();
        for (i, &d) in degrees.iter().enumerate() {
            prop_assert_eq!(cm.graph().degree(NodeId::new(i)), d);
        }
    }

    #[test]
    fn kleinberg_edge_count_formula(
        side in 2usize..16,
        r_centi in 0u32..400,
        q in 0usize..3,
        seed in 0u64..1000,
    ) {
        let r = r_centi as f64 / 100.0;
        let grid = KleinbergGrid::sample(side, r, q, &mut rng_from_seed(seed)).unwrap();
        let n = side * side;
        prop_assert_eq!(grid.graph().node_count(), n);
        prop_assert_eq!(grid.graph().edge_count(), 2 * side * (side - 1) + q * n);
        prop_assert_eq!(grid.graph().self_loop_count(), 0);
    }


    #[test]
    fn edge_swap_preserves_degree_sequence_and_simplicity(
        n in 8usize..120,
        m in 1usize..4,
        swaps_per_edge in 1usize..12,
        seed in 0u64..1000,
    ) {
        prop_assume!(n >= m + 2);
        // Barabási–Albert samples are simple, so they are valid chain
        // starting states for any parameter draw.
        let g = BarabasiAlbert::sample(n, m, &mut rng_from_seed(seed))
            .unwrap()
            .undirected();
        let (null, stats) =
            degree_preserving_rewire(&g, swaps_per_edge, &mut rng_from_seed(seed ^ 0xDEAD))
                .unwrap();
        // The exact per-vertex degree sequence is invariant…
        prop_assert_eq!(degree_sequence(&null), degree_sequence(&g));
        prop_assert_eq!(null.node_count(), g.node_count());
        prop_assert_eq!(null.edge_count(), g.edge_count());
        // …and the chain never leaves the simple-graph state space.
        prop_assert_eq!(null.self_loop_count(), 0);
        prop_assert_eq!(null.parallel_edge_count(), 0);
        prop_assert!(stats.applied <= stats.attempted);
    }
}
