//! Property-based tests: generator invariants under arbitrary parameters.

use nonsearch_generators::{
    degree_preserving_rewire, power_law_degree_sequence, rng_from_seed, BarabasiAlbert,
    ConfigModel, CooperFrieze, CooperFriezeConfig, KleinbergGrid, MergedMori, MoriTree,
    PowerLawConfig, SimplificationPolicy, UniformAttachment,
};
use nonsearch_graph::{degree_sequence, is_connected, GraphProperties, NodeId, UndirectedCsr};
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// The edge-swap chain as it was before the in-place slot arrays: every
/// edge in a `HashSet` of unordered pairs, two lookups, two removes and
/// two inserts per applied swap. Kept verbatim as the reference model
/// `degree_preserving_rewire` must match exactly — output graph, slot
/// order, `SwapStats` and errors.
mod reference {
    use nonsearch_generators::{GeneratorError, SwapStats};
    use nonsearch_graph::{GraphProperties, UndirectedCsr};
    use rand::Rng;
    use std::collections::HashSet;

    pub fn degree_preserving_rewire<R: Rng + ?Sized>(
        graph: &UndirectedCsr,
        swaps_per_edge: usize,
        rng: &mut R,
    ) -> nonsearch_generators::Result<(UndirectedCsr, SwapStats)> {
        if graph.self_loop_count() > 0 {
            return Err(GeneratorError::invalid(
                "graph",
                format!("{} self-loops", graph.self_loop_count()),
                "a simple graph (no self-loops)",
            ));
        }
        if graph.parallel_edge_count() > 0 {
            return Err(GeneratorError::invalid(
                "graph",
                format!("{} parallel edges", graph.parallel_edge_count()),
                "a simple graph (no parallel edges)",
            ));
        }

        let n = graph.node_count();
        let mut edges: Vec<(usize, usize)> = graph
            .edges()
            .map(|(_, (u, v))| (u.index(), v.index()))
            .collect();
        let m = edges.len();
        let mut stats = SwapStats {
            attempted: 0,
            applied: 0,
        };
        if m < 2 {
            // Nothing to swap; the null model is the graph itself.
            return Ok((rebuild(n, &edges), stats));
        }

        let key = |u: usize, v: usize| -> (usize, usize) { (u.min(v), u.max(v)) };
        let mut present: HashSet<(usize, usize)> = edges.iter().map(|&(u, v)| key(u, v)).collect();

        let target = swaps_per_edge * m;
        // Rejection headroom: dense or rigid graphs reject most proposals;
        // beyond this budget we accept however far the chain got.
        let max_attempts = target.saturating_mul(20).max(64);
        while stats.applied < target && stats.attempted < max_attempts {
            stats.attempted += 1;
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            // Swapping the orientation of one picked edge makes the proposal
            // distribution symmetric over both rewirings of the 2-swap.
            let (c, d) = if rng.gen_bool(0.5) {
                edges[j]
            } else {
                let (c, d) = edges[j];
                (d, c)
            };
            // Proposed replacement: (a, d) and (c, b).
            if a == d || c == b {
                continue; // self-loop
            }
            let (k1, k2) = (key(a, d), key(c, b));
            if k1 == k2 || present.contains(&k1) || present.contains(&k2) {
                continue; // parallel edge
            }
            present.remove(&key(a, b));
            present.remove(&key(c, d));
            present.insert(k1);
            present.insert(k2);
            edges[i] = (a, d);
            edges[j] = (c, b);
            stats.applied += 1;
        }

        Ok((rebuild(n, &edges), stats))
    }

    fn rebuild(n: usize, edges: &[(usize, usize)]) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, edges.iter().copied())
            .expect("swapped endpoints stay within the original vertex range")
    }
}

/// Strategy: a starting graph for the edge-swap chain — Barabási–Albert
/// samples, Móri trees, G(n, m), stars, `K_5` (where every proposal is
/// rejected), graphs with 0, 1 or 2 edges, and multigraphs the chain must
/// refuse — with its slots shuffled half of the time, so the chain sees
/// arbitrary incidence orders.
fn arb_swap_input() -> impl Strategy<Value = UndirectedCsr> {
    (0usize..7, 0usize..100, 1usize..4, 0u64..u64::MAX, 0u8..2).prop_map(
        |(kind, size, m, seed, shuffle)| {
            let rng = &mut rng_from_seed(seed);
            let mut g = match kind {
                0 => BarabasiAlbert::sample(size.max(m + 2), m, rng)
                    .unwrap()
                    .undirected(),
                1 => {
                    let p = rng.gen_range(0..=100) as f64 / 100.0;
                    MoriTree::sample(size.max(2), p, rng).unwrap().undirected()
                }
                2 => {
                    // G(n, m): distinct non-loop pairs in draw order.
                    let n = 2 + size % 30;
                    let target = (size * m / 2).min(n * (n - 1) / 2);
                    let mut pairs: Vec<(usize, usize)> = Vec::new();
                    while pairs.len() < target {
                        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        if u != v && !pairs.contains(&(u, v)) && !pairs.contains(&(v, u)) {
                            pairs.push((u, v));
                        }
                    }
                    UndirectedCsr::from_edges(n, pairs).unwrap()
                }
                3 => {
                    let leaves = size % 12;
                    UndirectedCsr::from_edges(leaves + 1, (1..=leaves).map(|i| (0, i))).unwrap()
                }
                4 => {
                    let pairs = (0..5).flat_map(|u| (u + 1..5).map(move |v| (u, v)));
                    UndirectedCsr::from_edges(5, pairs).unwrap()
                }
                5 => {
                    // 0, 1 or 2 edges; the 2-edge graphs are a path or a
                    // matching, and the 0-edge ones include n = 0.
                    let edges = [[(0, 1), (1, 2)], [(0, 1), (2, 3)]][m % 2];
                    let count = size % 3;
                    let n = if count == 0 { size % 4 } else { 4 };
                    UndirectedCsr::from_edges(n, edges[..count].iter().copied()).unwrap()
                }
                _ => {
                    // A simple BA graph plus one self-loop or one
                    // duplicated edge.
                    let g = BarabasiAlbert::sample(size.max(m + 2), m, rng)
                        .unwrap()
                        .undirected();
                    let mut edges: Vec<(usize, usize)> = g
                        .edges()
                        .map(|(_, (u, v))| (u.index(), v.index()))
                        .collect();
                    let extra = if seed % 2 == 0 {
                        (edges[0].0, edges[0].0)
                    } else {
                        edges[edges.len() / 2]
                    };
                    edges.push(extra);
                    UndirectedCsr::from_edges(g.node_count(), edges).unwrap()
                }
            };
            if shuffle == 1 {
                g.shuffle_slots(rng);
            }
            g
        },
    )
}

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
            out_degree[r.child.index() / m] += 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edge_swap_matches_the_hashset_chain(
        g in arb_swap_input(),
        swaps_per_edge in 0usize..=12,
        chain_seed in 0u64..u64::MAX,
    ) {
        let mut rng_new = rng_from_seed(chain_seed);
        let mut rng_old = rng_from_seed(chain_seed);
        let new = degree_preserving_rewire(&g, swaps_per_edge, &mut rng_new);
        let old = reference::degree_preserving_rewire(&g, swaps_per_edge, &mut rng_old);
        // Same graph (slot order included), same stats, same error…
        prop_assert_eq!(new, old);
        // …and the same number of draws taken from the caller's stream.
        prop_assert_eq!(rng_new.next_u64(), rng_old.next_u64());
    }
}
