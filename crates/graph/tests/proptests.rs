//! Property-based tests for the graph substrate.

use nonsearch_graph::{
    bfs_distances, connected_components, EdgeId, GraphProperties, NodeId, UndirectedCsr,
};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::HashSet;

/// Strategy: a small random multigraph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..120);
        (Just(n), edges)
    })
}

/// Strategy: a random multigraph on `0..40` vertices, `n = 0` included,
/// with self-loops, parallel edges (a repeated prefix) and, since edges
/// are sparse at large `n`, isolated vertices.
fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        0usize..40,
        proptest::collection::vec((0usize..40, 0usize..40), 0..120),
        0usize..20,
    )
        .prop_map(|(n, raw, repeat)| {
            let mut edges: Vec<(usize, usize)> = if n == 0 {
                Vec::new()
            } else {
                raw.into_iter().map(|(u, v)| (u % n, v % n)).collect()
            };
            let prefix: Vec<_> = edges.iter().copied().take(repeat).collect();
            edges.extend(prefix);
            (n, edges)
        })
}

/// Test-only reference: the CSR builder the graph crate used before
/// `from_edges` became the one edge-list builder. Edges are first stored
/// as an append-only directed list; degrees are counted over both
/// endpoints, offsets are their prefix sums, and each edge `e = (s, t)`
/// in insertion order appends `(t, e)` to `s`'s slots, then `(s, e)` to
/// `t`'s.
fn reference_csr(n: usize, edges: &[(usize, usize)]) -> UndirectedCsr {
    let mut counts = vec![0usize; n];
    for &(s, t) in edges {
        counts[s] += 1;
        counts[t] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for c in &counts {
        acc += c;
        offsets.push(acc);
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut slots = vec![(NodeId::new(0), EdgeId::new(0)); acc];
    let mut edge_list = Vec::with_capacity(edges.len());
    for (i, &(s, t)) in edges.iter().enumerate() {
        let (e, s, t) = (EdgeId::new(i), NodeId::new(s), NodeId::new(t));
        slots[cursor[s.index()]] = (t, e);
        cursor[s.index()] += 1;
        slots[cursor[t.index()]] = (s, e);
        cursor[t.index()] += 1;
        edge_list.push((s, t));
    }
    UndirectedCsr::from_raw_parts(offsets, slots, edge_list).expect("reference CSR is valid")
}

/// Test-only reference: `parallel_edge_count` as it was defined before
/// the one-pass count, over a `HashSet` of unordered endpoint pairs.
fn reference_parallel_edge_count(g: &UndirectedCsr) -> usize {
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut extra = 0usize;
    for (_, (u, v)) in g.edges() {
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if !seen.insert(key) {
            extra += 1;
        }
    }
    extra
}

proptest! {
    // Fixed case count: keeps CI time bounded and independent of the
    // proptest default.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn degree_sum_is_twice_edge_count((n, edges) in arb_graph()) {
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    #[test]
    fn from_edges_matches_the_reference_builder((n, edges) in arb_multigraph()) {
        let g = UndirectedCsr::from_edges(n, edges.iter().copied()).unwrap();
        // Equality covers all three buffers, slot order included.
        prop_assert_eq!(g, reference_csr(n, &edges));
    }

    #[test]
    fn record_roundtrip_preserves_graph((n, edges) in arb_graph()) {
        // The buffers a `.nsg` record stores round-trip the graph.
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        let (offsets, slots, edge_list) = g.raw_parts();
        let back =
            UndirectedCsr::from_raw_parts(offsets.to_vec(), slots.to_vec(), edge_list.to_vec())
                .unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn raw_parts_roundtrip_preserves_shuffled_slot_order(
        (n, edges) in arb_multigraph(),
        seed in 0u64..u64::MAX,
    ) {
        let mut g = UndirectedCsr::from_edges(n, edges).unwrap();
        g.shuffle_slots(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
        let (offsets, slots, edge_list) = g.raw_parts();
        let back =
            UndirectedCsr::from_raw_parts(offsets.to_vec(), slots.to_vec(), edge_list.to_vec())
                .unwrap();
        prop_assert_eq!(&g, &back);
        for v in g.nodes() {
            prop_assert_eq!(g.incident(v), back.incident(v));
        }
    }

    #[test]
    fn incident_slots_resolve_consistently((n, edges) in arb_graph()) {
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        for v in g.nodes() {
            // Every slot names an edge whose endpoints are v and the
            // neighbor the slot reports.
            for &(w, e) in g.incident(v) {
                let (a, b) = g.edge_endpoints(e).unwrap();
                prop_assert!((a, b) == (v, w) || (a, b) == (w, v));
            }
        }
    }

    #[test]
    fn every_edge_appears_in_both_incidence_lists((n, edges) in arb_graph()) {
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        for (e, (u, v)) in g.edges() {
            prop_assert!(g.incident(u).iter().any(|&(w, ee)| ee == e && w == v));
            prop_assert!(g.incident(v).iter().any(|&(w, ee)| ee == e && w == u));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality_on_edges((n, edges) in arb_graph()) {
        let g = UndirectedCsr::from_edges(n, edges.clone()).unwrap();
        let dist = bfs_distances(&g, NodeId::new(0));
        // Adjacent vertices differ by at most 1 in BFS distance.
        for (_, (u, v)) in g.edges() {
            match (dist[u.index()], dist[v.index()]) {
                (Some(du), Some(dv)) => {
                    prop_assert!(du.abs_diff(dv) <= 1);
                }
                (None, None) => {}
                // One endpoint reachable, the other not: impossible.
                _ => prop_assert!(false, "edge spans reachable/unreachable"),
            }
        }
    }

    #[test]
    fn components_partition_vertices((n, edges) in arb_graph()) {
        let g = UndirectedCsr::from_edges(n, edges).unwrap();
        let cc = connected_components(&g);
        prop_assert_eq!(cc.sizes().iter().sum::<usize>(), g.node_count());
        prop_assert!(cc.count() >= 1);
        // Edge endpoints share a component.
        for (_, (u, v)) in g.edges() {
            prop_assert_eq!(cc.component_of(u), cc.component_of(v));
        }
    }

    #[test]
    fn block_merge_preserves_edges_and_degree_mass(
        n_blocks in 1usize..12,
        m in 1usize..5,
        seed_edges in proptest::collection::vec((0usize..1000, 0usize..1000), 0..60),
    ) {
        // The merged Móri construction: relabel vertex k to block k / m.
        let total = n_blocks * m;
        let edges: Vec<(usize, usize)> =
            seed_edges.iter().map(|&(u, v)| (u % total, v % total)).collect();
        let g = UndirectedCsr::from_edges(total, edges.iter().copied()).unwrap();
        let merged =
            UndirectedCsr::from_edges(n_blocks, edges.iter().map(|&(u, v)| (u / m, v / m)))
                .unwrap();
        prop_assert_eq!(merged.node_count(), n_blocks);
        prop_assert_eq!(merged.edge_count(), g.edge_count());
        // Every block's degree is the sum of its members' degrees.
        for b in 0..n_blocks {
            let members: usize = (b * m..(b + 1) * m).map(|k| g.degree(NodeId::new(k))).sum();
            prop_assert_eq!(merged.degree(NodeId::new(b)), members);
        }
    }

    #[test]
    fn parallel_edge_count_matches_the_hashset_reference(
        (n, edges) in arb_multigraph(),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut g = UndirectedCsr::from_edges(n, edges.iter().copied()).unwrap();
        prop_assert_eq!(g.parallel_edge_count(), reference_parallel_edge_count(&g));
        // The count reads incidence lists, so it must not depend on slot order.
        g.shuffle_slots(&mut rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed));
        prop_assert_eq!(g.parallel_edge_count(), reference_parallel_edge_count(&g));
    }
}
