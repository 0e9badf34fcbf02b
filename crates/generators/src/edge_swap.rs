//! Degree-preserving edge-swap randomization (the null model of
//! Maslov–Sneppen, used by Adamic et al. and Rosvall et al. to separate
//! *wiring structure* from *degree sequence*).
//!
//! A double edge swap picks two distinct edges `(a, b)` and `(c, d)` and
//! rewires them to `(a, d), (c, b)` — every vertex keeps its degree
//! exactly. Iterating the swap is a Markov chain whose stationary
//! distribution is uniform over simple graphs with the given degree
//! sequence; proposals that would create a self-loop or a parallel edge
//! are rejected, which is what keeps the chain inside the simple-graph
//! state space.
//!
//! # Example
//!
//! ```
//! use nonsearch_generators::{degree_preserving_rewire, rng_from_seed, BarabasiAlbert};
//! use nonsearch_graph::degree_sequence;
//!
//! let mut rng = rng_from_seed(7);
//! let g = BarabasiAlbert::sample(64, 2, &mut rng)?.undirected();
//! let (null, stats) = degree_preserving_rewire(&g, 10, &mut rng)?;
//! assert_eq!(degree_sequence(&null), degree_sequence(&g));
//! assert!(stats.applied > 0);
//! # Ok::<(), nonsearch_generators::GeneratorError>(())
//! ```

use crate::GeneratorError;
use nonsearch_graph::{GraphProperties, UndirectedCsr};
use rand::Rng;
use std::collections::HashSet;

/// What the rewiring chain did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Swap proposals drawn.
    pub attempted: usize,
    /// Proposals applied (the rest would have created a self-loop or a
    /// parallel edge and were rejected).
    pub applied: usize,
}

/// Samples a degree-preserving null model of `graph` by running
/// `swaps_per_edge * edge_count` successful double edge swaps (bounded
/// by an attempt budget, so rigid graphs like stars terminate).
///
/// The input must be a *simple* graph — no self-loops, no parallel
/// edges — because the swap chain's state space is the set of simple
/// graphs with the input's degree sequence. The output is again simple,
/// with the exact same per-vertex degrees.
///
/// # Errors
///
/// Returns [`GeneratorError::InvalidParameter`] if `graph` has
/// self-loops or parallel edges.
pub fn degree_preserving_rewire<R: Rng + ?Sized>(
    graph: &UndirectedCsr,
    swaps_per_edge: usize,
    rng: &mut R,
) -> crate::Result<(UndirectedCsr, SwapStats)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, BarabasiAlbert};
    use nonsearch_graph::degree_sequence;
    use rand::Rng;

    fn ba(n: usize, m: usize, seed: u64) -> UndirectedCsr {
        BarabasiAlbert::sample(n, m, &mut rng_from_seed(seed))
            .unwrap()
            .undirected()
    }

    #[test]
    fn rewiring_preserves_degrees_and_simplicity() {
        let g = ba(200, 2, 1);
        let mut rng = rng_from_seed(2);
        let (null, stats) = degree_preserving_rewire(&g, 10, &mut rng).unwrap();
        assert_eq!(degree_sequence(&null), degree_sequence(&g));
        assert_eq!(null.edge_count(), g.edge_count());
        assert_eq!(null.self_loop_count(), 0);
        assert_eq!(null.parallel_edge_count(), 0);
        assert!(stats.applied > 0);
        assert!(stats.attempted >= stats.applied);
    }

    #[test]
    fn rewiring_actually_changes_the_wiring() {
        let g = ba(200, 2, 3);
        let mut rng = rng_from_seed(4);
        let (null, _) = degree_preserving_rewire(&g, 10, &mut rng).unwrap();
        let before: HashSet<(usize, usize)> = g
            .edges()
            .map(|(_, (u, v))| (u.index().min(v.index()), u.index().max(v.index())))
            .collect();
        let after: HashSet<(usize, usize)> = null
            .edges()
            .map(|(_, (u, v))| (u.index().min(v.index()), u.index().max(v.index())))
            .collect();
        assert_ne!(before, after, "10 swaps/edge should move some edges");
    }

    #[test]
    fn rewiring_is_deterministic_per_seed() {
        let g = ba(100, 2, 5);
        let (a, _) = degree_preserving_rewire(&g, 5, &mut rng_from_seed(6)).unwrap();
        let (b, _) = degree_preserving_rewire(&g, 5, &mut rng_from_seed(6)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn star_graph_has_no_valid_swaps_but_terminates() {
        let star = UndirectedCsr::from_edges(6, (1..6).map(|i| (0, i))).unwrap();
        let mut rng = rng_from_seed(7);
        let (null, stats) = degree_preserving_rewire(&star, 10, &mut rng).unwrap();
        // Every swap proposal creates a parallel edge at the hub.
        assert_eq!(stats.applied, 0);
        assert_eq!(degree_sequence(&null), degree_sequence(&star));
    }

    #[test]
    fn er_graphs_rewire_cleanly() {
        // A G(n, m) sample: 120 distinct non-loop pairs on 60 vertices.
        let mut rng = rng_from_seed(8);
        let mut pairs = HashSet::new();
        while pairs.len() < 120 {
            let (u, v) = (rng.gen_range(0..60usize), rng.gen_range(0..60usize));
            if u != v {
                pairs.insert((u.min(v), u.max(v)));
            }
        }
        let mut pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        let g = UndirectedCsr::from_edges(60, pairs).unwrap();
        let (null, _) = degree_preserving_rewire(&g, 8, &mut rng_from_seed(9)).unwrap();
        assert_eq!(degree_sequence(&null), degree_sequence(&g));
        assert_eq!(null.parallel_edge_count(), 0);
        assert_eq!(null.self_loop_count(), 0);
    }

    #[test]
    fn multigraphs_are_rejected() {
        let loops = UndirectedCsr::from_edges(2, [(0, 0), (0, 1)]).unwrap();
        assert!(degree_preserving_rewire(&loops, 1, &mut rng_from_seed(1)).is_err());
        let parallel = UndirectedCsr::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        assert!(degree_preserving_rewire(&parallel, 1, &mut rng_from_seed(1)).is_err());
    }

    #[test]
    fn tiny_graphs_are_identity() {
        let single = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let (null, stats) = degree_preserving_rewire(&single, 10, &mut rng_from_seed(1)).unwrap();
        assert_eq!(null.edge_count(), 1);
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn vertex_range_is_preserved() {
        let g = ba(50, 1, 10);
        let (null, _) = degree_preserving_rewire(&g, 4, &mut rng_from_seed(11)).unwrap();
        assert_eq!(null.node_count(), g.node_count());
        assert!(null.nodes().all(|v| v.index() < g.node_count()));
    }
}
