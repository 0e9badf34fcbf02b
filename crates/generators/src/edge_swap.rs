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
//! # State: four slots per swap
//!
//! The chain's state is the edge list, as `u32` endpoint pairs in the
//! input's edge order, plus an adjacency it can query. The adjacency is a
//! copy of the input's CSR slot array holding only each slot's far end,
//! and every edge records the slot it occupies at each of its two
//! endpoints. Degrees never change under a swap, so the slot ranges
//! (the input's `offsets`) stay valid for the whole run: an applied swap
//! rewrites exactly four slots in place. The slot `a` held for `(a, b)`
//! now points at `d`, the slot `d` held for `(c, d)` at `a`, and likewise
//! `c`'s at `b` and `b`'s at `c`. "Is `(a, d)` already an edge?" scans
//! the shorter of the two neighbour lists. No hashing is involved.
//!
//! # Why the output is fixed by the seed alone
//!
//! Each attempt draws `gen_range(0..m)` for the first edge, then
//! `gen_range(0..m)` for the second, then — only if they differ —
//! `gen_bool(0.5)` for the second edge's orientation. The draw order,
//! the accept/reject rule and the edge-order bookkeeping (`(a, d)`
//! replaces edge `i`, `(c, b)` replaces edge `j`) define the output: the
//! returned graph is [`UndirectedCsr::from_edges`] of the final edge
//! list, and the returned [`SwapStats`] count the attempts. How the chain
//! answers adjacency queries is invisible to both, so any correct
//! adjacency structure yields the same graph, slot order included.
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

/// What the rewiring chain did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapStats {
    /// Swap proposals drawn.
    pub attempted: usize,
    /// Proposals applied (the rest would have created a self-loop or a
    /// parallel edge and were rejected).
    pub applied: usize,
}

/// One edge of the chain's state: its endpoints in output orientation,
/// and the slot each endpoint holds it in (`slots[k]` belongs to
/// `ends[k]`).
#[derive(Clone, Copy)]
struct ChainEdge {
    ends: [u32; 2],
    slots: [u32; 2],
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
    let (offsets, slots, edge_list) = graph.raw_parts();
    let m = edge_list.len();
    let mut edges: Vec<ChainEdge> = edge_list
        .iter()
        .map(|&(u, v)| ChainEdge {
            ends: [u.index() as u32, v.index() as u32],
            slots: [0, 0],
        })
        .collect();
    let mut stats = SwapStats {
        attempted: 0,
        applied: 0,
    };
    if m < 2 {
        // Nothing to swap; the null model is the graph itself.
        return Ok((rebuild(n, &edges), stats));
    }

    // The far end of every slot; slot ranges are the input's offsets.
    let mut far: Vec<u32> = slots.iter().map(|&(v, _)| v.index() as u32).collect();
    for u in 0..n {
        for s in offsets[u]..offsets[u + 1] {
            let edge = &mut edges[slots[s].1.index()];
            // No self-loops, so `u` is exactly one of the two ends.
            let k = usize::from(edge.ends[0] as usize != u);
            edge.slots[k] = u32::try_from(s).expect("slot index exceeds u32::MAX");
        }
    }

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
        let ChainEdge {
            ends: [a, b],
            slots: [sa, sb],
        } = edges[i];
        // Swapping the orientation of one picked edge makes the proposal
        // distribution symmetric over both rewirings of the 2-swap.
        let (k, l) = if rng.gen_bool(0.5) { (0, 1) } else { (1, 0) };
        let ChainEdge { ends, slots } = edges[j];
        let (c, d, sc, sd) = (ends[k], ends[l], slots[k], slots[l]);
        // Proposed replacement: (a, d) and (c, b).
        if a == d || c == b {
            continue; // self-loop
        }
        if adjacent(offsets, &far, a, d) || adjacent(offsets, &far, c, b) {
            continue; // parallel edge
        }
        far[sa as usize] = d;
        far[sd as usize] = a;
        far[sc as usize] = b;
        far[sb as usize] = c;
        edges[i] = ChainEdge {
            ends: [a, d],
            slots: [sa, sd],
        };
        edges[j] = ChainEdge {
            ends: [c, b],
            slots: [sc, sb],
        };
        stats.applied += 1;
    }

    Ok((rebuild(n, &edges), stats))
}

/// `true` if `u` and `v` are joined, scanning the shorter of their two
/// neighbour lists.
fn adjacent(offsets: &[usize], far: &[u32], u: u32, v: u32) -> bool {
    let span = |x: u32| offsets[x as usize]..offsets[x as usize + 1];
    let (su, sv) = (span(u), span(v));
    if su.len() <= sv.len() {
        far[su].contains(&v)
    } else {
        far[sv].contains(&u)
    }
}

fn rebuild(n: usize, edges: &[ChainEdge]) -> UndirectedCsr {
    UndirectedCsr::from_edges(
        n,
        edges
            .iter()
            .map(|e| (e.ends[0] as usize, e.ends[1] as usize)),
    )
    .expect("swapped endpoints stay within the original vertex range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, BarabasiAlbert};
    use nonsearch_graph::degree_sequence;
    use rand::Rng;
    use std::collections::HashSet;

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
