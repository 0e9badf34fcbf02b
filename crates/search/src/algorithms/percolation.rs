//! Sarshar–Boykin–Roychowdhury percolation search.
//!
//! The related-work protocol for power-law P2P networks: contents are
//! replicated along a short random walk from their owner, queries are
//! implanted along a random walk from the requester, and the query is
//! then spread by *bond percolation* (each edge forwards independently
//! with probability `q`). On power-law graphs, percolation above the
//! (very low) threshold reaches the high-degree core, so walk-replicated
//! content is found with sublinear message cost.

use crate::{NodeSet, Result, SearchError};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::{Rng, RngCore};

/// Parameters of a percolation search run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercolationConfig {
    /// Length of the content-replication random walk from the owner.
    pub replication_walk: usize,
    /// Length of the query-implantation random walk from the requester.
    pub query_walk: usize,
    /// Bond-percolation forwarding probability `q ∈ [0, 1]`.
    pub edge_probability: f64,
}

impl PercolationConfig {
    // Internal parameter check used by `percolation_search`.
    fn check(&self) -> bool {
        self.edge_probability.is_finite() && (0.0..=1.0).contains(&self.edge_probability)
    }
}

/// Result of one percolation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PercolationOutcome {
    /// `true` if the percolating query reached a replica.
    pub found: bool,
    /// Total messages: walk steps plus activated edge transmissions.
    pub messages: usize,
    /// Number of distinct vertices holding a replica.
    pub replicas: usize,
    /// Number of distinct vertices the query reached.
    pub reached: usize,
}

/// Reusable state for [`percolation_search_in`]: two dense vertex sets,
/// the replica holders and the vertices the query reached, each
/// cleared in O(members) between runs (see [`NodeSet`]). The reached
/// set's insertion order doubles as the broadcast queue.
#[derive(Debug, Clone, Default)]
pub struct PercolationScratch {
    replicas: NodeSet,
    reached: NodeSet,
}

impl PercolationScratch {
    /// Creates an empty scratch; buffers grow to the graph size on
    /// first use and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, nodes: usize) {
        self.replicas.clear();
        self.replicas.reserve(nodes);
        self.reached.clear();
        self.reached.reserve(nodes);
    }
}

/// Runs one percolation search of content owned by `owner` from
/// `requester` with a private, per-call [`PercolationScratch`]. Sweeps
/// should hold a scratch and call [`percolation_search_in`].
///
/// # Errors
///
/// Returns [`SearchError::TaskOutOfBounds`] if either vertex is outside
/// the graph and [`SearchError::InvalidParameter`] if
/// `edge_probability ∉ [0, 1]`.
pub fn percolation_search(
    graph: &UndirectedCsr,
    owner: NodeId,
    requester: NodeId,
    config: &PercolationConfig,
    rng: &mut dyn RngCore,
) -> Result<PercolationOutcome> {
    percolation_search_in(
        &mut PercolationScratch::new(),
        graph,
        owner,
        requester,
        config,
        rng,
    )
}

/// [`percolation_search`] on a caller-owned scratch: identical
/// outcomes and RNG consumption, but the vertex sets are reused across
/// runs instead of reallocated.
///
/// # Errors
///
/// Same contract as [`percolation_search`].
pub fn percolation_search_in(
    scratch: &mut PercolationScratch,
    graph: &UndirectedCsr,
    owner: NodeId,
    requester: NodeId,
    config: &PercolationConfig,
    rng: &mut dyn RngCore,
) -> Result<PercolationOutcome> {
    for v in [owner, requester] {
        if v.index() >= graph.node_count() {
            return Err(SearchError::TaskOutOfBounds {
                vertex: v,
                node_count: graph.node_count(),
            });
        }
    }
    if !config.check() {
        return Err(SearchError::InvalidParameter {
            name: "edge_probability",
            value: config.edge_probability.to_string(),
        });
    }
    scratch.begin(graph.node_count());
    let mut messages = 0usize;

    // Phase 1: replicate content along a random walk from the owner.
    random_walk_into(
        graph,
        owner,
        config.replication_walk,
        rng,
        &mut messages,
        &mut scratch.replicas,
    );

    // Phase 2: implant the query along a random walk from the
    // requester; the reached set's first-visit order seeds the broadcast.
    random_walk_into(
        graph,
        requester,
        config.query_walk,
        rng,
        &mut messages,
        &mut scratch.reached,
    );

    // Phase 3: bond-percolation broadcast from every implanted vertex, in
    // FIFO order. A vertex is queued exactly when it is first reached, so
    // the queue is the reached set's members from `head` on. First-visit
    // order keeps the RNG consumption deterministic.
    let mut found = scratch
        .reached
        .members()
        .iter()
        .any(|&v| scratch.replicas.contains(v));
    let mut head = 0;
    while let Some(&v) = scratch.reached.members().get(head) {
        head += 1;
        for (w, _) in graph.incident_edges(v) {
            if rng.gen::<f64>() < config.edge_probability {
                messages += 1;
                if scratch.reached.insert(w) {
                    found |= scratch.replicas.contains(w);
                }
            }
        }
    }

    Ok(PercolationOutcome {
        found,
        messages,
        replicas: scratch.replicas.len(),
        reached: scratch.reached.len(),
    })
}

/// Walks `steps` uniform random hops from `start`, inserting visited
/// vertices into `set`, charging one message per hop.
fn random_walk_into(
    graph: &UndirectedCsr,
    start: NodeId,
    steps: usize,
    rng: &mut dyn RngCore,
    messages: &mut usize,
    set: &mut NodeSet,
) {
    set.insert(start);
    let mut current = start;
    for _ in 0..steps {
        let degree = graph.degree(current);
        if degree == 0 {
            break;
        }
        let (next, _) = graph.incident(current)[rng.gen_range(0..degree)];
        *messages += 1;
        set.insert(next);
        current = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn complete(n: usize) -> UndirectedCsr {
        let edges = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
        UndirectedCsr::from_edges(n, edges).unwrap()
    }

    #[test]
    fn full_percolation_always_finds() {
        let g = complete(10);
        let cfg = PercolationConfig {
            replication_walk: 0,
            query_walk: 0,
            edge_probability: 1.0,
        };
        let o = percolation_search(&g, NodeId::new(3), NodeId::new(7), &cfg, &mut rng()).unwrap();
        assert!(o.found);
        assert_eq!(o.reached, 10);
    }

    #[test]
    fn zero_percolation_fails_unless_colocated() {
        let g = complete(10);
        let cfg = PercolationConfig {
            replication_walk: 0,
            query_walk: 0,
            edge_probability: 0.0,
        };
        let o = percolation_search(&g, NodeId::new(3), NodeId::new(7), &cfg, &mut rng()).unwrap();
        assert!(!o.found);
        assert_eq!(o.messages, 0);
        // Same vertex: the implanted query already sits on the replica.
        let o = percolation_search(&g, NodeId::new(3), NodeId::new(3), &cfg, &mut rng()).unwrap();
        assert!(o.found);
    }

    #[test]
    fn replication_improves_success() {
        // Sub-critical percolation on K20: the query cluster is small, so
        // success hinges on how many vertices hold replicas.
        let g = complete(20);
        let mut r = rng();
        let run = |walk: usize, r: &mut ChaCha8Rng| {
            let cfg = PercolationConfig {
                replication_walk: walk,
                query_walk: 0,
                edge_probability: 0.04,
            };
            (0..300)
                .filter(|_| {
                    percolation_search(&g, NodeId::new(0), NodeId::new(10), &cfg, r)
                        .unwrap()
                        .found
                })
                .count()
        };
        let without = run(0, &mut r);
        let with = run(40, &mut r);
        assert!(
            with > without,
            "with replication {with} vs without {without}"
        );
    }

    #[test]
    fn message_count_reflects_activity() {
        let g = complete(8);
        let cfg = PercolationConfig {
            replication_walk: 5,
            query_walk: 5,
            edge_probability: 1.0,
        };
        let o = percolation_search(&g, NodeId::new(0), NodeId::new(1), &cfg, &mut rng()).unwrap();
        // 10 walk messages plus one per activated edge endpoint scan.
        assert!(o.messages >= 10);
    }

    #[test]
    fn validation() {
        let g = complete(4);
        let bad = PercolationConfig {
            replication_walk: 0,
            query_walk: 0,
            edge_probability: 1.5,
        };
        assert!(percolation_search(&g, NodeId::new(0), NodeId::new(1), &bad, &mut rng()).is_err());
        let cfg = PercolationConfig {
            replication_walk: 0,
            query_walk: 0,
            edge_probability: 0.5,
        };
        assert!(percolation_search(&g, NodeId::new(9), NodeId::new(1), &cfg, &mut rng()).is_err());
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One scratch serves a larger graph, a smaller one, then the
        // larger one again. A ring run leaves a handful of members in a
        // five-word bitset, so clearing zeroes either their words or
        // the whole bitset; a clique run always zeroes the whole one.
        let ring = UndirectedCsr::from_edges(300, (0..300).map(|u| (u, (u + 1) % 300))).unwrap();
        let clique = complete(12);
        let cfg = PercolationConfig {
            replication_walk: 6,
            query_walk: 4,
            edge_probability: 0.3,
        };
        let mut scratch = PercolationScratch::new();
        for (g, owner, requester) in [(&ring, 280, 290), (&clique, 1, 8), (&ring, 280, 290)] {
            let (owner, requester) = (NodeId::new(owner), NodeId::new(requester));
            for seed in 0..10u64 {
                let mut r1 = ChaCha8Rng::seed_from_u64(seed);
                let pooled =
                    percolation_search_in(&mut scratch, g, owner, requester, &cfg, &mut r1)
                        .unwrap();
                let mut r2 = ChaCha8Rng::seed_from_u64(seed);
                let fresh = percolation_search(g, owner, requester, &cfg, &mut r2).unwrap();
                assert_eq!(pooled, fresh, "n {} seed {seed}", g.node_count());
            }
        }
    }
}
