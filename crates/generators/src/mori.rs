//! The Móri model of random trees and its merged `m`-out variant.
//!
//! Paper, §1 (Graph models): *"The Móri model `G_t` of random trees
//! starts, at time `t = 2`, with two vertices 1, 2 and a single edge
//! between them; then, at each later time, a new vertex `t` is added,
//! together with a single outgoing edge to an older vertex `u`, selected
//! […] with probability proportional to `p·d_t(u) + (1 − p)`, `d_t(u)`
//! being the indegree of `u` at time `t`. To get the m-out Móri graph of
//! size `n`, `G_t^{(m)}`, take the Móri tree of size `nm` and, for each
//! `1 ≤ i ≤ n`, merge vertices `m(i−1)+1` to `mi` into a new vertex `i`."*

use crate::error::check_probability;
use crate::{AttachmentKind, AttachmentRecord, AttachmentTrace, GeneratorError, Result};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::Rng;

/// A sampled Móri tree `G_t` together with its construction provenance.
///
/// The weight of an existing vertex `u` when vertex `t` arrives is
/// `p·d(u) + (1−p)` with `d(u)` the **indegree** of `u` — the paper's
/// rephrasing, which "makes it possible to explore a wider range of
/// parameters" than total-degree preferential attachment.
///
/// Sampling is O(1) per vertex: the weight function is the exact mixture
/// "indegree-proportional with probability `pD/(pD + (1−p)N)`, uniform
/// otherwise" (where `D` is the total indegree and `N` the number of
/// candidates). Indegree-proportional draws read the trace itself: every
/// record's father is one unit of indegree, so the father of a uniformly
/// drawn record is a vertex drawn ∝ indegree.
///
/// The trace is the tree's only edge store (edges point child → father);
/// [`MoriTree::undirected`] builds the CSR from it.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, MoriTree};
///
/// let mut rng = rng_from_seed(1);
/// let tree = MoriTree::sample(500, 0.5, &mut rng)?;
/// // Every vertex after the root has exactly one outgoing edge,
/// // pointing to an older vertex.
/// for k in 2..=500 {
///     let father = tree.father_of_label(k).expect("non-root has a father");
///     assert!(father.label() < k);
/// }
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MoriTree {
    trace: AttachmentTrace,
}

impl MoriTree {
    /// Samples a Móri tree on `n ≥ 2` vertices with mixing parameter
    /// `p ∈ [0, 1]`.
    ///
    /// `p = 0` degenerates to uniform attachment (a random recursive
    /// tree); `p = 1` is pure indegree-preferential attachment. The
    /// paper's Theorem 1 covers `0 < p ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::TooSmall`] if `n < 2` and
    /// [`GeneratorError::InvalidParameter`] if `p ∉ [0, 1]`.
    pub fn sample<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<MoriTree> {
        check_probability("p", p)?;
        if n < 2 {
            return Err(GeneratorError::TooSmall {
                requested: n,
                minimum: 2,
            });
        }
        let mut trace = AttachmentTrace::with_capacity(n - 1);

        // Seed: vertices 1, 2 and the edge 2 → 1.
        trace.push(AttachmentRecord {
            child: NodeId::from_label(2),
            father: NodeId::from_label(1),
            kind: AttachmentKind::Seed,
        });

        for t in 3..=n {
            let candidates = t - 1; // existing vertices
            let total_indegree = t - 2; // edges so far
                                        // P(preferential component) = pD / (pD + (1−p)N): drawing from
                                        // the urn within that component is ∝ indegree, so the overall
                                        // law is ∝ p·d(u) + (1−p), exactly the paper's weight.
            let pref_mass = p * total_indegree as f64;
            let unif_mass = (1.0 - p) * candidates as f64;
            let threshold = pref_mass / (pref_mass + unif_mass);
            let (father, kind) = if rng.gen::<f64>() < threshold {
                let ticket = rng.gen_range(0..trace.len());
                (trace.records()[ticket].father, AttachmentKind::Preferential)
            } else {
                (
                    NodeId::new(rng.gen_range(0..candidates)),
                    AttachmentKind::Uniform,
                )
            };
            trace.push(AttachmentRecord {
                child: NodeId::from_label(t),
                father,
                kind,
            });
        }

        Ok(MoriTree { trace })
    }

    /// Number of vertices `t` of the tree.
    pub fn len(&self) -> usize {
        self.trace.len() + 1
    }

    /// `false`: a sampled tree always has at least two vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The attachment history (seed edge first): one record per non-root
    /// vertex, in label order.
    pub fn trace(&self) -> &AttachmentTrace {
        &self.trace
    }

    /// The father `N_k` of the vertex with one-based label `k ≥ 2`.
    pub fn father_of_label(&self, k: usize) -> Option<NodeId> {
        self.trace.father_of_label(k)
    }

    /// Builds the unoriented view searching takes place in.
    pub fn undirected(&self) -> UndirectedCsr {
        UndirectedCsr::from_edges(self.len(), self.trace.edges())
            .expect("fathers are older vertices")
    }

    /// The degree sequence of [`MoriTree::undirected`], counted from the
    /// trace without building the graph.
    pub fn degrees(&self) -> Vec<usize> {
        self.trace.degrees(self.len(), 1)
    }

    /// Merges this tree into the `m`-out Móri graph (consumes the tree).
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `m` is zero or does
    /// not divide the vertex count.
    fn into_merged(self, m: usize) -> Result<MergedMori> {
        if m == 0 {
            return Err(GeneratorError::invalid("m", 0usize, "a positive integer"));
        }
        if !self.len().is_multiple_of(m) {
            return Err(GeneratorError::invalid(
                "m",
                m,
                "a divisor of the tree size",
            ));
        }
        Ok(MergedMori {
            tree_trace: self.trace,
            m,
        })
    }
}

/// The merged `m`-out Móri graph `G_t^{(m)}` of Theorem 1.
///
/// Built by sampling a Móri tree on `n·m` vertices and merging each block
/// of `m` consecutive vertices; the result is a connected multigraph (it
/// may contain self-loops and parallel edges) in which every merged vertex
/// has out-degree exactly `m` — except vertex 1, which absorbs the root.
///
/// Only the tree's trace is stored: merging is a relabelling of its
/// edges, which [`MergedMori::undirected`] applies while building the CSR.
#[derive(Debug, Clone)]
pub struct MergedMori {
    tree_trace: AttachmentTrace,
    m: usize,
}

impl MergedMori {
    /// Samples a merged Móri graph with `n ≥ 2` merged vertices, block
    /// size `m ≥ 1` and mixing parameter `p ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `m` is zero and
    /// [`GeneratorError::TooSmall`] if `n < 2`, and propagates validation
    /// errors from [`MoriTree::sample`].
    pub fn sample<R: Rng + ?Sized>(n: usize, m: usize, p: f64, rng: &mut R) -> Result<MergedMori> {
        if m == 0 {
            return Err(GeneratorError::invalid("m", 0usize, "a positive integer"));
        }
        if n < 2 {
            return Err(GeneratorError::TooSmall {
                requested: n,
                minimum: 2,
            });
        }
        MoriTree::sample(n * m, p, rng)?.into_merged(m)
    }

    /// The attachment trace of the *underlying tree* (labels in tree
    /// space, i.e. `1..=n·m`).
    pub fn tree_trace(&self) -> &AttachmentTrace {
        &self.tree_trace
    }

    /// Builds the unoriented view searching takes place in: the tree's
    /// edges with tree vertex `k` (zero-based) relabelled to block
    /// `k / m`, in tree insertion order.
    pub fn undirected(&self) -> UndirectedCsr {
        let m = self.m;
        let n = (self.tree_trace.len() + 1) / m;
        let edges = self.tree_trace.edges().map(|(c, f)| (c / m, f / m));
        UndirectedCsr::from_edges(n, edges).expect("blocks of tree vertices")
    }

    /// The degree sequence of [`MergedMori::undirected`], counted from
    /// the tree's trace without building the graph (a self-loop counts
    /// twice).
    pub fn degrees(&self) -> Vec<usize> {
        let n = (self.tree_trace.len() + 1) / self.m;
        self.tree_trace.degrees(n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;
    use nonsearch_graph::{is_connected, GraphProperties};

    /// The share of non-seed attachments drawn from the preferential
    /// component.
    fn preferential_share(trace: &AttachmentTrace) -> f64 {
        let drawn = trace.iter().filter(|r| r.kind != AttachmentKind::Seed);
        let (pref, all) = drawn.fold((0, 0), |(pref, all), r| {
            (
                pref + usize::from(r.kind == AttachmentKind::Preferential),
                all + 1,
            )
        });
        pref as f64 / all as f64
    }

    #[test]
    fn tree_shape_invariants() {
        let mut rng = rng_from_seed(1);
        let tree = MoriTree::sample(200, 0.5, &mut rng).unwrap();
        assert_eq!(tree.len(), 200);
        // Root has no out-edge; everyone else exactly one, to an older vertex.
        let children: Vec<usize> = tree.trace().iter().map(|r| r.child.label()).collect();
        assert_eq!(children, (2..=200).collect::<Vec<_>>());
        for k in 2..=200 {
            let v = NodeId::from_label(k);
            let father = tree.father_of_label(k).unwrap();
            assert!(father < v, "father {father:?} not older than {v:?}");
        }
        let g = tree.undirected();
        assert_eq!((g.node_count(), g.edge_count()), (200, 199));
        assert!(g.is_tree());
    }

    #[test]
    fn trace_covers_every_non_root() {
        let mut rng = rng_from_seed(2);
        let tree = MoriTree::sample(50, 0.3, &mut rng).unwrap();
        assert_eq!(tree.trace().len(), 49);
        assert_eq!(tree.trace().records()[0].kind, AttachmentKind::Seed);
    }

    #[test]
    fn p_one_is_a_star_from_the_seed() {
        // With p = 1 the weight is ∝ indegree; only vertex 1 ever has
        // positive indegree, so the tree is deterministically a star.
        let mut rng = rng_from_seed(3);
        let tree = MoriTree::sample(100, 1.0, &mut rng).unwrap();
        for k in 2..=100 {
            assert_eq!(tree.father_of_label(k), Some(NodeId::from_label(1)));
        }
        assert_eq!(tree.undirected().degree(NodeId::from_label(1)), 99);
    }

    #[test]
    fn p_zero_uses_only_uniform_draws() {
        let mut rng = rng_from_seed(4);
        let tree = MoriTree::sample(100, 0.0, &mut rng).unwrap();
        assert_eq!(preferential_share(tree.trace()), 0.0);
    }

    #[test]
    fn third_vertex_father_distribution_matches_closed_form() {
        // P(N_3 = 1) = (p·1 + (1−p)) / (p·1 + (1−p)·2) = 1 / (2 − p).
        let p = 0.5;
        let expect = 1.0 / (2.0 - p);
        let mut rng = rng_from_seed(5);
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| {
                let tree = MoriTree::sample(3, p, &mut rng).unwrap();
                tree.father_of_label(3) == Some(NodeId::from_label(1))
            })
            .count();
        let frac = hits as f64 / trials as f64;
        assert!(
            (frac - expect).abs() < 0.02,
            "frac = {frac}, expect = {expect}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = MoriTree::sample(64, 0.7, &mut rng_from_seed(9)).unwrap();
        let b = MoriTree::sample(64, 0.7, &mut rng_from_seed(9)).unwrap();
        assert_eq!(a.undirected(), b.undirected());
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut rng = rng_from_seed(0);
        assert!(MoriTree::sample(1, 0.5, &mut rng).is_err());
        assert!(MoriTree::sample(10, -0.1, &mut rng).is_err());
        assert!(MoriTree::sample(10, 1.5, &mut rng).is_err());
    }

    #[test]
    fn merged_graph_shape() {
        let mut rng = rng_from_seed(6);
        let merged = MergedMori::sample(50, 3, 0.6, &mut rng).unwrap();
        let g = merged.undirected();
        assert_eq!(g.node_count(), 50);
        // The tree on 150 vertices has 149 edges; merging preserves them.
        assert_eq!(g.edge_count(), 149);
        assert!(is_connected(&g));
    }

    #[test]
    fn merged_out_degree_is_m_except_root_block() {
        let mut rng = rng_from_seed(7);
        let m = 4;
        let merged = MergedMori::sample(30, m, 0.5, &mut rng).unwrap();
        let mut out_degree = [0usize; 30];
        for r in merged.tree_trace() {
            out_degree[r.child.index() / m] += 1;
        }
        // Block 1 contains the root (no out-edge): out-degree m − 1.
        assert_eq!(out_degree[0], m - 1);
        for (i, &d) in out_degree.iter().enumerate().skip(1) {
            assert_eq!(d, m, "block {}", i + 1);
        }
    }

    #[test]
    fn merged_m1_matches_tree() {
        let tree = MoriTree::sample(40, 0.4, &mut rng_from_seed(8)).unwrap();
        let tree_graph = tree.undirected();
        let merged = tree.into_merged(1).unwrap();
        assert_eq!(merged.undirected(), tree_graph);
    }

    #[test]
    fn block_mapping() {
        let mut rng = rng_from_seed(10);
        let merged = MergedMori::sample(10, 3, 0.5, &mut rng).unwrap();
        // Tree labels 1..=3 form block 1, 4..=6 block 2, …, 28..=30 block 10.
        let block = |k: usize| NodeId::from_label((k - 1) / 3 + 1);
        let g = merged.undirected();
        assert_eq!(g.edge_count(), merged.tree_trace().len());
        for ((_, uv), r) in g.edges().zip(merged.tree_trace()) {
            assert_eq!(uv, (block(r.child.label()), block(r.father.label())));
        }
    }

    #[test]
    fn merged_rejects_bad_params() {
        let mut rng = rng_from_seed(11);
        assert!(MergedMori::sample(10, 0, 0.5, &mut rng).is_err());
        assert!(MergedMori::sample(1, 2, 0.5, &mut rng).is_err());
        let tree = MoriTree::sample(10, 0.5, &mut rng).unwrap();
        assert!(tree.into_merged(3).is_err()); // 3 does not divide 10
    }

    #[test]
    fn merged_graph_can_contain_loops() {
        // With m = 2, a father inside the same block creates a loop; over
        // many samples at p = 0 this happens with substantial probability.
        let mut rng = rng_from_seed(12);
        let mut saw_loop = false;
        for _ in 0..50 {
            let merged = MergedMori::sample(20, 2, 0.0, &mut rng).unwrap();
            if merged.undirected().self_loop_count() > 0 {
                saw_loop = true;
                break;
            }
        }
        assert!(
            saw_loop,
            "expected at least one self-loop across 50 samples"
        );
    }

    #[test]
    fn preferential_fraction_increases_with_p() {
        let mut rng = rng_from_seed(13);
        let lo = MoriTree::sample(2000, 0.2, &mut rng).unwrap();
        let hi = MoriTree::sample(2000, 0.9, &mut rng).unwrap();
        assert!(preferential_share(lo.trace()) < preferential_share(hi.trace()));
    }
}
