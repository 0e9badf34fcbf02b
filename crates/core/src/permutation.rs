//! Vertex permutations and their action on graphs (Definition 1).

use nonsearch_graph::{NodeId, UndirectedCsr};

/// A permutation `σ` of the vertex set `[[1, n]]`.
///
/// `σ(G)` "is obtained by applying permutation σ on the vertices of G"
/// (Definition 1): every edge `(u, v)` becomes `(σ(u), σ(v))`.
///
/// # Example
///
/// ```
/// use nonsearch_core::Permutation;
/// use nonsearch_graph::{NodeId, UndirectedCsr};
///
/// let g = UndirectedCsr::from_edges(3, [(0, 1)])?;
/// let sigma = Permutation::transposition(3, NodeId::new(1), NodeId::new(2));
/// let h = sigma.apply_to_graph(&g);
/// // The edge 0–1 became 0–2.
/// assert!(h.is_adjacent(NodeId::new(0), NodeId::new(2)));
/// assert!(!h.is_adjacent(NodeId::new(0), NodeId::new(1)));
/// # Ok::<(), nonsearch_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Permutation {
        Permutation {
            map: (0..n as u32).collect(),
        }
    }

    /// The transposition swapping `u` and `v` on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn transposition(n: usize, u: NodeId, v: NodeId) -> Permutation {
        assert!(u.index() < n && v.index() < n, "transposition out of range");
        let mut p = Permutation::identity(n);
        p.map.swap(u.index(), v.index());
        p
    }

    /// Number of vertices the permutation acts on.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The image `σ(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn image(&self, v: NodeId) -> NodeId {
        NodeId::new(self.map[v.index()] as usize)
    }

    /// Applies `σ` to a graph: `σ(G)` (Definition 1). Edge ids are
    /// preserved in order.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the vertex count.
    pub fn apply_to_graph(&self, graph: &UndirectedCsr) -> UndirectedCsr {
        assert_eq!(self.len(), graph.node_count(), "permutation size mismatch");
        let edges = graph
            .edges()
            .map(|(_, (u, v))| (self.image(u).index(), self.image(v).index()));
        UndirectedCsr::from_edges(graph.node_count(), edges)
            .expect("permuted endpoints are in range")
    }

    /// Applies `σ` to a father assignment (tree models): vertex `k`'s
    /// father list entry moves to `σ(k)` with value `σ(father)`.
    ///
    /// `fathers[i]` is the father label of the vertex with label `i + 2`
    /// (the root has none). Returns the permuted assignment in the same
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if the permutation does not fix label ordering prerequisites,
    /// i.e. if a permuted child would precede its father — callers should
    /// only permute equivalence windows conditional on the event, where
    /// fathers stay at or below the anchor.
    pub fn apply_to_fathers(&self, fathers: &[usize]) -> Vec<usize> {
        let n = fathers.len() + 1;
        assert_eq!(self.len(), n, "permutation size mismatch");
        let mut out = vec![0usize; fathers.len()];
        for (i, &f) in fathers.iter().enumerate() {
            let child = NodeId::from_label(i + 2);
            let new_child = self.image(child);
            let new_father = self.image(NodeId::from_label(f));
            assert!(
                new_father.label() < new_child.label(),
                "permutation breaks arrival order: father {new_father:?} ≥ child {new_child:?}"
            );
            out[new_child.label() - 2] = new_father.label();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_acts_trivially() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let id = Permutation::identity(4);
        assert!(g.nodes().all(|v| id.image(v) == v));
        assert_eq!(id.apply_to_graph(&g), g);
    }

    #[test]
    fn transposition_is_an_involution() {
        let t = Permutation::transposition(5, NodeId::new(1), NodeId::new(3));
        assert!((0..5).map(NodeId::new).all(|v| t.image(t.image(v)) == v));
        let g = UndirectedCsr::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(t.apply_to_graph(&t.apply_to_graph(&g)), g);
    }

    #[test]
    fn graph_action_preserves_structure() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = Permutation::transposition(4, NodeId::new(0), NodeId::new(3));
        let h = p.apply_to_graph(&g);
        assert_eq!(h.edge_count(), 3);
        // The path 0–1–2–3 becomes the path 3–1–2–0.
        assert!(h.is_adjacent(NodeId::new(3), NodeId::new(1)));
        assert!(h.is_adjacent(NodeId::new(1), NodeId::new(2)));
        assert!(h.is_adjacent(NodeId::new(2), NodeId::new(0)));
        assert!(!h.is_adjacent(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn father_action_on_window() {
        // Tree 1←2, 1←3, 2←4 (fathers of 2,3,4 are 1,1,2); swap 3 and 4.
        let sigma = Permutation::transposition(4, NodeId::from_label(3), NodeId::from_label(4));
        let out = sigma.apply_to_fathers(&[1, 1, 2]);
        // New: vertex 3's father = old vertex 4's father = 2;
        //      vertex 4's father = old vertex 3's father = 1.
        assert_eq!(out, vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn father_action_rejects_order_violations() {
        // Swapping 2 and 3 when 3's father is 2 breaks arrival order.
        let sigma = Permutation::transposition(3, NodeId::from_label(2), NodeId::from_label(3));
        let _ = sigma.apply_to_fathers(&[1, 2]);
    }
}
