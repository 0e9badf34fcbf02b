//! Append-only directed multigraph used by the evolving-graph generators.

use crate::{EdgeId, GraphError, NodeId, Result};

/// Source and target of a directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeEndpoints {
    /// Origin of the edge (the newer vertex in attachment models).
    pub source: NodeId,
    /// Destination of the edge (the chosen older vertex).
    pub target: NodeId,
}

/// An append-only directed multigraph.
///
/// Vertices and edges can only be added, never removed — exactly the shape
/// of the paper's evolving models, where "at each time step, a new vertex
/// and an out-going edge are added". Self-loops and parallel edges are
/// permitted; both arise when Móri trees are merged into
/// `m`-out graphs.
///
/// Degrees are maintained incrementally so that preferential-attachment
/// generators can sample in O(1) without rescanning.
///
/// # Example
///
/// ```
/// use nonsearch_graph::EvolvingDigraph;
///
/// let mut g = EvolvingDigraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(b, a)?;
/// assert_eq!(g.endpoints(e)?.target, a);
/// assert_eq!(g.in_degree(a), 1);
/// assert_eq!(g.out_degree(b), 1);
/// # Ok::<(), nonsearch_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvolvingDigraph {
    edges: Vec<EdgeEndpoints>,
    out_adj: Vec<Vec<EdgeId>>,
    in_degree: Vec<u32>,
    out_degree: Vec<u32>,
}

impl EvolvingDigraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` vertices
    /// and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        EvolvingDigraph {
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_degree: Vec::with_capacity(nodes),
            out_degree: Vec::with_capacity(nodes),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.out_adj.is_empty()
    }

    /// Appends a new isolated vertex and returns its id.
    ///
    /// Vertices are numbered in arrival order, so the `t`-th call returns
    /// the vertex the paper labels `t`.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.out_adj.len());
        self.out_adj.push(Vec::new());
        self.in_degree.push(0);
        self.out_degree.push(0);
        id
    }

    /// Appends `count` new isolated vertices, returning the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId::new(self.out_adj.len());
        for _ in 0..count {
            self.add_node();
        }
        first
    }

    /// Adds a directed edge `source → target` and returns its id.
    ///
    /// Self-loops (`source == target`) and parallel edges are allowed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not
    /// exist.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId) -> Result<EdgeId> {
        self.check_node(source)?;
        self.check_node(target)?;
        let id = EdgeId::new(self.edges.len());
        self.edges.push(EdgeEndpoints { source, target });
        self.out_adj[source.index()].push(id);
        self.out_degree[source.index()] += 1;
        self.in_degree[target.index()] += 1;
        Ok(id)
    }

    /// Returns the endpoints of edge `e`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] if `e` does not exist.
    pub fn endpoints(&self, e: EdgeId) -> Result<EdgeEndpoints> {
        self.edges
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds {
                edge: e,
                edge_count: self.edges.len(),
            })
    }

    /// In-degree of `v` (number of edges pointing *to* `v`).
    ///
    /// The paper's rephrased Móri and Cooper–Frieze models perform
    /// preferential attachment proportional to **indegree**, which this
    /// accessor serves in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_degree[v.index()] as usize
    }

    /// Out-degree of `v` (number of edges leaving `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_degree[v.index()] as usize
    }

    /// Total (undirected) degree of `v`: in-degree plus out-degree, which
    /// counts a self-loop twice — the standard undirected convention.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn total_degree(&self, v: NodeId) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Ids of the edges leaving `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_adj[v.index()]
    }

    /// Iterator over all vertices in arrival order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over `(EdgeId, EdgeEndpoints)` in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, EdgeEndpoints)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, ep)| (EdgeId::new(i), *ep))
    }

    /// Sum of all in-degrees, i.e. the number of edges. Exposed because the
    /// Móri normalizer `p·S + (1−p)·t` needs the running total.
    #[inline]
    pub fn total_in_degree(&self) -> usize {
        self.edges.len()
    }

    /// Number of self-loops.
    pub fn self_loop_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|ep| ep.source == ep.target)
            .count()
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: v,
                node_count: self.node_count(),
            })
        }
    }

    /// Merges consecutive blocks of `m` vertices into single vertices.
    ///
    /// This is exactly the paper's construction of the `m`-out Móri graph
    /// `G_t^{(m)}`: *"take the Móri tree of size nm and, for each
    /// 1 ≤ i ≤ n, merge vertices m(i−1)+1 to mi into a new vertex i"*.
    /// Edges are preserved (including any that become self-loops or
    /// parallel edges), and edge ids keep their insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if the graph is empty.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or if `m` does not divide the vertex count.
    pub fn merge_blocks(&self, m: usize) -> Result<EvolvingDigraph> {
        assert!(m > 0, "block size must be positive");
        if self.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        assert_eq!(
            self.node_count() % m,
            0,
            "block size {m} must divide vertex count {}",
            self.node_count()
        );
        let n = self.node_count() / m;
        let mut merged = EvolvingDigraph::with_capacity(n, self.edge_count());
        merged.add_nodes(n);
        for (_, ep) in self.edges() {
            let s = NodeId::new(ep.source.index() / m);
            let t = NodeId::new(ep.target.index() / m);
            merged
                .add_edge(s, t)
                .expect("merged endpoints are in range by construction");
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> EvolvingDigraph {
        // 2→1, 3→2, ..., n→(n−1): the "uniform attachment chain".
        let mut g = EvolvingDigraph::new();
        g.add_node();
        for t in 1..n {
            let v = g.add_node();
            g.add_edge(v, NodeId::new(t - 1)).unwrap();
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = EvolvingDigraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn nodes_are_numbered_in_arrival_order() {
        let mut g = EvolvingDigraph::new();
        assert_eq!(g.add_node().label(), 1);
        assert_eq!(g.add_node().label(), 2);
        assert_eq!(g.add_nodes(3).label(), 3);
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn degrees_update_incrementally() {
        let g = path(5);
        assert_eq!(g.in_degree(NodeId::new(0)), 1);
        assert_eq!(g.out_degree(NodeId::new(0)), 0);
        assert_eq!(g.in_degree(NodeId::new(4)), 0);
        assert_eq!(g.out_degree(NodeId::new(4)), 1);
        for v in 1..4 {
            assert_eq!(g.total_degree(NodeId::new(v)), 2);
        }
        assert_eq!(g.total_in_degree(), 4);
    }

    #[test]
    fn self_loop_counts_twice_in_total_degree() {
        let mut g = EvolvingDigraph::new();
        let v = g.add_node();
        g.add_edge(v, v).unwrap();
        assert_eq!(g.total_degree(v), 2);
        assert_eq!(g.self_loop_count(), 1);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = EvolvingDigraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_degree(b), 2);
        assert_eq!(g.out_edges(a).len(), 2);
    }

    #[test]
    fn add_edge_rejects_unknown_nodes() {
        let mut g = EvolvingDigraph::new();
        let a = g.add_node();
        let ghost = NodeId::new(7);
        let err = g.add_edge(a, ghost).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
        // A failed insertion must not corrupt counters.
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(a), 0);
    }

    #[test]
    fn endpoints_roundtrip() {
        let mut g = EvolvingDigraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e = g.add_edge(b, a).unwrap();
        let ep = g.endpoints(e).unwrap();
        assert_eq!(
            ep,
            EdgeEndpoints {
                source: b,
                target: a
            }
        );
        assert!(g.endpoints(EdgeId::new(5)).is_err());
    }

    #[test]
    fn edge_iteration_in_insertion_order() {
        let g = path(4);
        let targets: Vec<usize> = g.edges().map(|(_, ep)| ep.target.index()).collect();
        assert_eq!(targets, vec![0, 1, 2]);
    }

    #[test]
    fn merge_blocks_path() {
        // Path on 6 vertices merged with m=2 → 3 vertices.
        // Edges (1-based): 2→1, 3→2, 4→3, 5→4, 6→5
        // Blocks: {1,2}→1, {3,4}→2, {5,6}→3.
        // Merged edges: 1→1 (loop), 2→1, 2→2 (loop), 3→2, 3→3 (loop).
        let g = path(6);
        let merged = g.merge_blocks(2).unwrap();
        assert_eq!(merged.node_count(), 3);
        assert_eq!(merged.edge_count(), 5);
        assert_eq!(merged.self_loop_count(), 3);
        assert_eq!(merged.total_in_degree(), 5);
    }

    #[test]
    fn merge_blocks_m1_is_identity() {
        let g = path(5);
        let merged = g.merge_blocks(1).unwrap();
        assert_eq!(merged, g);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn merge_blocks_requires_divisibility() {
        let _ = path(5).merge_blocks(2);
    }

    #[test]
    fn merge_blocks_empty_errors() {
        let g = EvolvingDigraph::new();
        assert!(matches!(g.merge_blocks(2), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn clone_is_equal_to_the_original() {
        let g = path(8);
        let cloned = g.clone();
        assert_eq!(g, cloned);
    }
}
