//! Cheap structural predicates and a one-stop structural summary.

use crate::{connected_components, is_connected, DegreeStats, UndirectedCsr};
use std::fmt;

/// Structural predicates on an undirected graph.
///
/// Implemented for [`UndirectedCsr`]; exists as a trait so higher layers
/// can accept any graph view that knows its own shape.
pub trait GraphProperties {
    /// `true` if connected with exactly `n − 1` edges (and no self-loops).
    fn is_tree(&self) -> bool;
    /// Number of self-loop edges.
    fn self_loop_count(&self) -> usize;
    /// Number of edges in excess of the first edge between each vertex
    /// pair (self-loops excluded from the pairing).
    fn parallel_edge_count(&self) -> usize;
    /// `2m / (n(n−1))` for `n ≥ 2`, otherwise `0.0`.
    fn density(&self) -> f64;
}

impl GraphProperties for UndirectedCsr {
    fn is_tree(&self) -> bool {
        let n = self.node_count();
        n > 0 && self.edge_count() == n - 1 && self.self_loop_count() == 0 && is_connected(self)
    }

    fn self_loop_count(&self) -> usize {
        self.edges().filter(|&(_, (u, v))| u == v).count()
    }

    fn parallel_edge_count(&self) -> usize {
        // One pass over the incidence lists: each non-loop edge is seen
        // from its smaller endpoint `u`, and `last_seen[v] == u` means an
        // earlier edge already joined `u` to `v`.
        let mut last_seen = vec![usize::MAX; self.node_count()];
        let mut extra = 0usize;
        for u in self.nodes() {
            for &(v, _) in self.incident(u) {
                if v <= u {
                    continue;
                }
                if last_seen[v.index()] == u.index() {
                    extra += 1;
                } else {
                    last_seen[v.index()] = u.index();
                }
            }
        }
        extra
    }

    fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
    }
}

/// A one-stop structural summary of a graph, convenient for experiment
/// logs and doc examples.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralSummary {
    /// Number of vertices.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub giant: usize,
    /// Number of self-loops.
    pub self_loops: usize,
    /// Number of parallel duplicate edges.
    pub parallels: usize,
    /// Degree statistics, if the graph is non-empty.
    pub degrees: Option<DegreeStats>,
}

impl StructuralSummary {
    /// Computes the summary for `graph`.
    pub fn of(graph: &UndirectedCsr) -> StructuralSummary {
        let cc = connected_components(graph);
        StructuralSummary {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            components: cc.count(),
            giant: cc.giant_size(),
            self_loops: graph.self_loop_count(),
            parallels: graph.parallel_edge_count(),
            degrees: DegreeStats::of(graph),
        }
    }
}

impl fmt::Display for StructuralSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} m={} components={} giant={} loops={} parallels={}",
            self.nodes, self.edges, self.components, self.giant, self.self_loops, self.parallels
        )?;
        if let Some(d) = &self.degrees {
            write!(f, " deg[min={} max={} mean={:.3}]", d.min, d.max, d.mean)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UndirectedCsr;

    #[test]
    fn path_is_tree() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.is_tree());
    }

    #[test]
    fn cycle_is_not_tree() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!g.is_tree());
    }

    #[test]
    fn disconnected_forest_is_not_tree() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_tree()); // right edge count minus one? n-1=3, edges=2
    }

    #[test]
    fn loop_breaks_tree() {
        let g = UndirectedCsr::from_edges(2, [(0, 1), (1, 1)]).unwrap();
        assert!(!g.is_tree());
        assert_eq!(g.self_loop_count(), 1);
    }

    #[test]
    fn parallel_edges_counted() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 1)]).unwrap();
        assert_eq!(g.parallel_edge_count(), 3);
    }

    #[test]
    fn triple_edge_counts_two_extra() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.parallel_edge_count(), 2);
    }

    #[test]
    fn self_loops_are_not_parallel_edges() {
        // Two loops at 0 and three at 2 pair with nothing; the doubled
        // 0–1 and 1–2 pairs add one extra each.
        let edges = [
            (0, 0),
            (0, 1),
            (0, 0),
            (1, 0),
            (2, 2),
            (1, 2),
            (2, 2),
            (2, 1),
            (2, 2),
        ];
        let g = UndirectedCsr::from_edges(3, edges).unwrap();
        assert_eq!(g.self_loop_count(), 5);
        assert_eq!(g.parallel_edge_count(), 2);
    }

    #[test]
    fn parallel_edges_at_a_hub() {
        // Hub 0 with leaves 1..=4: leaf 1 twice, leaf 3 four times, the
        // rest once, plus a doubled leaf–leaf pair 2–4 off the hub.
        let edges = [
            (0, 1),
            (1, 0),
            (0, 2),
            (3, 0),
            (0, 3),
            (0, 3),
            (3, 0),
            (0, 4),
            (2, 4),
            (4, 2),
        ];
        let g = UndirectedCsr::from_edges(5, edges).unwrap();
        assert_eq!(g.parallel_edge_count(), 1 + 3 + 1);
        assert_eq!(
            UndirectedCsr::from_edges(0, [])
                .unwrap()
                .parallel_edge_count(),
            0
        );
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let g = UndirectedCsr::from_edges(4, edges).unwrap();
        assert!((g.density() - 1.0).abs() < 1e-12);
        let empty = UndirectedCsr::from_edges(1, []).unwrap();
        assert_eq!(empty.density(), 0.0);
    }

    #[test]
    fn summary_display_nonempty() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let s = StructuralSummary::of(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.components, 1);
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("deg["));
    }
}
