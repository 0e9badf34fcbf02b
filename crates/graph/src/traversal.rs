//! Breadth-first traversal and connectivity utilities.

use crate::{NodeId, UndirectedCsr};
use std::collections::VecDeque;

/// A breadth-first search iterator over an [`UndirectedCsr`].
///
/// Yields `(vertex, distance-from-source)` pairs in BFS order, visiting
/// each vertex once.
///
/// ```
/// use nonsearch_graph::{Bfs, NodeId, UndirectedCsr};
///
/// let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let order: Vec<(usize, u32)> = Bfs::new(&g, NodeId::new(0))
///     .map(|(v, d)| (v.index(), d))
///     .collect();
/// assert_eq!(order, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
/// # Ok::<(), nonsearch_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bfs<'a> {
    graph: &'a UndirectedCsr,
    queue: VecDeque<(NodeId, u32)>,
    visited: Vec<bool>,
}

impl<'a> Bfs<'a> {
    /// Starts a BFS from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn new(graph: &'a UndirectedCsr, source: NodeId) -> Self {
        assert!(source.index() < graph.node_count(), "source out of bounds");
        let mut visited = vec![false; graph.node_count()];
        visited[source.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back((source, 0));
        Bfs {
            graph,
            queue,
            visited,
        }
    }
}

impl Iterator for Bfs<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        let (v, d) = self.queue.pop_front()?;
        for w in self.graph.neighbors(v) {
            if !self.visited[w.index()] {
                self.visited[w.index()] = true;
                self.queue.push_back((w, d + 1));
            }
        }
        Some((v, d))
    }
}

/// BFS distances from `source`; `None` for unreachable vertices.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn bfs_distances(graph: &UndirectedCsr, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.node_count()];
    for (v, d) in Bfs::new(graph, source) {
        dist[v.index()] = Some(d);
    }
    dist
}

/// Connected-component labelling of an undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    labels: Vec<u32>,
    count: usize,
}

impl ComponentLabels {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component index of `v` (in `0..count()`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.labels[v.index()] as usize
    }

    /// Sizes of each component, indexed by component label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn giant_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Computes connected components via repeated BFS.
pub fn connected_components(graph: &UndirectedCsr) -> ComponentLabels {
    let n = graph.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0usize;
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        let label = count as u32;
        count += 1;
        let mut queue = VecDeque::new();
        labels[start] = label;
        queue.push_back(NodeId::new(start));
        while let Some(v) = queue.pop_front() {
            for w in graph.neighbors(v) {
                if labels[w.index()] == u32::MAX {
                    labels[w.index()] = label;
                    queue.push_back(w);
                }
            }
        }
    }
    ComponentLabels { labels, count }
}

/// `true` if the graph is connected. The empty graph counts as connected.
pub fn is_connected(graph: &UndirectedCsr) -> bool {
    graph.node_count() <= 1 || connected_components(graph).count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UndirectedCsr;

    fn path(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    #[test]
    fn bfs_visits_each_vertex_once() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let seen: Vec<_> = Bfs::new(&g, NodeId::new(0)).map(|(v, _)| v).collect();
        assert_eq!(seen.len(), 4);
        let mut idx: Vec<_> = seen.iter().map(|v| v.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_handles_self_loops_and_multi_edges() {
        let g = UndirectedCsr::from_edges(3, [(0, 0), (0, 1), (0, 1), (1, 2)]).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn unreachable_vertices_are_none() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn components_of_disjoint_paths() {
        let g = UndirectedCsr::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count(), 3);
        let mut sizes = cc.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(cc.giant_size(), 3);
        assert_eq!(
            cc.component_of(NodeId::new(0)),
            cc.component_of(NodeId::new(2))
        );
        assert_ne!(
            cc.component_of(NodeId::new(0)),
            cc.component_of(NodeId::new(5))
        );
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&path(10)));
        assert!(is_connected(&UndirectedCsr::from_edges(0, []).unwrap()));
        assert!(is_connected(&UndirectedCsr::from_edges(1, []).unwrap()));
        assert!(!is_connected(&UndirectedCsr::from_edges(2, []).unwrap()));
    }

    #[test]
    #[should_panic(expected = "source out of bounds")]
    fn bfs_rejects_bad_source() {
        let g = path(3);
        let _ = Bfs::new(&g, NodeId::new(9));
    }
}
