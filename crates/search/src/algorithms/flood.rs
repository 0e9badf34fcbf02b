//! Exhaustive frontier expansions: BFS flooding and DFS.

use crate::frontier::FrontierCursors;
use crate::{DiscoveredView, SearchTask, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Breadth-first flooding: explore every edge of the earliest-discovered
/// vertex that still has unexplored edges.
///
/// Guaranteed to find any target in a connected graph with at most one
/// request per edge slot; the exhaustive baseline every smarter strategy
/// is compared against. Amortized O(1) per request.
#[derive(Debug, Clone, Default)]
pub struct BfsFlood {
    cursor: usize,
    edges: FrontierCursors,
}

impl BfsFlood {
    /// Creates a BFS flooder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for BfsFlood {
    fn name(&self) -> &'static str {
        "bfs-flood"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        // The discovery order only grows, so the cursor never goes back.
        while self.cursor < view.len() {
            let v = view.discovered()[self.cursor];
            if let Some(e) = self.edges.next_unexplored(view, v) {
                return Some((v, e));
            }
            self.cursor += 1;
        }
        None
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn frontier_rescans(&self) -> u64 {
        self.edges.rescans()
    }
}

/// Depth-first exploration: expand the most recently discovered vertex
/// that still has unexplored edges. Amortized O(1) per request.
#[derive(Debug, Clone, Default)]
pub struct DfsWalk {
    stack: Vec<NodeId>,
    seen: usize,
    edges: FrontierCursors,
}

impl DfsWalk {
    /// Creates a DFS explorer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for DfsWalk {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        while self.seen < view.len() {
            self.stack.push(view.discovered()[self.seen]);
            self.seen += 1;
        }
        while let Some(&v) = self.stack.last() {
            if let Some(e) = self.edges.next_unexplored(view, v) {
                return Some((v, e));
            }
            // Exhausted vertices never regain unexplored edges.
            self.stack.pop();
        }
        None
    }

    fn reset(&mut self) {
        self.stack.clear();
        self.seen = 0;
    }

    fn reserve(&mut self, nodes: usize, _edges: usize) {
        self.stack.reserve(nodes);
    }

    fn frontier_rescans(&self) -> u64 {
        self.edges.rescans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_weak, SearchTask};
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn bfs_finds_near_targets_quickly() {
        // Star: target adjacent to the center start.
        let g = UndirectedCsr::from_edges(5, (1..5).map(|i| (0, i))).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(4));
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert!(o.requests <= 4);
    }

    #[test]
    fn bfs_never_exceeds_edge_slots() {
        let g = UndirectedCsr::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 6),
                (1, 2),
            ],
        )
        .unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(6));
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert!(o.requests <= g.edge_count());
    }

    #[test]
    fn bfs_gives_up_when_component_exhausted() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(3));
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        assert!(!o.found);
        assert!(o.gave_up);
        assert_eq!(o.requests, 1); // explored the lone edge, then stuck
    }

    #[test]
    fn bfs_visits_in_breadth_order_on_binary_tree() {
        // Perfect binary tree: BFS must find the deepest node after
        // exploring every edge above it, i.e. in exactly n−1 requests.
        let g =
            UndirectedCsr::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(6));
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 6);
    }

    #[test]
    fn dfs_explores_deep_first() {
        // Path: DFS equals BFS here and must reach the far end.
        let g = UndirectedCsr::from_edges(8, (1..8).map(|i| (i - 1, i))).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(7));
        let o = run_weak(&g, &task, &mut DfsWalk::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 7);
    }

    #[test]
    fn dfs_beats_bfs_on_a_deep_branch() {
        // Start at the hub of a broom: one long path plus many pendant
        // leaves. DFS dives down the path as soon as it discovers it.
        let mut edges: Vec<(usize, usize)> = (1..20).map(|i| (i - 1, i)).collect();
        for leaf in 20..40 {
            edges.push((0, leaf));
        }
        let g = UndirectedCsr::from_edges(40, edges).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(19));
        let bfs = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        let dfs = run_weak(&g, &task, &mut DfsWalk::new(), &mut rng()).unwrap();
        assert!(bfs.found && dfs.found);
        assert!(dfs.requests <= bfs.requests);
    }

    #[test]
    fn reuse_after_reset_is_deterministic() {
        let g = UndirectedCsr::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(5));
        let mut bfs = BfsFlood::new();
        let a = run_weak(&g, &task, &mut bfs, &mut rng()).unwrap();
        let b = run_weak(&g, &task, &mut bfs, &mut rng()).unwrap();
        assert_eq!(a, b);
    }
}
