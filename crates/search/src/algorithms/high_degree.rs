//! Adamic et al.'s high-degree-seeking strategy, adapted to the weak
//! model.
//!
//! *"at each step, the next visited vertex is the highest degree neighbor
//! of the set of visited vertices"* — in the weak model degrees of
//! not-yet-visited vertices are unknown, so the faithful adaptation
//! expands edges out of the highest-degree **discovered** vertex; its
//! mean-field cost on power-law graphs is `O(n^{2(1−2/k)})` versus the
//! random walk's `O(n^{3(1−2/k)})`.

use crate::best::{higher_degree_first, BestDiscovered};
use crate::frontier::FrontierCursors;
use crate::{DiscoveredView, SearchTask, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Greedy high-degree search (weak model).
///
/// Always requests an unexplored edge of the highest-degree discovered
/// vertex that has one; ties break toward the older (smaller-label)
/// vertex for determinism. O(log n) amortized per request via the
/// shared lazy-deletion index.
#[derive(Debug, Clone, Default)]
pub struct HighDegreeGreedy {
    index: BestDiscovered,
    edges: FrontierCursors,
}

impl HighDegreeGreedy {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for HighDegreeGreedy {
    fn name(&self) -> &'static str {
        "high-degree"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let edges = &mut self.edges;
        self.index.best(
            view,
            |v| higher_degree_first(view, v),
            |v| edges.next_unexplored(view, v),
        )
    }

    fn reset(&mut self) {
        self.index.reset();
    }

    fn reserve(&mut self, nodes: usize, _edges: usize) {
        self.index.reserve(nodes);
    }

    fn frontier_rescans(&self) -> u64 {
        self.edges.rescans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_weak, BfsFlood, SearchTask};
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn prefers_the_hub() {
        // Two stars joined: start on a leaf of the small star; the big
        // hub, once discovered, gets expanded before more leaves.
        // small star: 0 center, leaves 1,2; big star: 3 center, leaves 4..10.
        let mut edges = vec![(0, 1), (0, 2), (0, 3)];
        for leaf in 4..11 {
            edges.push((3, leaf));
        }
        let g = UndirectedCsr::from_edges(11, edges).unwrap();
        let task = SearchTask::new(NodeId::new(1), NodeId::new(10));
        let o = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert!(o.requests <= g.edge_count());
    }

    #[test]
    fn finds_target_on_tree() {
        let g =
            UndirectedCsr::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        for target in 1..7 {
            let task = SearchTask::new(NodeId::new(0), NodeId::new(target));
            let o = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
            assert!(o.found, "target {target}");
        }
    }

    #[test]
    fn deterministic_given_view() {
        let g = UndirectedCsr::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(4));
        let a = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
        let b = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn on_star_graph_beats_or_ties_bfs() {
        let g = UndirectedCsr::from_edges(8, (1..8).map(|i| (0, i))).unwrap();
        let task = SearchTask::new(NodeId::new(1), NodeId::new(7));
        let greedy = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
        let bfs = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng()).unwrap();
        assert!(greedy.found && bfs.found);
        assert!(greedy.requests <= bfs.requests);
    }

    #[test]
    fn gives_up_when_frontier_empty() {
        let g = UndirectedCsr::from_edges(3, [(0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(2));
        let o = run_weak(&g, &task, &mut HighDegreeGreedy::new(), &mut rng()).unwrap();
        assert!(o.gave_up);
    }

    #[test]
    fn reusable_across_runs() {
        let g = UndirectedCsr::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut s = HighDegreeGreedy::new();
        for target in [3, 5, 1] {
            let task = SearchTask::new(NodeId::new(0), NodeId::new(target));
            assert!(run_weak(&g, &task, &mut s, &mut rng()).unwrap().found);
        }
    }
}
