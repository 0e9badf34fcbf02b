//! Identity-guided strategies.
//!
//! In the paper's models, vertex identities are arrival times, so labels
//! carry structure: small labels are old, high-degree, central vertices;
//! the target `n` is the newest vertex. These searchers exploit that —
//! and the lower bound says even they cannot beat `Ω(√n)`.

use crate::best::{closer_label_first, BestDiscovered};
use crate::frontier::FrontierCursors;
use crate::{DiscoveredView, SearchTask, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Expand edges of the discovered vertex whose label is closest to the
/// target's label (ties toward the older vertex).
///
/// The natural "greedy routing on identities" once one knows identities
/// are ages — the analogue of Kleinberg's greedy with the label metric.
#[derive(Debug, Clone, Default)]
pub struct GreedyIdProximity {
    index: BestDiscovered,
    edges: FrontierCursors,
}

impl GreedyIdProximity {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for GreedyIdProximity {
    fn name(&self) -> &'static str {
        "greedy-id"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let edges = &mut self.edges;
        self.index.best(
            view,
            |v| closer_label_first(v, task.target),
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

/// Expand edges of the oldest (smallest-label) discovered vertex first.
///
/// Heads for the graph's dense core — old vertices have the highest
/// expected degree in attachment models — before fanning out.
#[derive(Debug, Clone, Default)]
pub struct OldestFirst {
    index: BestDiscovered,
    edges: FrontierCursors,
}

impl OldestFirst {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest-first"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let edges = &mut self.edges;
        self.index
            .best(view, |_| 0, |v| edges.next_unexplored(view, v))
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
    use crate::{run_weak, SearchTask};
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    fn path(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    #[test]
    fn greedy_id_walks_straight_on_a_path() {
        // On a path with labels in order, id-greedy is optimal.
        let g = path(20);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(19));
        let o = run_weak(&g, &task, &mut GreedyIdProximity::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 19);
    }

    #[test]
    fn greedy_id_prefers_closer_labels() {
        // Star from the center: target label 10; expansion happens from
        // the center (the only vertex with unexplored edges) regardless.
        let g = UndirectedCsr::from_edges(10, (1..10).map(|i| (0, i))).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(9));
        let o = run_weak(&g, &task, &mut GreedyIdProximity::new(), &mut rng()).unwrap();
        assert!(o.found);
    }

    #[test]
    fn oldest_first_reaches_core_then_target() {
        let g = path(10);
        let task = SearchTask::new(NodeId::new(5), NodeId::new(9));
        let o = run_weak(&g, &task, &mut OldestFirst::new(), &mut rng()).unwrap();
        assert!(o.found);
        // Walks to vertex 0 first (5 requests), then back out (4 more).
        assert_eq!(o.requests, 9);
    }

    #[test]
    fn both_give_up_outside_component() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(3));
        assert!(
            run_weak(&g, &task, &mut GreedyIdProximity::new(), &mut rng())
                .unwrap()
                .gave_up
        );
        assert!(
            run_weak(&g, &task, &mut OldestFirst::new(), &mut rng())
                .unwrap()
                .gave_up
        );
    }

    #[test]
    fn reusable_across_runs() {
        let g = path(8);
        let mut a = GreedyIdProximity::new();
        let mut b = OldestFirst::new();
        for target in [7, 3] {
            let task = SearchTask::new(NodeId::new(0), NodeId::new(target));
            assert!(run_weak(&g, &task, &mut a, &mut rng()).unwrap().found);
            assert!(run_weak(&g, &task, &mut b, &mut rng()).unwrap().found);
        }
    }
}
