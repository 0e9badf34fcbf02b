//! Strong-model searchers: expansion-order policies over known vertices.

use crate::best::{closer_label_first, higher_degree_first, BestDiscovered};
use crate::{DiscoveredView, NodeSet, SearchTask, StrongSearcher};
use nonsearch_graph::NodeId;
use rand::RngCore;

/// Strong-model BFS: expand known vertices in discovery order.
#[derive(Debug, Clone, Default)]
pub struct StrongBfs {
    expanded: NodeSet,
    cursor: usize,
}

impl StrongBfs {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StrongSearcher for StrongBfs {
    fn name(&self) -> &'static str {
        "strong-bfs"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        while self.cursor < view.len() {
            let v = view.discovered()[self.cursor];
            if !self.expanded.contains(v) {
                return Some(v);
            }
            self.cursor += 1;
        }
        None
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
        self.cursor = 0;
    }

    fn reserve(&mut self, nodes: usize, _edges: usize) {
        self.expanded.reserve(nodes);
    }
}

/// Strong-model high-degree greedy: expand the known, unexpanded vertex
/// of maximum degree (Adamic et al.'s strategy as literally stated —
/// neighbor degrees *are* known in the strong model).
///
/// Ties break toward the older (smaller-label) vertex. O(log n)
/// amortized per request via the shared lazy-deletion index.
#[derive(Debug, Clone, Default)]
pub struct StrongHighDegree {
    expanded: NodeSet,
    index: BestDiscovered,
}

impl StrongHighDegree {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StrongSearcher for StrongHighDegree {
    fn name(&self) -> &'static str {
        "strong-high-degree"
    }

    fn next_request(
        &mut self,
        _task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let expanded = &self.expanded;
        self.index
            .best(
                view,
                |v| higher_degree_first(view, v),
                |v| (!expanded.contains(v)).then_some(()),
            )
            .map(|(v, ())| v)
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
        self.index.reset();
    }

    fn reserve(&mut self, nodes: usize, _edges: usize) {
        self.expanded.reserve(nodes);
        self.index.reserve(nodes);
    }
}

/// Strong-model identity greedy: expand the known, unexpanded vertex with
/// label closest to the target's.
///
/// Ties break toward the older (smaller-label) vertex. O(log n)
/// amortized per request via the shared lazy-deletion index.
#[derive(Debug, Clone, Default)]
pub struct StrongGreedyId {
    expanded: NodeSet,
    index: BestDiscovered,
}

impl StrongGreedyId {
    /// Creates the searcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StrongSearcher for StrongGreedyId {
    fn name(&self) -> &'static str {
        "strong-greedy-id"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let expanded = &self.expanded;
        self.index
            .best(
                view,
                |v| closer_label_first(v, task.target),
                |v| (!expanded.contains(v)).then_some(()),
            )
            .map(|(v, ())| v)
    }

    fn observe(&mut self, expanded: NodeId, _neighbors: &[NodeId]) {
        self.expanded.insert(expanded);
    }

    fn reset(&mut self) {
        self.expanded.clear();
        self.index.reset();
    }

    fn reserve(&mut self, nodes: usize, _edges: usize) {
        self.expanded.reserve(nodes);
        self.index.reserve(nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_strong_in, SearchScratch, SearchTask};
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn strong_high_degree_heads_for_hubs() {
        // Leaf → small hub → big hub → target leaf.
        let mut edges = vec![(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (3, 6), (3, 7)];
        edges.push((7, 8));
        let g = UndirectedCsr::from_edges(9, edges).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(8));
        let o = run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongHighDegree::new(),
            &mut rng(),
        )
        .unwrap();
        assert!(o.found);
        assert!(o.requests <= g.node_count());
    }

    #[test]
    fn strong_greedy_id_on_path_is_direct() {
        let g = UndirectedCsr::from_edges(12, (1..12).map(|i| (i - 1, i))).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(11));
        let o = run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongGreedyId::new(),
            &mut rng(),
        )
        .unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 11);
    }

    #[test]
    fn strong_bfs_discovers_within_node_budget() {
        let g = UndirectedCsr::from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(5));
        let o = run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongBfs::new(),
            &mut rng(),
        )
        .unwrap();
        assert!(o.found);
        assert!(o.requests < g.node_count());
    }

    #[test]
    fn strong_searchers_give_up_cleanly() {
        let g = UndirectedCsr::from_edges(3, [(0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(2));
        assert!(
            run_strong_in(
                &mut SearchScratch::new(),
                &g,
                &task,
                &mut StrongBfs::new(),
                &mut rng()
            )
            .unwrap()
            .gave_up
        );
        assert!(
            run_strong_in(
                &mut SearchScratch::new(),
                &g,
                &task,
                &mut StrongHighDegree::new(),
                &mut rng()
            )
            .unwrap()
            .gave_up
        );
        assert!(
            run_strong_in(
                &mut SearchScratch::new(),
                &g,
                &task,
                &mut StrongGreedyId::new(),
                &mut rng()
            )
            .unwrap()
            .gave_up
        );
    }
}
