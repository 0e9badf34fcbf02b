//! Random-walk searchers.

use crate::{DiscoveredView, SearchTask, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::{Rng, RngCore};

/// The pure random walk: from the current vertex, traverse a uniformly
/// random incident edge (possibly one already explored).
///
/// This is the weaker baseline of Adamic et al., with expected cost
/// `O(n^{3(1−2/k)})` on power-law graphs with exponent `k ∈ (2, 3)`.
#[derive(Debug, Clone, Default)]
pub struct RandomWalk {
    current: Option<NodeId>,
}

impl RandomWalk {
    /// Creates a walk (positioned at the task start on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for RandomWalk {
    fn name(&self) -> &'static str {
        "random-walk"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let current = *self.current.get_or_insert(task.start);
        let info = view.vertex(current)?;
        if info.degree() == 0 {
            return None; // isolated vertex: nowhere to go
        }
        let slot = rng.gen_range(0..info.degree());
        Some((current, info.edge(slot)))
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.current = Some(revealed);
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

/// A random walk that prefers unexplored incident edges, falling back to
/// a uniform step when every edge at the current vertex is resolved.
///
/// A cheap "self-avoiding-ish" improvement that spends fewer requests on
/// re-traversals while keeping the walk's local character. The fresh
/// edge is taken in slot order (amortized O(1) via cursors); the
/// fallback step is uniform.
#[derive(Debug, Clone, Default)]
pub struct AvoidingWalk {
    current: Option<NodeId>,
    edges: crate::FrontierCursors,
}

impl AvoidingWalk {
    /// Creates a walk (positioned at the task start on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for AvoidingWalk {
    fn name(&self) -> &'static str {
        "avoiding-walk"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let current = *self.current.get_or_insert(task.start);
        let info = view.vertex(current)?;
        if info.degree() == 0 {
            return None;
        }
        let edge = match self.edges.next_unexplored(view, current) {
            Some(e) => e,
            None => info.edge(rng.gen_range(0..info.degree())),
        };
        Some((current, edge))
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.current = Some(revealed);
    }

    fn reset(&mut self) {
        self.current = None;
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

    fn cycle(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn random_walk_reaches_target_on_cycle() {
        let g = cycle(12);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(6));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let o = run_weak(&g, &task, &mut RandomWalk::new(), &mut rng).unwrap();
        assert!(o.found);
        assert!(o.requests >= 6, "cannot beat the distance");
    }

    #[test]
    fn avoiding_walk_no_slower_than_exhaustive_on_path() {
        let g = UndirectedCsr::from_edges(6, (1..6).map(|i| (i - 1, i))).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(5));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let o = run_weak(&g, &task, &mut AvoidingWalk::new(), &mut rng).unwrap();
        assert!(o.found);
        // On a path, preferring fresh edges can only walk forward.
        assert_eq!(o.requests, 5);
    }

    #[test]
    fn walks_give_up_on_isolated_start() {
        let g = UndirectedCsr::from_edges(2, []).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(1));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let o = run_weak(&g, &task, &mut RandomWalk::new(), &mut rng).unwrap();
        assert!(o.gave_up);
        let o = run_weak(&g, &task, &mut AvoidingWalk::new(), &mut rng).unwrap();
        assert!(o.gave_up);
    }

    #[test]
    fn reset_reuses_cleanly() {
        let g = cycle(8);
        let mut walker = RandomWalk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for target in [2, 5, 7] {
            let task = SearchTask::new(NodeId::new(0), NodeId::new(target));
            let o = run_weak(&g, &task, &mut walker, &mut rng).unwrap();
            assert!(o.found);
        }
    }

    #[test]
    fn walk_handles_self_loops() {
        let g = UndirectedCsr::from_edges(2, [(0, 0), (0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(1));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let o = run_weak(&g, &task, &mut RandomWalk::new(), &mut rng).unwrap();
        assert!(o.found);
    }
}
