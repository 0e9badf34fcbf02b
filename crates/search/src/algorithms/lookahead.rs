//! Look-ahead and restarting walks.

use crate::best::{closer_label_first, BestDiscovered};
use crate::frontier::FrontierCursors;
use crate::{DiscoveredView, SearchTask, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::{Rng, RngCore};

/// A greedy look-ahead walk: fully expand the current vertex, then move
/// to the revealed neighbor whose label is closest to the target's.
///
/// This is the weak-model analogue of Kleinberg's greedy routing with
/// the label metric standing in for lattice distance — the natural
/// algorithm to try once one knows identities are ages. Theorem 1 says
/// it, too, is stuck at `Ω(√n)`.
///
/// A request costs O(1) amortized while the walk moves, plus O(log n)
/// amortized when it dead-ends and falls back to the globally best
/// discovered vertex, which the shared lazy-deletion index finds.
#[derive(Debug, Clone, Default)]
pub struct LookaheadWalk {
    current: Option<NodeId>,
    edges: FrontierCursors,
    /// Neighbors revealed while expanding the current vertex.
    basket: Vec<NodeId>,
    /// Discovered vertices by `(|label − target|, v)`, for dead ends.
    fallback: BestDiscovered,
}

impl LookaheadWalk {
    /// Creates the walker (positioned at the task start on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl WeakSearcher for LookaheadWalk {
    fn name(&self) -> &'static str {
        "lookahead-walk"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        _rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        let current = *self.current.get_or_insert(task.start);
        if let Some(e) = self.edges.next_unexplored(view, current) {
            return Some((current, e));
        }
        // Current vertex fully expanded: hop to the basket's best
        // neighbor (closest label to the target), then continue there.
        // Liveness reads the frontier cursors, which only move forward,
        // so a hub in the basket is not rescanned from slot 0 every hop.
        let gap = |v: NodeId| closer_label_first(v, task.target);
        let edges = &mut self.edges;
        let (v, e) = match self
            .basket
            .drain(..)
            .filter_map(|v| edges.next_unexplored(view, v).map(|e| (v, e)))
            .min_by_key(|&(v, _)| (gap(v), v))
        {
            Some(hop) => hop,
            // Dead end: fall back to the globally best discovered
            // vertex with work left (keeps the walk from giving up
            // while the component still has unexplored edges).
            None => self
                .fallback
                .best(view, gap, |v| edges.next_unexplored(view, v))?,
        };
        self.current = Some(v);
        Some((v, e))
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.basket.push(revealed);
    }

    fn reset(&mut self) {
        self.current = None;
        self.basket.clear();
        self.fallback.reset();
    }

    fn reserve(&mut self, nodes: usize, edges: usize) {
        self.fallback.reserve(nodes);
        // The basket holds one entry per request since the last hop,
        // which the expanding vertex's degree bounds.
        self.basket.reserve(2 * edges);
    }

    fn frontier_rescans(&self) -> u64 {
        self.edges.rescans()
    }
}

/// A random walk that teleports back to the start every `restart_every`
/// steps — the classic mixing trick for walks trapped in dense cores.
#[derive(Debug, Clone)]
pub struct RestartingWalk {
    restart_every: usize,
    current: Option<NodeId>,
    since_restart: usize,
}

impl RestartingWalk {
    /// Creates a walk restarting every `restart_every` steps.
    ///
    /// # Panics
    ///
    /// Panics if `restart_every == 0`.
    pub fn new(restart_every: usize) -> Self {
        assert!(restart_every > 0, "restart period must be positive");
        RestartingWalk {
            restart_every,
            current: None,
            since_restart: 0,
        }
    }
}

impl WeakSearcher for RestartingWalk {
    fn name(&self) -> &'static str {
        "restarting-walk"
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        if self.since_restart >= self.restart_every {
            self.current = Some(task.start);
            self.since_restart = 0;
        }
        let current = *self.current.get_or_insert(task.start);
        let info = view.vertex(current)?;
        if info.degree() == 0 {
            return None;
        }
        let slot = rng.gen_range(0..info.degree());
        Some((current, info.edge(slot)))
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.current = Some(revealed);
        self.since_restart += 1;
    }

    fn reset(&mut self) {
        self.current = None;
        self.since_restart = 0;
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
    fn lookahead_walks_a_labelled_path_optimally() {
        let g = path(16);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(15));
        let o = run_weak(&g, &task, &mut LookaheadWalk::new(), &mut rng()).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 15);
    }

    #[test]
    fn lookahead_explores_whole_component_if_needed() {
        // Binary tree with the target in a corner: look-ahead must not
        // give up before the component is exhausted.
        let g =
            UndirectedCsr::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        for target in 1..7 {
            let task = SearchTask::new(NodeId::new(0), NodeId::new(target));
            let o = run_weak(&g, &task, &mut LookaheadWalk::new(), &mut rng()).unwrap();
            assert!(o.found, "target {target}");
        }
    }

    #[test]
    fn lookahead_gives_up_outside_component() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(3));
        let o = run_weak(&g, &task, &mut LookaheadWalk::new(), &mut rng()).unwrap();
        assert!(o.gave_up);
    }

    #[test]
    fn restarting_walk_still_reaches_targets() {
        let g = path(8);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(7)).with_budget(100_000);
        let o = run_weak(&g, &task, &mut RestartingWalk::new(50), &mut rng()).unwrap();
        assert!(o.found);
    }

    #[test]
    fn frequent_restarts_hurt_on_a_path() {
        // With restarts shorter than the distance, the walk can only
        // reach the target in the rare bursts that go straight out. A
        // single run is noisy, so compare totals over several seeds.
        let g = path(10);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(9)).with_budget(200_000);
        let mut short_total = 0usize;
        let mut long_total = 0usize;
        for seed in 0..6u64 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let short = run_weak(&g, &task, &mut RestartingWalk::new(12), &mut r).unwrap();
            let long = run_weak(&g, &task, &mut RestartingWalk::new(10_000), &mut r).unwrap();
            assert!(short.found && long.found, "seed {seed}");
            short_total += short.requests;
            long_total += long.requests;
        }
        assert!(
            short_total > long_total,
            "restarts should hurt: {short_total} vs {long_total}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_restart_period_panics() {
        let _ = RestartingWalk::new(0);
    }

    #[test]
    fn reset_reuses_cleanly() {
        let g = path(6);
        let mut w = LookaheadWalk::new();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(5));
        let a = run_weak(&g, &task, &mut w, &mut rng()).unwrap();
        let b = run_weak(&g, &task, &mut w, &mut rng()).unwrap();
        assert_eq!(a, b);
    }
}
