//! Simulation of strong-model algorithms in the weak model.
//!
//! Paper, §2: *"Any algorithm operating in the strong model can be
//! simulated in the weak model by replacing each request about vertex `u`
//! with requests about all edges incident to `u`, which gives a slowdown
//! factor of at most the maximum degree."* This adapter implements that
//! simulation literally, which is how Theorem 1's strong-model bound
//! `Ω(n^{1/2−p−ε})` follows from the weak-model bound and Móri's
//! `t^p` maximum degree.

use crate::{DiscoveredView, FrontierCursors, SearchTask, StrongSearcher, WeakSearcher};
use nonsearch_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Wraps a [`StrongSearcher`] as a [`WeakSearcher`].
///
/// Each strong request on `u` is expanded into weak requests on every
/// unresolved incident edge of `u`, so the weak request count is at most
/// `max_degree` times the strong request count — never more, because
/// already-resolved edges are skipped.
///
/// The expansion walks `u`'s incident list lazily through a pooled
/// [`FrontierCursors`] instead of snapshotting the unresolved edges into
/// a queue: resolution is monotone and `u`'s incident image is fixed at
/// discovery, so the forward-only cursor emits exactly the edges the
/// queue would have (slot order, unresolved at emission time) without a
/// per-expansion buffer to fill.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, MoriTree};
/// use nonsearch_graph::NodeId;
/// use nonsearch_search::{run_weak, SimulatedStrong, StrongHighDegree, SearchTask};
///
/// let mut rng = rng_from_seed(11);
/// let tree = MoriTree::sample(128, 0.4, &mut rng)?;
/// let graph = tree.undirected();
/// let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(128));
/// let mut sim = SimulatedStrong::new(StrongHighDegree::new());
/// let outcome = run_weak(&graph, &task, &mut sim, &mut rng)?;
/// assert!(outcome.found);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedStrong<S> {
    inner: S,
    /// Walks the expanding vertex's incident list through the view's
    /// forward-only cursors (expansion never revisits slots).
    edges: FrontierCursors,
    /// The vertex currently being expanded, to report back to `inner`.
    expanding: Option<NodeId>,
    /// Neighbors revealed while expanding, passed to `inner.observe`.
    revealed: Vec<NodeId>,
    /// Strong-model requests issued so far (the simulated cost).
    strong_requests: usize,
}

impl<S: StrongSearcher> SimulatedStrong<S> {
    /// Wraps `inner` for weak-model execution.
    pub fn new(inner: S) -> Self {
        SimulatedStrong {
            inner,
            edges: FrontierCursors::new(),
            expanding: None,
            revealed: Vec::new(),
            strong_requests: 0,
        }
    }

    /// The wrapped strong searcher.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn finish_expansion(&mut self) {
        if let Some(u) = self.expanding.take() {
            self.inner.observe(u, &self.revealed);
            // Clear, don't take: the buffer keeps its capacity for the
            // next expansion, so steady state allocates nothing.
            self.revealed.clear();
        }
    }
}

impl<S: StrongSearcher> WeakSearcher for SimulatedStrong<S> {
    /// The [`SearcherKind`](crate::SearcherKind) name of the two
    /// simulated suite lanes, `"simulated-strong"` for any other inner
    /// searcher.
    fn name(&self) -> &'static str {
        match self.inner.name() {
            "strong-high-degree" => "sim-strong-high-degree",
            "strong-greedy-id" => "sim-strong-greedy-id",
            _ => "simulated-strong",
        }
    }

    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)> {
        loop {
            // Continue the current expansion: the cursor resumes where
            // the last request left off and skips edges resolved in the
            // meantime (by the answer itself, or by symmetry).
            if let Some(u) = self.expanding {
                if let Some(e) = self.edges.next_unexplored(view, u) {
                    return Some((u, e));
                }
                // The strong request is fully expanded: report it.
                self.finish_expansion();
            }
            let u = self.inner.next_request(task, view, rng)?;
            self.strong_requests += 1;
            self.expanding = Some(u);
            // An expansion with nothing to ask (every neighbor already
            // known) is finished — and reported — on the next lap.
        }
    }

    fn observe(&mut self, _request: (NodeId, EdgeId), revealed: NodeId) {
        self.revealed.push(revealed);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.expanding = None;
        self.revealed.clear();
        self.strong_requests = 0;
    }

    fn reserve(&mut self, nodes: usize, edges: usize) {
        // One revealed neighbor per incidence slot of the expanding
        // vertex, so max degree — bounded by the total slot count.
        self.revealed.reserve(2 * edges);
        self.inner.reserve(nodes, edges);
    }

    fn frontier_rescans(&self) -> u64 {
        self.edges.rescans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_strong_in, run_weak, SearchScratch, StrongBfs, StrongHighDegree};
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
    fn simulation_finds_what_strong_finds() {
        let g = path(12);
        let task = crate::SearchTask::new(NodeId::new(0), NodeId::new(11));
        let strong = run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongBfs::new(),
            &mut rng(),
        )
        .unwrap();
        let weak = run_weak(
            &g,
            &task,
            &mut SimulatedStrong::new(StrongBfs::new()),
            &mut rng(),
        )
        .unwrap();
        assert!(strong.found && weak.found);
    }

    #[test]
    fn slowdown_bounded_by_max_degree() {
        // Star with 9 leaves: max degree 9.
        let g = UndirectedCsr::from_edges(10, (1..10).map(|i| (0, i))).unwrap();
        let task = crate::SearchTask::new(NodeId::new(1), NodeId::new(9));
        let mut sim = SimulatedStrong::new(StrongHighDegree::new());
        let weak = run_weak(&g, &task, &mut sim, &mut rng()).unwrap();
        assert!(weak.found);
        let max_degree = 9;
        assert!(
            weak.requests <= sim.strong_requests.max(1) * max_degree,
            "weak {} vs strong {} × Δ {}",
            weak.requests,
            sim.strong_requests,
            max_degree
        );
    }

    #[test]
    fn skips_edges_resolved_by_symmetry() {
        // Triangle: after expanding two vertices, the third vertex's
        // edges are already resolved, so a strong request on it costs 0.
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let task = crate::SearchTask::new(NodeId::new(0), NodeId::new(2));
        let mut sim = SimulatedStrong::new(StrongBfs::new());
        let weak = run_weak(&g, &task, &mut sim, &mut rng()).unwrap();
        assert!(weak.found);
        assert!(weak.requests <= 3);
    }

    #[test]
    fn reset_clears_simulation_state() {
        let g = path(6);
        let task = crate::SearchTask::new(NodeId::new(0), NodeId::new(5));
        let mut sim = SimulatedStrong::new(StrongBfs::new());
        let first = run_weak(&g, &task, &mut sim, &mut rng()).unwrap();
        let second = run_weak(&g, &task, &mut sim, &mut rng()).unwrap();
        assert_eq!(first, second);
    }
}
