//! The strong local-knowledge oracle and the strong-searcher interface.

use crate::{DiscoveredView, SearchError, SearchScratch, SearchTask};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::RngCore;

/// Oracle state for a strong-model search.
///
/// A strong request names a vertex `u` of known identity; the answer is
/// *"the list of vertices adjacent to `u`, together with their respective
/// lists of incident edges"* — so one request reveals every neighbor of
/// `u` with its identity and degree. This is strictly more information
/// per request than the weak model, and the paper notes Kleinberg's model
/// assumes even more.
///
/// All mutable state (the view's discovery bits, expansion order, answer
/// buffer) lives in a borrowed [`SearchScratch`], so per-request work
/// allocates nothing once the scratch is warm.
#[derive(Debug)]
pub struct StrongSearchState<'a> {
    view: DiscoveredView<'a>,
    /// Vertices expanded so far, in request order.
    expanded: &'a mut Vec<NodeId>,
    /// The neighbors revealed by the latest request.
    revealed: &'a mut Vec<NodeId>,
    requests: usize,
}

impl<'a> StrongSearchState<'a> {
    /// Starts a search at `start` (known for free, as in the weak
    /// model), resetting `scratch` first (in time linear in the last
    /// search's discoveries).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::TaskOutOfBounds`] if `start` is not in the
    /// graph.
    pub fn new_in(
        scratch: &'a mut SearchScratch,
        graph: &'a UndirectedCsr,
        start: NodeId,
    ) -> crate::Result<Self> {
        if start.index() >= graph.node_count() {
            return Err(SearchError::TaskOutOfBounds {
                vertex: start,
                node_count: graph.node_count(),
            });
        }
        let SearchScratch {
            view,
            expanded,
            revealed,
        } = scratch;
        expanded.clear();
        revealed.clear();
        let mut view = DiscoveredView::new(view, graph);
        view.discover(start);
        Ok(StrongSearchState {
            view,
            expanded,
            revealed,
            requests: 0,
        })
    }

    /// The searcher's current knowledge.
    pub fn view(&self) -> &DiscoveredView<'a> {
        &self.view
    }

    /// Requests issued so far.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Vertices whose neighborhoods have been expanded, in request order.
    pub fn expanded(&self) -> &[NodeId] {
        self.expanded
    }

    /// Issues the strong-model request on `u`: reveals all neighbors of
    /// `u` (identity + incident edge lists). Costs one request.
    ///
    /// The returned slice borrows the scratch's answer buffer (reused
    /// across requests, so no per-request vector is allocated); copy it
    /// out if you need it past the next call.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::UndiscoveredVertex`] if the identity of `u`
    /// is not yet known to the searcher.
    // lint: alloc-free
    pub fn request(&mut self, u: NodeId) -> crate::Result<&[NodeId]> {
        if !self.view.contains(u) {
            return Err(SearchError::UndiscoveredVertex { vertex: u });
        }
        self.requests += 1;
        self.expanded.push(u);
        self.revealed.clear();
        let slots = self.view.slots_of(u);
        self.view.count_reads(slots.len());
        for &(v, _) in slots {
            self.view.discover(v);
            self.revealed.push(v);
        }
        Ok(self.revealed)
    }
}

/// A strong-model search algorithm: chooses which known vertex to expand
/// next.
pub trait StrongSearcher {
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the next vertex to expand, or `None` to give up.
    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId>;

    /// Observes the answer to the previous request (default: ignore).
    fn observe(&mut self, _expanded: NodeId, _neighbors: &[NodeId]) {}

    /// Resets internal state so the searcher can be reused for a new run.
    fn reset(&mut self) {}

    /// Pre-sizes internal buffers for a graph with `nodes` vertices and
    /// `edges` edges, so even a first trial allocates nothing (default:
    /// ignore). The runners call this right after
    /// [`reset`](StrongSearcher::reset); a no-op once large enough.
    fn reserve(&mut self, _nodes: usize, _edges: usize) {}

    /// Cumulative count of resolved frontier slots this searcher's
    /// cursors have skipped past (see
    /// [`FrontierCursors::rescans`](crate::FrontierCursors::rescans)).
    /// Default `0` — the native strong searchers track expansion with
    /// a [`NodeSet`](crate::NodeSet), not cursors.
    fn frontier_rescans(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::UndirectedCsr;

    fn star() -> UndirectedCsr {
        UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap()
    }

    #[test]
    fn one_request_reveals_all_neighbors() {
        let g = star();
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let revealed = s.request(NodeId::new(0)).unwrap().to_vec();
        assert_eq!(revealed.len(), 3);
        assert_eq!(s.requests(), 1);
        for v in [1, 2, 3] {
            assert!(s.view().contains(NodeId::new(v)));
            assert_eq!(s.view().degree_of(NodeId::new(v)), Some(1));
        }
        assert_eq!(s.expanded(), &[NodeId::new(0)]);
    }

    #[test]
    fn revealed_neighbors_can_be_expanded_next() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        s.request(NodeId::new(0)).unwrap();
        let revealed = s.request(NodeId::new(1)).unwrap();
        assert!(revealed.contains(&NodeId::new(2)));
        assert_eq!(s.requests(), 2);
    }

    #[test]
    fn unknown_identity_is_a_violation() {
        let g = star();
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(1)).unwrap();
        // Vertex 2's identity is unknown until some expansion reveals it.
        assert!(matches!(
            s.request(NodeId::new(2)),
            Err(SearchError::UndiscoveredVertex { .. })
        ));
        assert_eq!(s.requests(), 0);
    }

    #[test]
    fn bad_start_rejected() {
        let g = star();
        let mut scratch = SearchScratch::new();
        assert!(StrongSearchState::new_in(&mut scratch, &g, NodeId::new(99)).is_err());
    }

    #[test]
    fn edges_resolved_after_expansion() {
        let g = star();
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        assert_eq!(s.view().unexplored_edges_of(NodeId::new(0)).count(), 3);
        s.request(NodeId::new(0)).unwrap();
        for v in 0..4 {
            assert!(!s.view().has_unexplored(NodeId::new(v)));
        }
        assert_eq!(s.view().edge_resolutions(), 3);
    }

    #[test]
    fn scratch_reuse_clears_expansion_order() {
        let g = star();
        let mut scratch = SearchScratch::new();
        {
            let mut s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
            s.request(NodeId::new(0)).unwrap();
            assert_eq!(s.expanded().len(), 1);
        }
        let s = StrongSearchState::new_in(&mut scratch, &g, NodeId::new(1)).unwrap();
        assert!(s.expanded().is_empty());
        assert_eq!(s.view().len(), 1);
    }
}
