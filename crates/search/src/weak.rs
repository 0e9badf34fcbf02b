//! The weak local-knowledge oracle and the weak-searcher interface.

use crate::{DiscoveredView, SearchError, SearchScratch, SearchTask};
use nonsearch_graph::{EdgeId, NodeId, UndirectedCsr};
use rand::RngCore;

/// Oracle state for a weak-model search over one graph.
///
/// Wraps the true graph, the searcher's [`DiscoveredView`] (whose state
/// is borrowed from a reusable [`SearchScratch`]), and the request
/// counter.
/// Algorithms cannot touch the graph directly; every bit of information
/// flows through [`request`](WeakSearchState::request), which costs one
/// unit.
///
/// # Example
///
/// ```
/// use nonsearch_graph::{NodeId, UndirectedCsr};
/// use nonsearch_search::{SearchScratch, WeakSearchState};
///
/// let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)])?;
/// let mut scratch = SearchScratch::new();
/// let mut state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0))?;
/// let e = state.view().vertex(NodeId::new(0)).unwrap().edge(0);
/// let v = state.request(NodeId::new(0), e)?;
/// assert_eq!(v, NodeId::new(1));
/// assert_eq!(state.requests(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct WeakSearchState<'a> {
    graph: &'a UndirectedCsr,
    view: DiscoveredView<'a>,
    requests: usize,
}

impl<'a> WeakSearchState<'a> {
    /// Starts a search at `start` using `scratch`'s view: the searcher
    /// knows `start`, its degree and its incident edge handles, at no
    /// request cost. The scratch is reset first (in time linear in the
    /// last search's discoveries), so reuse across trials is
    /// observationally identical to fresh state.
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
        let mut view = DiscoveredView::new(&mut scratch.view, graph);
        view.discover(start);
        Ok(WeakSearchState {
            graph,
            view,
            requests: 0,
        })
    }

    /// The searcher's current knowledge.
    pub fn view(&self) -> &DiscoveredView<'a> {
        &self.view
    }

    /// Requests issued so far — the paper's cost measure.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Issues the weak-model request `(u, e)`: reveals the identity of
    /// the far endpoint of `e` and that vertex's incident edge list.
    /// Costs one request, *including* redundant re-requests.
    ///
    /// # Cost
    ///
    /// The validity check is O(1) whatever the degree of `u`. When
    /// `(u, e)` is the slot a frontier cursor just handed out, the view
    /// remembers its far end, and that slot lies in `u`'s own slot range,
    /// so the memo is the answer with no further memory touch. Otherwise
    /// `e` is incident to `u` exactly when one of its two stored
    /// endpoints is `u` — the same set the view reads from the graph's
    /// slots of `u` — so one endpoint lookup both validates the request
    /// and yields the answer. Revealing a vertex for the first time
    /// costs its degree, once (each of its slots is read to test its far
    /// end); every later request that lands on it is O(1).
    ///
    /// # Errors
    ///
    /// * [`SearchError::UndiscoveredVertex`] if `u` is not discovered.
    /// * [`SearchError::UnknownIncidence`] if `e` is not incident to `u`
    ///   (including handles the graph does not have).
    ///
    /// A rejected request costs nothing and leaves the view unchanged.
    // lint: alloc-free
    pub fn request(&mut self, u: NodeId, e: EdgeId) -> crate::Result<NodeId> {
        if !self.view.contains(u) {
            return Err(SearchError::UndiscoveredVertex { vertex: u });
        }
        let other = match self.view.handed_out_far_end(u, e) {
            Some(far) => {
                debug_assert_eq!(Ok(far), self.far_end(u, e), "cursor memo of ({u:?}, {e:?})");
                far
            }
            None => self.far_end(u, e)?,
        };
        self.requests += 1;
        self.view.discover(other);
        Ok(other)
    }

    /// The far end of `e` from `u`, read from the graph's edge list, or
    /// [`SearchError::UnknownIncidence`] if `e` is not incident to `u`.
    fn far_end(&self, u: NodeId, e: EdgeId) -> crate::Result<NodeId> {
        match self.graph.edge_endpoints(e) {
            Ok((a, b)) if a == u => Ok(b),
            Ok((a, b)) if b == u => Ok(a),
            _ => Err(SearchError::UnknownIncidence { vertex: u, edge: e }),
        }
    }
}

/// A weak-model search algorithm.
///
/// Implementations see only the [`DiscoveredView`] (plus the task) and
/// emit `(vertex, edge)` requests; returning `None` abandons the search.
/// The runner invokes [`WeakSearcher::observe`] with the oracle's answer
/// so stateful algorithms (walks) can advance.
pub trait WeakSearcher {
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the next request, or `None` to give up.
    fn next_request(
        &mut self,
        task: &SearchTask,
        view: &DiscoveredView,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, EdgeId)>;

    /// Observes the answer to the previous request (default: ignore).
    fn observe(&mut self, _request: (NodeId, EdgeId), _revealed: NodeId) {}

    /// Resets internal state so the searcher can be reused for a new run.
    fn reset(&mut self) {}

    /// Pre-sizes internal buffers for a graph with `nodes` vertices and
    /// `edges` edges, so even a first trial allocates nothing (default:
    /// ignore). The runners call this right after
    /// [`reset`](WeakSearcher::reset); a no-op once large enough.
    fn reserve(&mut self, _nodes: usize, _edges: usize) {}

    /// Cumulative count of resolved frontier slots this searcher's
    /// cursors have skipped past (see
    /// [`FrontierCursors::rescans`](crate::FrontierCursors::rescans)).
    /// Default `0` for searchers that keep no cursors; metrics
    /// consumers take before/after deltas per trial.
    fn frontier_rescans(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::UndirectedCsr;

    fn path3() -> UndirectedCsr {
        UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn start_is_free_and_known() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        let s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(1)).unwrap();
        assert_eq!(s.requests(), 0);
        assert_eq!(s.view().len(), 1);
        assert_eq!(s.view().degree_of(NodeId::new(1)), Some(2));
    }

    #[test]
    fn request_reveals_far_endpoint_and_its_edges() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let e0 = s.view().vertex(NodeId::new(0)).unwrap().edge(0);
        let v = s.request(NodeId::new(0), e0).unwrap();
        assert_eq!(v, NodeId::new(1));
        assert_eq!(s.view().degree_of(NodeId::new(1)), Some(2));
        assert_eq!(s.requests(), 1);
        // The edge is explored from both of its endpoints.
        assert_eq!(s.view().unexplored_edges_of(NodeId::new(0)).count(), 0);
        assert_eq!(
            s.view()
                .unexplored_edges_of(NodeId::new(1))
                .collect::<Vec<_>>(),
            [EdgeId::new(1)]
        );
    }

    #[test]
    fn redundant_requests_still_cost() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let e0 = s.view().vertex(NodeId::new(0)).unwrap().edge(0);
        s.request(NodeId::new(0), e0).unwrap();
        s.request(NodeId::new(0), e0).unwrap();
        assert_eq!(s.requests(), 2);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        // Vertex 2 not discovered.
        let any_edge = EdgeId::new(1);
        assert!(matches!(
            s.request(NodeId::new(2), any_edge),
            Err(SearchError::UndiscoveredVertex { .. })
        ));
        // Edge 1 is not incident to vertex 0.
        assert!(matches!(
            s.request(NodeId::new(0), EdgeId::new(1)),
            Err(SearchError::UnknownIncidence { .. })
        ));
        // Errors cost nothing.
        assert_eq!(s.requests(), 0);
    }

    #[test]
    fn rejections_follow_the_incidence_rule() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let e01 = s.view().vertex(NodeId::new(0)).unwrap().edge(0);
        s.request(NodeId::new(0), e01).unwrap();
        // Edge (1, 2) is now in the view, but only as vertex 1's.
        let e12 = EdgeId::new(1);
        let far = s.view().vertex(NodeId::new(1)).unwrap();
        assert!(far.edges().any(|e| e == e12));
        let (out_of_range, undiscovered) = (EdgeId::new(99), true);
        let cases = [
            (NodeId::new(0), out_of_range, !undiscovered),
            // Edge incident only to a neighbour of `u`.
            (NodeId::new(0), e12, !undiscovered),
            // Undiscovered `u` takes precedence: with a foreign edge,
            // with its own edge, and outside the graph.
            (NodeId::new(2), e01, undiscovered),
            (NodeId::new(2), e12, undiscovered),
            (NodeId::new(7), out_of_range, undiscovered),
        ];
        for (u, e, undiscovered) in cases {
            let want = if undiscovered {
                SearchError::UndiscoveredVertex { vertex: u }
            } else {
                SearchError::UnknownIncidence { vertex: u, edge: e }
            };
            assert_eq!(s.request(u, e), Err(want));
            // Rejections cost nothing and leave the view unchanged.
            assert_eq!(s.requests(), 1);
            assert_eq!(s.view().len(), 2);
        }
        // From the far side the same edge is a legal request.
        assert_eq!(s.request(NodeId::new(1), e12), Ok(NodeId::new(2)));
    }

    #[test]
    fn bad_start_rejected() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        assert!(matches!(
            WeakSearchState::new_in(&mut scratch, &g, NodeId::new(9)),
            Err(SearchError::TaskOutOfBounds { .. })
        ));
    }

    #[test]
    fn self_loop_request_returns_self() {
        let g = UndirectedCsr::from_edges(1, [(0, 0)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let e = s.view().vertex(NodeId::new(0)).unwrap().edge(0);
        let v = s.request(NodeId::new(0), e).unwrap();
        assert_eq!(v, NodeId::new(0));
    }

    #[test]
    fn scratch_reuse_starts_clean() {
        let g = path3();
        let mut scratch = SearchScratch::new();
        {
            let mut s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
            let e0 = s.view().vertex(NodeId::new(0)).unwrap().edge(0);
            s.request(NodeId::new(0), e0).unwrap();
            assert_eq!(s.view().len(), 2);
        }
        // Second search on the same scratch sees none of the first.
        let s = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(2)).unwrap();
        assert_eq!(s.view().len(), 1);
        assert!(!s.view().contains(NodeId::new(0)));
        assert_eq!(s.requests(), 0);
    }
}
