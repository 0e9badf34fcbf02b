//! Amortized-O(1) frontier bookkeeping shared by the greedy searchers.

use crate::DiscoveredView;
use nonsearch_graph::{EdgeId, NodeId};

/// A searcher's handle on the per-vertex frontier cursors over incident
/// edge lists, and its count of the slots they skipped.
///
/// Exploration is monotone (a slot is explored once its far end is
/// discovered, and discovery is never undone within a search), so a
/// forward-only cursor per vertex finds each vertex's next unexplored
/// edge in O(1) amortized instead of rescanning the whole incident list
/// on every request. The O(log n)-per-request weak searchers
/// ([`HighDegreeGreedy`](crate::HighDegreeGreedy),
/// [`GreedyIdProximity`](crate::GreedyIdProximity),
/// [`OldestFirst`](crate::OldestFirst) and
/// [`LookaheadWalk`](crate::LookaheadWalk)) use these cursors as the
/// liveness test of their shared best-vertex index, and
/// [`SimulatedStrong`](crate::SimulatedStrong)'s expansion scan uses them
/// too.
///
/// The cursors themselves live in the [`DiscoveredView`], one `u32` per
/// vertex, set to slot 0 when the vertex is discovered: a cursor cannot
/// outlive its search, and the lanes that run one at a time on a
/// worker's scratch share one array. Every slot before a cursor is
/// explored whoever moved it, so sharing never changes the edge handed
/// out. The view also remembers the slot handed out last, which lets the
/// weak oracle answer the request for it without a lookup in the graph's
/// edge list.
#[derive(Debug, Clone, Default)]
pub struct FrontierCursors {
    /// Cumulative count of explored incident slots skipped by
    /// [`next_unexplored`](FrontierCursors::next_unexplored) scans —
    /// metrics consumers take before/after deltas.
    rescans: u64,
}

impl FrontierCursors {
    /// Creates the handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// A no-op, kept for existing callers: the cursors live in the view,
    /// which is sized for its graph.
    pub fn reserve(&mut self, _nodes: usize) {}

    /// The next unexplored incident edge of `v`, advancing the cursor
    /// past explored slots. Returns `None` when `v` is exhausted (or not
    /// discovered).
    // lint: alloc-free
    pub fn next_unexplored(&mut self, view: &DiscoveredView, v: NodeId) -> Option<EdgeId> {
        let (edge, skipped) = view.advance_cursor(v);
        self.rescans += skipped as u64;
        edge
    }

    /// Cumulative count of explored slots these cursors have skipped
    /// past since construction — the wasted scan work the amortized-O(1)
    /// cursor design keeps bounded.
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// A no-op, kept for existing callers: discovery rewinds a vertex's
    /// cursor, so a new search starts every cursor at slot 0. The rescan
    /// count is cumulative.
    pub fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchScratch, WeakSearchState};
    use nonsearch_graph::UndirectedCsr;

    #[test]
    fn cursor_advances_past_resolved_edges() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let mut cursors = FrontierCursors::new();

        let e0 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        state.request(NodeId::new(0), e0).unwrap();
        let e1 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        assert_ne!(e0, e1);
        state.request(NodeId::new(0), e1).unwrap();
        let e2 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        state.request(NodeId::new(0), e2).unwrap();
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .is_none());
    }

    #[test]
    fn rescan_counter_counts_skipped_slots() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let mut cursors = FrontierCursors::new();
        assert_eq!(cursors.rescans(), 0);
        // Resolve the first two edges, then scan: the cursor must skip
        // both resolved slots to reach the third.
        let e0 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        state.request(NodeId::new(0), e0).unwrap();
        let e1 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        state.request(NodeId::new(0), e1).unwrap();
        let before = cursors.rescans();
        cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        assert!(cursors.rescans() > before);
        // The counter survives a reset (cumulative; callers diff it).
        let total = cursors.rescans();
        cursors.reset();
        assert_eq!(cursors.rescans(), total);
    }

    #[test]
    fn undiscovered_vertex_yields_none() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut scratch = SearchScratch::new();
        let state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let mut cursors = FrontierCursors::new();
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(1))
            .is_none());
    }

    #[test]
    fn reset_rewinds() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut scratch = SearchScratch::new();
        let state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        let mut cursors = FrontierCursors::new();
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .is_some());
        cursors.reset();
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .is_some());
    }

    #[test]
    fn stale_cursor_from_a_longer_graph_does_not_fake_exhaustion() {
        // Regression: reuse the cursors across two graphs *without*
        // reset. On graph A, vertex 0 has degree 3 and gets fully
        // explored (cursor parked at 3). On graph B the same vertex has
        // degree 1; a stale cursor (3 > 1) once made `next_unexplored`
        // report the vertex exhausted even though its single edge is
        // unresolved. Discovery now rewinds the cursor.
        let a = UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let b = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut cursors = FrontierCursors::new();

        let mut state = WeakSearchState::new_in(&mut scratch, &a, NodeId::new(0)).unwrap();
        while let Some(e) = cursors.next_unexplored(state.view(), NodeId::new(0)) {
            state.request(NodeId::new(0), e).unwrap();
        }

        let state = WeakSearchState::new_in(&mut scratch, &b, NodeId::new(0)).unwrap();
        assert!(
            cursors
                .next_unexplored(state.view(), NodeId::new(0))
                .is_some(),
            "stale cursor reported the vertex exhausted"
        );
    }
}
