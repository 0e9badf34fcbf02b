//! Amortized-O(1) frontier bookkeeping shared by the greedy searchers.

use crate::stamped::StampedMap;
use crate::DiscoveredView;
use nonsearch_graph::{EdgeId, NodeId};

/// Per-vertex cursors over incident edge lists, stored dense.
///
/// Exploration is monotone (a slot is explored once its far end is
/// discovered, and discovery is never undone within a search), so a
/// forward-only `u32` cursor per vertex finds each vertex's next
/// unexplored edge in O(1) amortized instead of rescanning the whole
/// incident list on every request. The O(log n)-per-request weak
/// searchers ([`HighDegreeGreedy`](crate::HighDegreeGreedy),
/// [`GreedyIdProximity`](crate::GreedyIdProximity),
/// [`OldestFirst`](crate::OldestFirst) and
/// [`LookaheadWalk`](crate::LookaheadWalk)) use these cursors as the
/// liveness test of their shared best-vertex index, and
/// [`SimulatedStrong`](crate::SimulatedStrong)'s expansion scan uses them
/// too.
///
/// The cursors live in a [`StampedMap`] indexed by [`NodeId`], so
/// [`reset`](FrontierCursors::reset) is O(1), the u32 epoch wrap is
/// audited once (in `StampedMap`), and a searcher reused across trials
/// performs no per-request hashing or allocation once the array has grown
/// to the graph size — or from the very first request, after
/// [`reserve`](FrontierCursors::reserve).
#[derive(Debug, Clone, Default)]
pub struct FrontierCursors {
    cursors: StampedMap<u32>,
    /// Cumulative count of explored incident slots skipped by
    /// [`next_unexplored`](FrontierCursors::next_unexplored) scans.
    /// Survives [`reset`](FrontierCursors::reset) — metrics consumers
    /// take before/after deltas.
    rescans: u64,
}

impl FrontierCursors {
    /// Creates empty cursors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cursors whose *next* [`reset`](FrontierCursors::reset) takes the
    /// epoch-wrap path. Test-only hook: wrap coverage drives the public
    /// API instead of poking private fields.
    #[doc(hidden)]
    pub fn near_wrap() -> Self {
        FrontierCursors {
            cursors: StampedMap::near_wrap(),
            rescans: 0,
        }
    }

    /// Grows the cursor array to cover `nodes` vertices, so lookups on a
    /// graph of that size never allocate — even on the first trial.
    pub fn reserve(&mut self, nodes: usize) {
        self.cursors.reserve(nodes);
    }

    /// The next unexplored incident edge of `v`, advancing the cursor
    /// past explored slots. Returns `None` when `v` is exhausted (or not
    /// discovered).
    // lint: alloc-free
    pub fn next_unexplored(&mut self, view: &DiscoveredView, v: NodeId) -> Option<EdgeId> {
        let info = view.vertex(v)?;
        let i = v.index();
        let mut cursor = self.cursors.get(i).map_or(0, |&c| c as usize);
        if cursor > info.degree() {
            // Stale cursor from a *different* graph (caller reused the
            // searcher without `reset`): the stored position can exceed
            // this vertex's incident list, and resuming there would
            // falsely report the vertex exhausted. Rescan from slot 0 —
            // exploration is monotone within a view, so rescanning only
            // re-skips slots and returns the correct first unexplored
            // one.
            cursor = 0;
        }
        let found = info.first_unexplored(view, cursor);
        self.rescans += (found - cursor) as u64;
        // A degree past `u32::MAX` would truncate the stored cursor to an
        // earlier slot, which only re-skips explored slots.
        self.cursors.put(i, found as u32);
        (found < info.degree()).then(|| info.edge(found))
    }

    /// Cumulative count of explored slots these cursors have skipped
    /// past since construction (resets do not clear it) — the wasted
    /// scan work the amortized-O(1) cursor design keeps bounded.
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Rewinds all cursors in O(1) via an epoch bump (for searcher reuse
    /// across runs); the backing array keeps its allocation.
    // lint: alloc-free
    pub fn reset(&mut self) {
        self.cursors.reset();
    }
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
    fn epoch_wrap_rewinds_too() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        // Built at the wrap boundary; advance the cursor to exhaustion
        // through the public API.
        let mut cursors = FrontierCursors::near_wrap();
        let e0 = cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .unwrap();
        state.request(NodeId::new(0), e0).unwrap();
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .is_none());
        cursors.reset(); // the wrap path
                         // A fresh search on the same scratch: the view resets too.
        let state = WeakSearchState::new_in(&mut scratch, &g, NodeId::new(0)).unwrap();
        // A wrapped reset must rewind to slot 0, not resume at 1.
        assert!(cursors
            .next_unexplored(state.view(), NodeId::new(0))
            .is_some());
    }

    #[test]
    fn stale_cursor_from_a_longer_graph_does_not_fake_exhaustion() {
        // Regression: reuse the cursors across two graphs *without*
        // reset. On graph A, vertex 0 has degree 3 and gets fully
        // explored (cursor parked at 3). On graph B the same vertex has
        // degree 1; the stale same-epoch cursor (3 > 1) used to make
        // `next_unexplored` report the vertex exhausted even though its
        // single edge is unresolved.
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
