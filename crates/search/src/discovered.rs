//! The searcher's partial view of the graph: a discovery stamp per
//! vertex over the graph's own slots.
//!
//! In both of the paper's models a vertex is revealed together with its
//! incident edge list, so an edge is resolved (both endpoints known)
//! exactly when its second endpoint is discovered. Vertex discovery is
//! therefore the view's only state: a 4-byte epoch stamp per vertex and
//! the discovery order. A discovered vertex's degree and edges are read
//! from the CSR's own offsets and slot range, owned or mmap-borrowed
//! alike, so nothing is copied per slot. "Is this slot explored?" is one
//! stamp read — is the far end discovered? — and nothing is written per
//! edge. The far ends stay private: searchers see edge handles, and
//! learn where an edge leads only by requesting it.
//!
//! Per-request work is a handful of array reads — no hashing, and no
//! heap allocation once the stamps and the order list have grown to the
//! graph's size.
//!
//! Presence is epoch-stamped — clearing the view is an O(1) epoch bump,
//! with the u32-wrap path audited once in
//! [`StampedMap`](crate::StampedMap) rather than re-implemented here.
//! This is what lets one [`SearchScratch`](crate::SearchScratch) serve
//! thousands of Monte-Carlo trials without reallocating: the scratch
//! owns the stamps, the order and the counters, and each search pairs
//! them with its graph in a [`DiscoveredView`].

use crate::stamped::StampedMap;
use nonsearch_graph::{EdgeId, NodeId, UndirectedCsr};
use std::cell::Cell;
use std::fmt;

/// What the searcher knows about one discovered vertex: its degree and
/// its incident edge handles, as revealed on discovery.
///
/// A lightweight proxy over the vertex's slot range in the graph's CSR:
/// nothing is copied, and the far end of each slot is never handed out.
#[derive(Clone, Copy)]
pub struct DiscoveredVertex<'a> {
    slots: &'a [(NodeId, EdgeId)],
}

impl<'a> DiscoveredVertex<'a> {
    /// The vertex degree (length of its incident edge list).
    pub fn degree(&self) -> usize {
        self.slots.len()
    }

    /// The edge handle in slot `i`, in the slot order revealed on
    /// discovery.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`degree`](DiscoveredVertex::degree).
    #[inline]
    pub fn edge(self, i: usize) -> EdgeId {
        self.slots[i].1
    }

    /// The incident edge handles, in slot order.
    pub fn edges(self) -> impl ExactSizeIterator<Item = EdgeId> + 'a {
        self.slots.iter().map(|&(_, e)| e)
    }

    /// The first slot at or after `from` whose far end `view` has not
    /// discovered, or [`degree`](DiscoveredVertex::degree) if there is
    /// none. Every slot tested counts as one of the view's
    /// [`slot_reads`](DiscoveredView::slot_reads).
    #[inline]
    pub(crate) fn first_unexplored(self, view: &DiscoveredView, from: usize) -> usize {
        let skipped = self.slots[from..]
            .iter()
            .take_while(|&&(w, _)| view.contains(w))
            .count();
        let found = from + skipped;
        view.count_reads(skipped + usize::from(found < self.degree()));
        found
    }
}

impl fmt::Debug for DiscoveredVertex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiscoveredVertex")
            .field("incident", &self.edges().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

/// The view's own state, kept in a [`SearchScratch`](crate::SearchScratch)
/// across searches: who is discovered, in what order, and the work
/// counters.
#[derive(Clone, Default)]
pub(crate) struct ViewState {
    /// Present iff the vertex is discovered: 4 bytes per vertex.
    nodes: StampedMap<()>,
    /// Discovered vertices in discovery order (start vertex first).
    order: Vec<NodeId>,
    /// Cumulative count of edges that became resolved (second endpoint
    /// discovered). Survives [`reset`](ViewState::reset) — metrics
    /// consumers take before/after deltas.
    pub(crate) edge_resolutions: u64,
    /// Cumulative work count, see
    /// [`slot_reads`](DiscoveredView::slot_reads). A `Cell`, so the
    /// searchers' scans count through the `&DiscoveredView` they are
    /// handed.
    pub(crate) slot_reads: Cell<u64>,
    /// Cumulative count of [`reset`](ViewState::reset) calls (one per
    /// search begun on this state).
    pub(crate) resets: u64,
}

impl fmt::Debug for ViewState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewState")
            .field("discovered", &self.order)
            .field("edge_resolutions", &self.edge_resolutions)
            .field("slot_reads", &self.slot_reads.get())
            .field("resets", &self.resets)
            .finish_non_exhaustive()
    }
}

impl ViewState {
    /// A state whose *next* [`reset`](ViewState::reset) takes the
    /// epoch-wrap path.
    #[cfg(test)]
    fn near_wrap() -> Self {
        ViewState {
            nodes: StampedMap::near_wrap(),
            ..Self::default()
        }
    }

    /// Forgets every discovery in O(1): bumps the node epoch and
    /// truncates the discovery order, keeping both allocations for the
    /// next search. The once-per-2^32 wrap path is
    /// [`StampedMap::reset`]'s.
    // lint: alloc-free
    pub(crate) fn reset(&mut self) {
        self.order.clear();
        self.nodes.reset();
        self.resets += 1;
    }

    /// Grows the stamps and the discovery-order list to cover `nodes`
    /// vertices, so a search over a graph of that size allocates
    /// nothing, even on the first trial. A no-op once large enough.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.nodes.reserve(nodes);
        if self.order.capacity() < nodes {
            self.order.reserve(nodes - self.order.len());
        }
    }
}

/// The searcher's accumulated knowledge: the discovered vertices, each
/// with its degree and incident edge list.
///
/// Edges carry global identities, so an edge whose endpoints have both
/// been discovered counts as explored without spending a request — a
/// conservative choice for lower-bound experiments (the searcher is
/// never given *less* than the model allows).
///
/// Pairs one search's graph with the discovery stamps, order and
/// counters a [`SearchScratch`](crate::SearchScratch) keeps across
/// searches (see the module docs), so a view reused across trials
/// performs zero heap allocations once warm. Only the oracles create
/// and mutate it; algorithms only ever see `&DiscoveredView`.
pub struct DiscoveredView<'a> {
    /// The graph's CSR offsets and slots, borrowed for the search.
    offsets: &'a [usize],
    slots: &'a [(NodeId, EdgeId)],
    state: &'a mut ViewState,
}

impl fmt::Debug for DiscoveredView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DiscoveredView").field(&self.state).finish()
    }
}

impl<'a> DiscoveredView<'a> {
    /// An empty view of `graph` over `state`, which is reset first
    /// (O(1) epoch bump) and grown to the graph's size.
    pub(crate) fn new(state: &'a mut ViewState, graph: &'a UndirectedCsr) -> Self {
        state.reset();
        state.reserve(graph.node_count());
        let (offsets, slots, _) = graph.raw_parts();
        DiscoveredView {
            offsets,
            slots,
            state,
        }
    }

    /// Number of discovered vertices.
    pub fn len(&self) -> usize {
        self.state.order.len()
    }

    /// `true` if nothing has been discovered.
    pub fn is_empty(&self) -> bool {
        self.state.order.is_empty()
    }

    /// `true` if `v` has been discovered.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.state.nodes.contains(v.index())
    }

    /// Discovered vertices in discovery order (start vertex first).
    pub fn discovered(&self) -> &[NodeId] {
        &self.state.order
    }

    /// The slot range of `v` in the graph's CSR.
    #[inline]
    pub(crate) fn slots_of(&self, v: NodeId) -> &'a [(NodeId, EdgeId)] {
        let i = v.index();
        &self.slots[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Knowledge about `v`, if discovered.
    #[inline]
    pub fn vertex(&self, v: NodeId) -> Option<DiscoveredVertex<'a>> {
        self.contains(v).then(|| DiscoveredVertex {
            slots: self.slots_of(v),
        })
    }

    /// Degree of `v`, if discovered.
    #[inline]
    pub fn degree_of(&self, v: NodeId) -> Option<usize> {
        self.vertex(v).map(|info| info.degree())
    }

    /// Incident edges of `v` whose far endpoint is still undiscovered,
    /// in slot order. The iterator borrows the view and allocates
    /// nothing; it is empty for undiscovered vertices.
    pub fn unexplored_edges_of(&self, v: NodeId) -> UnexploredEdges<'_> {
        UnexploredEdges {
            view: self,
            vertex: self.vertex(v),
            slot: 0,
        }
    }

    /// `true` if `v` is discovered and has at least one unexplored edge.
    pub fn has_unexplored(&self, v: NodeId) -> bool {
        self.unexplored_edges_of(v).next().is_some()
    }

    /// Records the discovery of `v`, whose slots stay where they are in
    /// the graph. A no-op for an already-discovered vertex, which costs
    /// one stamp read.
    ///
    /// Every slot of `v` is read once, to test its far end: a far end
    /// already discovered resolves its edge now, and a self-loop fills
    /// two slots of `v` and resolves once.
    // lint: alloc-free
    pub(crate) fn discover(&mut self, v: NodeId) {
        if self.contains(v) {
            return;
        }
        let slots = self.slots_of(v);
        let (mut resolved, mut loop_slots) = (0, 0);
        for &(w, _) in slots {
            if w == v {
                loop_slots += 1;
            } else if self.contains(w) {
                resolved += 1;
            }
        }
        self.state.edge_resolutions += resolved + loop_slots / 2;
        self.count_reads(slots.len());
        self.state.nodes.insert(v.index(), ());
        self.state.order.push(v);
    }

    /// Cumulative count of edges that became resolved over this view's
    /// state, across every search since construction (resets do not
    /// clear it). Metrics consumers read it before and after a trial
    /// and record the delta.
    pub fn edge_resolutions(&self) -> u64 {
        self.state.edge_resolutions
    }

    /// Cumulative work done over this view's state since construction
    /// (resets do not clear it): the incident slots an oracle read on
    /// discovery or to expand a vertex, the slots the searchers'
    /// frontier scans tested, and the entries popped from their
    /// best-vertex indexes. Exact and thread-invariant, so it moves with
    /// an algorithm's complexity on any host; metrics consumers record
    /// the per-trial delta.
    pub fn slot_reads(&self) -> u64 {
        self.state.slot_reads.get()
    }

    /// Adds `reads` to [`slot_reads`](DiscoveredView::slot_reads).
    #[inline]
    pub(crate) fn count_reads(&self, reads: usize) {
        let counter = &self.state.slot_reads;
        counter.set(counter.get() + reads as u64);
    }
}

/// Iterator over a vertex's unexplored incident edges, in slot order.
/// Created by [`DiscoveredView::unexplored_edges_of`]; allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct UnexploredEdges<'a> {
    view: &'a DiscoveredView<'a>,
    vertex: Option<DiscoveredVertex<'a>>,
    /// The next slot to test.
    slot: usize,
}

impl Iterator for UnexploredEdges<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        let vertex = self.vertex?;
        let slot = vertex.first_unexplored(self.view, self.slot.min(vertex.degree()));
        self.slot = slot + 1;
        (slot < vertex.degree()).then(|| vertex.edge(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self
            .vertex
            .map_or(0, |v| v.degree().saturating_sub(self.slot));
        (0, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchError, SearchScratch, StrongSearchState, WeakSearchState};
    use nonsearch_graph::UndirectedCsr;

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }
    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn edges(ids: &[usize]) -> Vec<EdgeId> {
        ids.iter().map(|&i| e(i)).collect()
    }
    fn nodes(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| v(i)).collect()
    }

    fn unexplored(view: &DiscoveredView, u: NodeId) -> Vec<EdgeId> {
        view.unexplored_edges_of(u).collect()
    }

    fn incident(view: &DiscoveredView, u: NodeId) -> Vec<EdgeId> {
        view.vertex(u).unwrap().edges().collect()
    }

    /// A loop `e0` at 0, parallel edges `e1`, `e2` between 0 and 1, the
    /// path 1 – 2 – 3 over `e3`, `e4`, and the isolated vertex 4. Slot
    /// order: 0: [e0, e0, e1, e2], 1: [e1, e2, e3], 2: [e3, e4], 3: [e4].
    fn edge_cases() -> UndirectedCsr {
        UndirectedCsr::from_edges(5, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3)]).unwrap()
    }
    /// Asserts the whole observable state of a view over
    /// [`edge_cases`] — discovery order, every vertex's unexplored
    /// edges — and the resolutions added since `*resolutions`, which is
    /// then advanced.
    fn check(
        view: &DiscoveredView,
        resolutions: &mut u64,
        discovered: &[usize],
        unexplored_by_vertex: [&[usize]; 5],
        added: u64,
        step: &str,
    ) {
        assert_eq!(view.discovered(), nodes(discovered), "{step}: discovered");
        for (u, want) in unexplored_by_vertex.iter().enumerate() {
            assert_eq!(
                unexplored(view, v(u)),
                edges(want),
                "{step}: unexplored of {u}"
            );
        }
        assert_eq!(
            view.edge_resolutions() - *resolutions,
            added,
            "{step}: resolutions"
        );
        *resolutions = view.edge_resolutions();
    }

    #[test]
    fn an_edge_resolves_exactly_when_its_second_endpoint_is_discovered() {
        let g = edge_cases();
        let mut scratch = SearchScratch::new();
        let mut seen = 0;

        let mut s = WeakSearchState::new_in(&mut scratch, &g, v(0)).unwrap();
        // The loop's far end is the start itself: resolved, once.
        check(
            s.view(),
            &mut seen,
            &[0],
            [&[1, 2], &[], &[], &[], &[]],
            1,
            "start",
        );
        assert_eq!(s.request(v(0), e(1)), Ok(v(1)));
        // Vertex 1 closes both parallel edges.
        check(
            s.view(),
            &mut seen,
            &[0, 1],
            [&[], &[3], &[], &[], &[]],
            2,
            "e1",
        );
        assert_eq!(s.request(v(0), e(2)), Ok(v(1)));
        assert_eq!(s.requests(), 2, "a redundant request still costs");
        check(
            s.view(),
            &mut seen,
            &[0, 1],
            [&[], &[3], &[], &[], &[]],
            0,
            "redundant",
        );
        for (u, edge, want) in [
            (
                0,
                3,
                SearchError::UnknownIncidence {
                    vertex: v(0),
                    edge: e(3),
                },
            ),
            (2, 4, SearchError::UndiscoveredVertex { vertex: v(2) }),
        ] {
            assert_eq!(s.request(v(u), e(edge)), Err(want));
        }
        assert_eq!(s.requests(), 2, "rejections cost nothing");
        check(
            s.view(),
            &mut seen,
            &[0, 1],
            [&[], &[3], &[], &[], &[]],
            0,
            "rejected",
        );
        assert_eq!(s.request(v(1), e(3)), Ok(v(2)));
        check(
            s.view(),
            &mut seen,
            &[0, 1, 2],
            [&[], &[], &[4], &[], &[]],
            1,
            "e3",
        );

        let s = WeakSearchState::new_in(&mut scratch, &g, v(4)).unwrap();
        check(
            s.view(),
            &mut seen,
            &[4],
            [&[], &[], &[], &[], &[]],
            0,
            "isolated",
        );

        let mut s = StrongSearchState::new_in(&mut scratch, &g, v(1)).unwrap();
        check(
            s.view(),
            &mut seen,
            &[1],
            [&[], &[1, 2, 3], &[], &[], &[]],
            0,
            "strong start",
        );
        assert_eq!(s.request(v(1)).unwrap(), nodes(&[0, 0, 2]));
        // Vertex 0 resolves e1, e2 and its loop; vertex 2 resolves e3.
        check(
            s.view(),
            &mut seen,
            &[1, 0, 2],
            [&[], &[], &[4], &[], &[]],
            4,
            "strong",
        );
    }

    #[test]
    fn insert_and_query() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        assert!(view.is_empty());
        view.discover(v(1));
        assert_eq!(view.len(), 1);
        assert!(view.contains(v(1)));
        assert_eq!(view.degree_of(v(1)), Some(3));
        assert_eq!(incident(&view, v(1)), edges(&[1, 2, 3]));
        assert_eq!(view.vertex(v(1)).unwrap().edge(2), e(3));
        assert_eq!(view.vertex(v(1)).unwrap().edges().len(), 3);
        assert_eq!(view.degree_of(v(0)), None);
        assert!(view.vertex(v(0)).is_none());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(3));
        let reads = view.slot_reads();
        // A second discovery changes nothing and reads no slot.
        view.discover(v(3));
        assert_eq!(view.degree_of(v(3)), Some(1));
        assert_eq!(view.len(), 1);
        assert_eq!(view.edge_resolutions(), 0);
        assert_eq!(view.slot_reads(), reads);
    }

    #[test]
    fn explicit_resolution() {
        // A weak request discovers the far end, which explores the slot.
        let g = edge_cases();
        let mut scratch = SearchScratch::new();
        let mut s = WeakSearchState::new_in(&mut scratch, &g, v(2)).unwrap();
        assert_eq!(unexplored(s.view(), v(2)), edges(&[3, 4]));
        assert_eq!(s.request(v(2), e(4)), Ok(v(3)));
        assert_eq!(unexplored(s.view(), v(2)), edges(&[3]));
        assert!(unexplored(s.view(), v(3)).is_empty());
        assert_eq!(s.view().edge_resolutions(), 1);
    }

    #[test]
    fn double_sighting_resolves_implicitly() {
        // Discovering both endpoints resolves an edge with no request.
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(2));
        assert!(view.has_unexplored(v(2)));
        view.discover(v(3));
        assert_eq!(unexplored(&view, v(2)), edges(&[3]));
        assert!(!view.has_unexplored(v(3)));
        assert_eq!(view.edge_resolutions(), 1);
    }

    #[test]
    fn self_loop_resolves_within_one_list() {
        // A self-loop fills two slots of one vertex and resolves once.
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(0));
        assert_eq!(incident(&view, v(0)), edges(&[0, 0, 1, 2]));
        assert_eq!(unexplored(&view, v(0)), edges(&[1, 2]));
        assert_eq!(view.edge_resolutions(), 1);
    }

    #[test]
    fn unknown_edges_are_unknown() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let view = DiscoveredView::new(&mut state, &g);
        assert!(unexplored(&view, v(0)).is_empty());
        assert!(!view.has_unexplored(v(0)));
        assert_eq!(view.unexplored_edges_of(v(0)).size_hint(), (0, Some(0)));
    }

    #[test]
    fn discovery_order_is_preserved() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        for u in [4, 1, 3] {
            view.discover(v(u));
        }
        assert_eq!(view.discovered(), nodes(&[4, 1, 3]));
    }

    #[test]
    fn reset_forgets_everything_and_reuses_memory() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(0));
        view.discover(v(1));
        let view = DiscoveredView::new(&mut state, &g);
        assert!(view.is_empty());
        assert!(!view.contains(v(0)));
        assert!(unexplored(&view, v(1)).is_empty());
        // Fresh inserts work immediately; e1's far end is forgotten.
        let mut view = view;
        view.discover(v(1));
        assert_eq!(view.discovered(), nodes(&[1]));
        assert_eq!(unexplored(&view, v(1)), edges(&[1, 2, 3]));
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let g = edge_cases();
        // Built at the wrap boundary: the next reset zero-fills stamps.
        let mut state = ViewState::near_wrap();
        let mut view = DiscoveredView {
            offsets: g.raw_parts().0,
            slots: g.raw_parts().1,
            state: &mut state,
        };
        view.discover(v(2));
        view.discover(v(3));
        let mut view = DiscoveredView::new(&mut state, &g); // the wrap path
        assert!(!view.contains(v(2)));
        view.discover(v(2));
        assert!(view.contains(v(2)));
        assert_eq!(unexplored(&view, v(2)), edges(&[3, 4]));
        // And the restarted epoch keeps resetting cleanly.
        let view = DiscoveredView::new(&mut state, &g);
        assert!(!view.contains(v(2)));
    }

    #[test]
    fn resolution_and_reset_counters_are_cumulative() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        assert_eq!(view.edge_resolutions(), 0);
        view.discover(v(2));
        view.discover(v(1)); // e3
        view.discover(v(3)); // e4
        assert_eq!(view.edge_resolutions(), 2);
        assert_eq!(state.resets, 1);
        let mut view = DiscoveredView::new(&mut state, &g);
        // Counters survive the reset; the next search adds on top.
        view.discover(v(0)); // the loop
        assert_eq!(view.edge_resolutions(), 3);
        assert_eq!(state.resets, 2);
    }

    #[test]
    fn slot_reads_count_read_and_tested_slots() {
        let g = edge_cases();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(1)); // reads [e1, e2, e3]
        view.discover(v(1)); // known: one stamp read, no slot
        view.discover(v(2)); // reads [e3, e4]
        assert_eq!(view.slot_reads(), 5);
        // A scan tests each slot it passes and the one it stops at: e1
        // and e2 lead to the undiscovered 0, e3 to the discovered 2.
        assert_eq!(unexplored(&view, v(1)), edges(&[1, 2]));
        assert_eq!(view.slot_reads(), 5 + 3);
        // A strong request reads the expanded vertex's slots, and the
        // view reads each newly found neighbor's: 1 (start 3), then
        // 1 (3's slots) + 2 (vertex 2's).
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, v(3)).unwrap();
        s.request(v(3)).unwrap();
        assert_eq!(s.view().slot_reads(), 1 + 1 + 2);
    }

    #[test]
    fn reserve_graph_is_idempotent() {
        let g = edge_cases();
        let mut state = ViewState::default();
        state.reserve(10);
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(3));
        view.state.reserve(5); // never shrinks
        assert!(view.contains(v(3)));
        assert_eq!(incident(&view, v(3)), [e(4)]);
    }

    #[test]
    fn debug_output_hides_far_ends() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut state = ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        view.discover(v(0));
        let vertex = format!("{:?}", view.vertex(v(0)).unwrap());
        assert_eq!(vertex, "DiscoveredVertex { incident: [e0], .. }");
        // The far end, vertex 1, prints as `v2`.
        assert!(!format!("{view:?}").contains("v2"), "{view:?}");
    }
}
