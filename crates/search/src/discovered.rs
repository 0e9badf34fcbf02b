//! The searcher's partial view of the graph: one discovery bit per
//! vertex over the graph's own slots.
//!
//! In both of the paper's models a vertex is revealed together with its
//! incident edge list, so an edge is resolved (both endpoints known)
//! exactly when its second endpoint is discovered. Vertex discovery is
//! therefore the view's only state: one bit per vertex and the
//! discovery order. A discovered vertex's degree and edges are read
//! from the CSR's own offsets and slot range, owned or mmap-borrowed
//! alike, so nothing is copied per slot. "Is this slot explored?" is one
//! bit read — is the far end discovered? — and nothing is written per
//! edge. The far ends stay private: searchers see edge handles, and
//! learn where an edge leads only by requesting it.
//!
//! The view also keeps the searchers' frontier cursors, one `u32` per
//! vertex set to slot 0 when the vertex is discovered (see
//! [`FrontierCursors`](crate::FrontierCursors)), and remembers the last
//! slot a cursor handed out, far end included. The weak oracle answers
//! a request for that edge from the memo instead of looking the edge up
//! in the graph's edge list, which saves the request's one random
//! memory touch outside the vertex's own slots. The memo never leaves
//! the crate and `Debug` does not print it.
//!
//! The discovered vertices are a [`NodeSet`]: a bitset plus the
//! discovery order. Per-request work is a handful of array reads — no
//! hashing, and no heap allocation once the set and the cursors have
//! grown to the graph's size.
//!
//! Clearing the view clears the set, which costs O(discovered), never
//! more than the search that discovered them. This is what lets one
//! [`SearchScratch`](crate::SearchScratch) serve thousands of
//! Monte-Carlo trials without reallocating: the scratch owns the set,
//! the cursors and the counters, and each search pairs them with its
//! graph in a [`DiscoveredView`].

use crate::NodeSet;
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
/// across searches: who is discovered, in what order, the frontier
/// cursors, and the work counters.
#[derive(Clone, Default)]
pub(crate) struct ViewState {
    /// The discovered vertices, one bit each, in discovery order
    /// (start vertex first).
    discovered: NodeSet,
    /// Per vertex, the first slot its frontier cursor has not skipped
    /// (every earlier slot is explored). Set to 0 when the vertex is
    /// discovered, so it never outlives a search. `Cell`s, so the
    /// searchers advance them through the `&DiscoveredView` they are
    /// handed.
    cursors: Vec<Cell<u32>>,
    /// `(vertex, edge, far end)` of the slot a frontier cursor handed
    /// out last, or `None` after a reset.
    handed_out: Cell<Option<(NodeId, EdgeId, NodeId)>>,
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
        // The cursor memo holds a far end: it is not printed.
        f.debug_struct("ViewState")
            .field("discovered", &self.discovered.members())
            .field("edge_resolutions", &self.edge_resolutions)
            .field("slot_reads", &self.slot_reads.get())
            .field("resets", &self.resets)
            .finish_non_exhaustive()
    }
}

impl ViewState {
    /// Forgets every discovery in O(discovered) (see
    /// [`NodeSet::clear`]) and drops the cursor memo, keeping every
    /// allocation for the next search. The cursors need no clearing:
    /// discovery sets them.
    // lint: alloc-free
    pub(crate) fn reset(&mut self) {
        self.discovered.clear();
        self.handed_out.set(None);
        self.resets += 1;
    }

    /// Grows the discovered set and the cursors to cover `nodes`
    /// vertices, so a search over a graph of that size allocates
    /// nothing, even on the first trial. A no-op once large enough.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.discovered.reserve(nodes);
        if self.cursors.len() < nodes {
            self.cursors.resize(nodes, Cell::new(0));
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
/// Pairs one search's graph with the discovery bits, cursors, order and
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
    /// An empty view of `graph` over `state`, which is reset first (in
    /// time linear in the previous search's discoveries) and grown to
    /// the graph's size.
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
        self.state.discovered.len()
    }

    /// `true` if nothing has been discovered.
    pub fn is_empty(&self) -> bool {
        self.state.discovered.is_empty()
    }

    /// `true` if `v` has been discovered.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.state.discovered.contains(v)
    }

    /// Discovered vertices in discovery order (start vertex first).
    pub fn discovered(&self) -> &[NodeId] {
        self.state.discovered.members()
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
    /// the graph, and sets its frontier cursor to slot 0. A no-op for an
    /// already-discovered vertex, which costs one bit read.
    ///
    /// Every slot of `v` is read once, to test its far end: a far end
    /// already discovered resolves its edge now, and a self-loop fills
    /// two slots of `v` and resolves once.
    // lint: alloc-free
    pub(crate) fn discover(&mut self, v: NodeId) {
        if !self.state.discovered.insert(v) {
            return;
        }
        let slots = self.slots_of(v);
        let (mut resolved, mut loop_slots) = (0, 0);
        for &(w, _) in slots {
            // `w == v` first: `v` is in the set already, and a self-loop
            // resolves once for its two slots.
            if w == v {
                loop_slots += 1;
            } else if self.contains(w) {
                resolved += 1;
            }
        }
        self.state.edge_resolutions += resolved + loop_slots / 2;
        self.count_reads(slots.len());
        self.state.cursors[v.index()].set(0);
    }

    /// The first unexplored incident edge of the discovered vertex `v`
    /// at or after its frontier cursor, and how many explored slots the
    /// cursor skipped to reach it. The cursor moves to the slot found,
    /// and the view remembers that slot for
    /// [`handed_out_far_end`](DiscoveredView::handed_out_far_end). The
    /// edge is `None` once `v` is exhausted (or not discovered).
    // lint: alloc-free
    pub(crate) fn advance_cursor(&self, v: NodeId) -> (Option<EdgeId>, usize) {
        let Some(info) = self.vertex(v) else {
            return (None, 0);
        };
        let cursor = &self.state.cursors[v.index()];
        let from = cursor.get() as usize;
        let found = info.first_unexplored(self, from);
        // A degree past `u32::MAX` would truncate the stored cursor to an
        // earlier slot, which only re-skips explored slots.
        cursor.set(found as u32);
        let edge = info.slots.get(found).map(|&(far, edge)| {
            self.state.handed_out.set(Some((v, edge, far)));
            edge
        });
        (edge, found - from)
    }

    /// The far end of `e` if `(u, e)` is the slot a frontier cursor
    /// handed out last in this search. That slot lies in `u`'s own slot
    /// range, so `e` is incident to `u` and the answer is the one the
    /// graph's edge list gives.
    #[inline]
    pub(crate) fn handed_out_far_end(&self, u: NodeId, e: EdgeId) -> Option<NodeId> {
        match self.state.handed_out.get() {
            Some((v, edge, far)) if v == u && edge == e => Some(far),
            _ => None,
        }
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
    use crate::{FrontierCursors, SearchError, SearchScratch, StrongSearchState, WeakSearchState};
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

    fn path(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    /// Discovers `pairs` in a view of `graph` over `state` and moves the
    /// cursor of each discovered vertex past its explored slots.
    fn dirty(state: &mut ViewState, graph: &UndirectedCsr, pairs: &[(usize, usize)]) {
        let mut view = DiscoveredView::new(state, graph);
        for &(a, b) in pairs {
            view.discover(v(a));
            view.discover(v(b));
        }
        let mut cursors = FrontierCursors::new();
        for &(a, b) in pairs {
            cursors.next_unexplored(&view, v(a));
            cursors.next_unexplored(&view, v(b));
        }
        assert!(cursors.rescans() > 0, "no cursor moved");
    }

    /// Opens a view of `graph` over `state` and asserts that it starts
    /// clean: no vertex below `probe` reads as discovered, and the
    /// cursor of each newly discovered vertex of `vertices` starts at
    /// slot 0, so it hands out the edge a scan from slot 0 finds.
    fn assert_clean(
        state: &mut ViewState,
        graph: &UndirectedCsr,
        probe: usize,
        vertices: &[usize],
    ) {
        let mut view = DiscoveredView::new(state, graph);
        assert!(view.is_empty());
        for u in 0..probe {
            assert!(!view.contains(v(u)), "{u} survived the reset");
        }
        let mut cursors = FrontierCursors::new();
        for &u in vertices {
            view.discover(v(u));
            let vertex = view.vertex(v(u)).unwrap();
            let first = (0..vertex.degree())
                .find(|&i| !view.contains(view.slots_of(v(u))[i].0))
                .unwrap_or(vertex.degree());
            let rescans = cursors.rescans();
            assert_eq!(
                cursors.next_unexplored(&view, v(u)),
                (first < vertex.degree()).then(|| vertex.edge(first)),
                "cursor of {u}"
            );
            assert_eq!(cursors.rescans() - rescans, first as u64, "cursor of {u}");
        }
    }

    #[test]
    fn reused_view_starts_clean_across_words() {
        // 1000 = 15·64 + 40 and 200 = 3·64 + 8: the pairs sit in the
        // first, a middle and the last, partial bitset word. A reset
        // after the sparse search clears word by word, one after the
        // dense search the whole bitset.
        let sparse = path(1000);
        let dense = path(200);
        let small = edge_cases();
        let sparse_pairs = [(0, 1), (500, 501), (998, 999)];
        let dense_pairs = [(0, 1), (69, 70), (130, 131), (198, 199)];
        let small_pairs = [(1, 2), (3, 4)];
        let all = |pairs: &[(usize, usize)]| -> Vec<usize> {
            pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
        };

        let mut state = ViewState::default();
        dirty(&mut state, &sparse, &sparse_pairs);
        assert!(sparse_pairs.len() * 2 < sparse.node_count().div_ceil(64));
        assert_clean(&mut state, &sparse, 1000, &all(&sparse_pairs));
        dirty(&mut state, &dense, &dense_pairs);
        assert!(dense_pairs.len() * 2 >= dense.node_count().div_ceil(64));
        assert_clean(&mut state, &dense, 1000, &all(&dense_pairs));

        // A small graph after a large one, and the reverse.
        dirty(&mut state, &sparse, &sparse_pairs);
        assert_clean(&mut state, &small, 1000, &all(&small_pairs));
        dirty(&mut state, &small, &small_pairs);
        assert_clean(&mut state, &sparse, 1000, &all(&sparse_pairs));
        let mut fresh = ViewState::default();
        dirty(&mut fresh, &small, &small_pairs);
        assert_clean(&mut fresh, &sparse, 1000, &all(&sparse_pairs));
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
        view.discover(v(1)); // known: one bit read, no slot
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
        // Nor once a cursor has handed the edge out, far end and all.
        let mut cursors = FrontierCursors::new();
        assert_eq!(cursors.next_unexplored(&view, v(0)), Some(e(0)));
        assert_eq!(view.handed_out_far_end(v(0), e(0)), Some(v(1)));
        assert!(!format!("{view:?}").contains("v2"), "{view:?}");
    }
}
