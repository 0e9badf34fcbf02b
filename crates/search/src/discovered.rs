//! The searcher's partial view of the graph, stored dense.
//!
//! In both of the paper's models a vertex is revealed together with its
//! incident edge list, so an edge is resolved (both endpoints known)
//! exactly when its second endpoint is discovered. Vertex discovery is
//! therefore the view's only state: a [`StampedMap`] of arena spans per
//! node, and one shared arena holding every discovered vertex's slots
//! back to back as `(edge, far end)` pairs, in two parallel arrays.
//! "Is this slot explored?" is one node-stamp read — is the far end
//! discovered? — and nothing is written per edge. The far ends stay
//! private: searchers see edge handles, and learn where an edge leads
//! only by requesting it.
//!
//! Per-request work is a handful of array reads — no hashing, and no
//! heap allocation once the arrays have grown to the graph's size.
//! Spans are `u32`, so [`reserve_graph`](DiscoveredView::reserve_graph)
//! rejects a graph with more than `u32::MAX` incidence slots.
//!
//! Presence is epoch-stamped — clearing the view is an O(1) epoch bump,
//! with the u32-wrap path audited once in
//! [`StampedMap`](crate::StampedMap) rather than re-implemented here.
//! This is what lets one [`SearchScratch`](crate::SearchScratch) serve
//! thousands of Monte-Carlo trials without reallocating.

use crate::stamped::StampedMap;
use nonsearch_graph::{EdgeId, NodeId, UndirectedCsr};
use std::cell::Cell;
use std::fmt;
use std::ops::Range;

/// Arena range of a discovered vertex's slots.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSpan {
    start: u32,
    len: u32,
}

impl NodeSpan {
    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// What the searcher knows about one discovered vertex: its degree and
/// its incident edge handles, as revealed on discovery.
///
/// A lightweight borrowed proxy — the incident list is a slice into the
/// view's shared arena (the vertex's slot-ordered incident image), not a
/// per-vertex allocation.
#[derive(Clone, Copy)]
pub struct DiscoveredVertex<'a> {
    incident: &'a [EdgeId],
    /// The far end of each slot; never handed out.
    ends: &'a [NodeId],
}

impl<'a> DiscoveredVertex<'a> {
    /// The vertex degree (length of its incident edge list).
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    /// The incident edge handles, in the slot order revealed on
    /// discovery. The slice borrows from the view, not from a
    /// per-vertex vector.
    pub fn incident(self) -> &'a [EdgeId] {
        self.incident
    }

    /// The first slot at or after `from` whose far end `view` has not
    /// discovered, or [`degree`](DiscoveredVertex::degree) if there is
    /// none. Every slot tested counts as one of the view's
    /// [`slot_reads`](DiscoveredView::slot_reads).
    #[inline]
    pub(crate) fn first_unexplored(self, view: &DiscoveredView, from: usize) -> usize {
        let skipped = self.ends[from..]
            .iter()
            .take_while(|&&w| view.contains(w))
            .count();
        let found = from + skipped;
        view.count_reads(skipped + usize::from(found < self.degree()));
        found
    }
}

impl fmt::Debug for DiscoveredVertex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiscoveredVertex")
            .field("incident", &self.incident)
            .finish_non_exhaustive()
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
/// All state lives in a dense [`StampedMap`] indexed by `NodeId` and is
/// invalidated wholesale by an epoch bump (see the module docs), so a
/// view reused across trials performs zero heap allocations once warm.
/// Only the oracles mutate it; algorithms only ever see
/// `&DiscoveredView`.
#[derive(Clone, Default)]
pub struct DiscoveredView {
    /// Discovered vertices: present iff discovered, value is the arena
    /// span of the vertex's slots.
    nodes: StampedMap<NodeSpan>,
    /// Discovered vertices in discovery order (start vertex first).
    order: Vec<NodeId>,
    /// The edge handle of every discovered slot, back to back in
    /// discovery order.
    edges: Vec<EdgeId>,
    /// The far end of every discovered slot, index for index with
    /// `edges`. A slot is explored iff its far end is discovered.
    ends: Vec<NodeId>,
    /// Cumulative count of edges that became resolved (second endpoint
    /// discovered). Survives [`reset`](DiscoveredView::reset) — metrics
    /// consumers take before/after deltas.
    edge_resolutions: u64,
    /// Cumulative work count, see
    /// [`slot_reads`](DiscoveredView::slot_reads). A `Cell`, so the
    /// searchers' scans count through the `&DiscoveredView` they are
    /// handed.
    slot_reads: Cell<u64>,
    /// Cumulative count of [`reset`](DiscoveredView::reset) calls
    /// (one per search begun on this view).
    resets: u64,
}

impl fmt::Debug for DiscoveredView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiscoveredView")
            .field("discovered", &self.order)
            .field("edge_resolutions", &self.edge_resolutions)
            .field("slot_reads", &self.slot_reads.get())
            .field("resets", &self.resets)
            .finish_non_exhaustive()
    }
}

impl DiscoveredView {
    /// An empty view (no vertices discovered yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A view whose *next* [`reset`](DiscoveredView::reset) takes the
    /// epoch-wrap path. Test-only hook: wrap coverage drives the public
    /// API instead of poking private fields.
    #[doc(hidden)]
    pub fn near_wrap() -> Self {
        DiscoveredView {
            nodes: StampedMap::near_wrap(),
            ..Self::default()
        }
    }

    /// Forgets everything in O(1): bumps the node epoch and truncates
    /// the discovery-order list and arena, keeping every allocation for
    /// the next search. The once-per-2^32 wrap path is
    /// [`StampedMap::reset`]'s.
    // lint: alloc-free
    pub fn reset(&mut self) {
        self.order.clear();
        self.edges.clear();
        self.ends.clear();
        self.nodes.reset();
        self.resets += 1;
    }

    /// Grows the dense arrays to cover `nodes` vertices and `edges`
    /// edges — including the discovery-order list and the arena (a
    /// graph with `edges` edges has exactly `2 * edges` incidence
    /// slots) — so a search over a graph of that size triggers no
    /// allocation at all, even on the first trial. Called by the
    /// oracles at search start; a no-op once the arrays are large
    /// enough.
    ///
    /// # Panics
    ///
    /// If the graph has more than `u32::MAX` incidence slots: the
    /// arena spans are `u32`.
    pub fn reserve_graph(&mut self, nodes: usize, edges: usize) {
        assert!(
            edges <= u32::MAX as usize / 2,
            "a graph with {edges} edges has {} incidence slots, more than the u32::MAX the \
             search view can address",
            2 * edges as u128
        );
        self.nodes.reserve(nodes);
        if self.order.capacity() < nodes {
            self.order.reserve(nodes - self.order.len());
        }
        let slots = 2 * edges;
        if self.edges.capacity() < slots {
            self.edges.reserve(slots - self.edges.len());
        }
        if self.ends.capacity() < slots {
            self.ends.reserve(slots - self.ends.len());
        }
    }

    /// Number of discovered vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if nothing has been discovered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` if `v` has been discovered.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(v.index())
    }

    /// Discovered vertices in discovery order (start vertex first).
    pub fn discovered(&self) -> &[NodeId] {
        &self.order
    }

    /// Knowledge about `v`, if discovered.
    #[inline]
    pub fn vertex(&self, v: NodeId) -> Option<DiscoveredVertex<'_>> {
        self.nodes.get(v.index()).map(|span| DiscoveredVertex {
            incident: &self.edges[span.range()],
            ends: &self.ends[span.range()],
        })
    }

    /// Degree of `v`, if discovered.
    #[inline]
    pub fn degree_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.get(v.index()).map(|span| span.len as usize)
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

    /// Records the discovery of `v` with its incidence slots, read
    /// straight out of `graph`'s CSR, so the oracle copies each slot
    /// exactly once (graph → arena) with no intermediate vector. A no-op
    /// for an already-discovered vertex, which costs one stamp read.
    ///
    /// Every slot of `v` whose far end is already discovered resolves
    /// its edge now; a self-loop fills two slots of `v` and resolves
    /// once.
    // lint: alloc-free
    pub(crate) fn discover(&mut self, graph: &UndirectedCsr, v: NodeId) {
        if self.contains(v) {
            return;
        }
        let slots = graph.incident(v);
        let start = self.edges.len();
        let (mut resolved, mut loop_slots) = (0, 0);
        for &(w, e) in slots {
            if w == v {
                loop_slots += 1;
            } else if self.contains(w) {
                resolved += 1;
            }
            self.edges.push(e);
            self.ends.push(w);
        }
        self.edge_resolutions += resolved + loop_slots / 2;
        self.count_reads(slots.len());
        self.nodes.insert(
            v.index(),
            NodeSpan {
                start: start as u32,
                len: slots.len() as u32,
            },
        );
        self.order.push(v);
    }

    /// Cumulative count of edges that became resolved on this view,
    /// across every search since construction (resets do not clear it).
    /// Metrics consumers read it before and after a trial and record
    /// the delta.
    pub fn edge_resolutions(&self) -> u64 {
        self.edge_resolutions
    }

    /// Cumulative count of [`reset`](DiscoveredView::reset) calls since
    /// construction — one per search begun on this view.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Cumulative work done on this view since construction (resets do
    /// not clear it): the incident slots an oracle copied on discovery
    /// or read to expand a vertex, the slots the searchers' frontier
    /// scans tested, and the entries popped from their best-vertex
    /// indexes. Exact and thread-invariant, so it moves with an
    /// algorithm's complexity on any host; metrics consumers record the
    /// per-trial delta.
    pub fn slot_reads(&self) -> u64 {
        self.slot_reads.get()
    }

    /// Adds `reads` to [`slot_reads`](DiscoveredView::slot_reads).
    #[inline]
    pub(crate) fn count_reads(&self, reads: usize) {
        self.slot_reads.set(self.slot_reads.get() + reads as u64);
    }
}

/// Iterator over a vertex's unexplored incident edges, in slot order.
/// Created by [`DiscoveredView::unexplored_edges_of`]; allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct UnexploredEdges<'a> {
    view: &'a DiscoveredView,
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
        vertex.incident().get(slot).copied()
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
        let mut view = DiscoveredView::new();
        assert!(view.is_empty());
        view.discover(&g, v(1));
        assert_eq!(view.len(), 1);
        assert!(view.contains(v(1)));
        assert_eq!(view.degree_of(v(1)), Some(3));
        assert_eq!(
            view.vertex(v(1)).unwrap().incident(),
            &edges(&[1, 2, 3])[..]
        );
        assert_eq!(view.degree_of(v(0)), None);
        assert!(view.vertex(v(0)).is_none());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        view.discover(&g, v(3));
        // A second discovery, even in a graph where 3 has other slots,
        // changes nothing.
        let other = UndirectedCsr::from_edges(4, [(3, 0), (3, 1)]).unwrap();
        view.discover(&other, v(3));
        assert_eq!(view.degree_of(v(3)), Some(1));
        assert_eq!(view.len(), 1);
        assert_eq!(view.edge_resolutions(), 0);
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
        let mut view = DiscoveredView::new();
        view.discover(&g, v(2));
        assert!(view.has_unexplored(v(2)));
        view.discover(&g, v(3));
        assert_eq!(unexplored(&view, v(2)), edges(&[3]));
        assert!(!view.has_unexplored(v(3)));
        assert_eq!(view.edge_resolutions(), 1);
    }

    #[test]
    fn self_loop_resolves_within_one_list() {
        // A self-loop fills two slots of one vertex and resolves once.
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        view.discover(&g, v(0));
        assert_eq!(
            view.vertex(v(0)).unwrap().incident(),
            &edges(&[0, 0, 1, 2])[..]
        );
        assert_eq!(unexplored(&view, v(0)), edges(&[1, 2]));
        assert_eq!(view.edge_resolutions(), 1);
    }

    #[test]
    fn unknown_edges_are_unknown() {
        let view = DiscoveredView::new();
        assert!(unexplored(&view, v(0)).is_empty());
        assert!(!view.has_unexplored(v(0)));
        assert_eq!(view.unexplored_edges_of(v(0)).size_hint(), (0, Some(0)));
    }

    #[test]
    fn discovery_order_is_preserved() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        for u in [4, 1, 3] {
            view.discover(&g, v(u));
        }
        assert_eq!(view.discovered(), nodes(&[4, 1, 3]));
    }

    #[test]
    fn reset_forgets_everything_and_reuses_memory() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        view.discover(&g, v(0));
        view.discover(&g, v(1));
        view.reset();
        assert!(view.is_empty());
        assert!(!view.contains(v(0)));
        assert!(unexplored(&view, v(1)).is_empty());
        // Fresh inserts work immediately; e1's far end is forgotten.
        view.discover(&g, v(1));
        assert_eq!(view.discovered(), nodes(&[1]));
        assert_eq!(unexplored(&view, v(1)), edges(&[1, 2, 3]));
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let g = edge_cases();
        // Built at the wrap boundary: the first reset zero-fills stamps.
        let mut view = DiscoveredView::near_wrap();
        view.discover(&g, v(2));
        view.discover(&g, v(3));
        view.reset();
        assert!(!view.contains(v(2)));
        view.discover(&g, v(2));
        assert!(view.contains(v(2)));
        assert_eq!(unexplored(&view, v(2)), edges(&[3, 4]));
        // And the restarted epoch keeps resetting cleanly.
        view.reset();
        assert!(!view.contains(v(2)));
    }

    #[test]
    fn resolution_and_reset_counters_are_cumulative() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        assert_eq!((view.edge_resolutions(), view.resets()), (0, 0));
        view.discover(&g, v(2));
        view.discover(&g, v(1)); // e3
        view.discover(&g, v(3)); // e4
        assert_eq!(view.edge_resolutions(), 2);
        view.reset();
        assert_eq!(view.resets(), 1);
        // Counters survive the reset; the next search adds on top.
        view.discover(&g, v(0)); // the loop
        assert_eq!(view.edge_resolutions(), 3);
    }

    #[test]
    fn slot_reads_count_copied_and_tested_slots() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        view.discover(&g, v(1)); // copies [e1, e2, e3]
        view.discover(&g, v(1)); // known: one stamp read, no slot
        view.discover(&g, v(2)); // copies [e3, e4]
        assert_eq!(view.slot_reads(), 5);
        // A scan tests each slot it passes and the one it stops at: e1
        // and e2 lead to the undiscovered 0, e3 to the discovered 2.
        assert_eq!(unexplored(&view, v(1)), edges(&[1, 2]));
        assert_eq!(view.slot_reads(), 5 + 3);
        // A strong request reads the expanded vertex's slots, and the
        // view copies each newly found neighbor's: 1 (start 3), then
        // 1 (3's slots) + 2 (vertex 2's).
        let mut scratch = SearchScratch::new();
        let mut s = StrongSearchState::new_in(&mut scratch, &g, v(3)).unwrap();
        s.request(v(3)).unwrap();
        assert_eq!(s.view().slot_reads(), 1 + 1 + 2);
    }

    #[test]
    fn reserve_graph_is_idempotent() {
        let g = edge_cases();
        let mut view = DiscoveredView::new();
        view.reserve_graph(10, 20);
        view.discover(&g, v(3));
        view.reserve_graph(5, 5); // never shrinks
        assert!(view.contains(v(3)));
        assert_eq!(view.vertex(v(3)).unwrap().incident(), &[e(4)]);
    }

    #[test]
    #[should_panic(expected = "incidence slots")]
    fn reserve_graph_rejects_more_than_u32_max_slots() {
        DiscoveredView::new().reserve_graph(1, u32::MAX as usize / 2 + 1);
    }

    #[test]
    fn debug_output_hides_far_ends() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut view = DiscoveredView::new();
        view.discover(&g, v(0));
        let vertex = format!("{:?}", view.vertex(v(0)).unwrap());
        assert_eq!(vertex, "DiscoveredVertex { incident: [e0], .. }");
        // The far end, vertex 1, prints as `v2`.
        assert!(!format!("{view:?}").contains("v2"), "{view:?}");
    }
}
