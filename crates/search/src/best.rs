//! The lazy-deletion index behind every "expand the best discovered
//! vertex" searcher.

use crate::DiscoveredView;
use nonsearch_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The best discovered vertex that still has work, by a fixed `u32` key.
///
/// Holds a min-heap of packed `key << 32 | vertex` words and a cursor
/// into [`DiscoveredView::discovered`]. Each [`best`](BestDiscovered::best)
/// call pushes the vertices discovered since the last call, then pops
/// from the top until it reaches a vertex that still has work. Smaller
/// keys win and ties break toward the smaller vertex id, so it picks
/// exactly what a `min_by_key(|v| (key(v), v))` scan over the live
/// discovered vertices would. A max-by-degree searcher keys on
/// [`higher_degree_first`], a label-gap searcher on
/// [`closer_label_first`]. An entry takes 8 bytes, half of a
/// `(usize, NodeId)` pair.
///
/// Two properties make dropping a popped vertex for good sound: a key
/// must be fixed once the vertex is discovered, and liveness must be
/// monotone — a vertex found without work (frontier exhausted, already
/// expanded) never gets work back. Each vertex is then pushed and popped
/// at most once per search, so a request costs O(log n) amortized
/// instead of the O(|discovered|) of a scan. [`reserve`] sizes the heap
/// for the whole graph, so a pre-sized search never allocates here.
///
/// [`reserve`]: BestDiscovered::reserve
#[derive(Debug, Clone, Default)]
pub(crate) struct BestDiscovered {
    heap: BinaryHeap<Reverse<u64>>,
    /// How many of `view.discovered()` have been pushed.
    seen: usize,
}

impl BestDiscovered {
    /// The best vertex for which `live` returns its pending work, with
    /// that work (an edge to request, or `()` for a vertex to expand).
    /// `None` once no discovered vertex has work left.
    // lint: alloc-free
    pub(crate) fn best<W>(
        &mut self,
        view: &DiscoveredView,
        mut key: impl FnMut(NodeId) -> u32,
        mut live: impl FnMut(NodeId) -> Option<W>,
    ) -> Option<(NodeId, W)> {
        let fresh = view.discovered().get(self.seen..).unwrap_or_default();
        self.seen += fresh.len();
        for &v in fresh {
            self.heap
                .push(Reverse(u64::from(key(v)) << 32 | v.index() as u64));
        }
        while let Some(&Reverse(packed)) = self.heap.peek() {
            let v = NodeId::new((packed & u64::from(u32::MAX)) as usize);
            if let Some(work) = live(v) {
                return Some((v, work));
            }
            self.heap.pop();
            view.count_reads(1);
        }
        None
    }

    /// Empties the index for a new search; the heap keeps its capacity.
    // lint: alloc-free
    pub(crate) fn reset(&mut self) {
        self.heap.clear();
        self.seen = 0;
    }

    /// Sizes the heap for a graph with `nodes` vertices.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.heap.reserve(nodes);
    }
}

/// The key that ranks a discovered vertex of higher degree first:
/// `u32::MAX − degree`.
///
/// # Panics
///
/// If `v` is not discovered or its degree does not fit in `u32`.
pub(crate) fn higher_degree_first(view: &DiscoveredView, v: NodeId) -> u32 {
    let degree = view.degree_of(v).expect("discovered vertices have info");
    u32::MAX - u32::try_from(degree).expect("degree exceeds u32::MAX")
}

/// The key that ranks a vertex whose label is closer to `target`'s
/// first: the label gap, which fits in `u32` because vertex indices do.
pub(crate) fn closer_label_first(v: NodeId, target: NodeId) -> u32 {
    u32::try_from(v.index().abs_diff(target.index())).expect("vertex indices fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::UndirectedCsr;

    #[test]
    fn each_pop_counts_one_slot_read() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut state = crate::discovered::ViewState::default();
        let mut view = DiscoveredView::new(&mut state, &g);
        for v in 0..4 {
            view.discover(NodeId::new(v));
        }
        let discovered = view.slot_reads();
        let mut index = BestDiscovered::default();
        // Only vertex 3 has work, so 0, 1 and 2 are popped on the way.
        let key = |v: NodeId| v.index() as u32;
        let best = index.best(&view, key, |v| (v.index() == 3).then_some(()));
        assert_eq!(best, Some((NodeId::new(3), ())));
        assert_eq!(view.slot_reads() - discovered, 3);
        // Popped vertices are gone for good: the next call pops none.
        assert!(index.best(&view, key, |_| Some(())).is_some());
        assert_eq!(view.slot_reads() - discovered, 3);
    }
}
