//! Reusable per-worker search state: the view's discovered set and
//! frontier cursors plus the oracle buffers, reset between trials in
//! time linear in the previous trial's discoveries, and [`NodeSet`],
//! the dense vertex set behind the view, the strong searchers and
//! percolation search.
//!
//! A Monte-Carlo sweep runs thousands of searches on graphs of one
//! size. Allocating a fresh view (and oracle buffers) per trial made
//! per-request hashing and allocation the hot path's dominant cost;
//! instead, a worker owns one [`SearchScratch`], the `*_in` runners
//! ([`run_weak_in`](crate::run_weak_in),
//! [`run_strong_in`](crate::run_strong_in)) borrow it for the duration
//! of one search, and the oracles reset it by clearing only the bits
//! the last search set — no memory is released or re-acquired once the
//! arrays have grown to the graph size.

use crate::discovered::ViewState;
use nonsearch_graph::NodeId;

/// Reusable buffers for one search at a time: the state behind the
/// searcher's [`DiscoveredView`](crate::DiscoveredView) (a discovery
/// bit and a frontier cursor per vertex, the discovery order and the
/// work counters) plus the strong oracle's expansion-order and answer
/// buffers.
///
/// Create one per worker (or per call site) and pass it to
/// [`WeakSearchState::new_in`](crate::WeakSearchState::new_in),
/// [`StrongSearchState::new_in`](crate::StrongSearchState::new_in), or
/// the `*_in` runners. Reuse across trials is observationally
/// identical to fresh state — the engine's trial records are
/// bit-identical either way (asserted by the scratch-reuse tests).
///
/// # Example
///
/// ```
/// use nonsearch_generators::rng_from_seed;
/// use nonsearch_graph::{NodeId, UndirectedCsr};
/// use nonsearch_search::{run_weak_in, BfsFlood, SearchScratch, SearchTask};
///
/// let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let task = SearchTask::new(NodeId::new(0), NodeId::new(3));
/// let mut scratch = SearchScratch::new();
/// let mut flood = BfsFlood::new();
/// // Both trials share one allocation; outcomes match fresh-state runs.
/// let a = run_weak_in(&mut scratch, &g, &task, &mut flood, &mut rng_from_seed(1))?;
/// let b = run_weak_in(&mut scratch, &g, &task, &mut flood, &mut rng_from_seed(1))?;
/// assert_eq!(a, b);
/// assert_eq!(scratch.resets(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    pub(crate) view: ViewState,
    /// Vertices expanded by a strong-model search, in request order.
    pub(crate) expanded: Vec<NodeId>,
    /// The neighbors revealed by the latest strong request.
    pub(crate) revealed: Vec<NodeId>,
}

impl SearchScratch {
    /// Creates an empty scratch; the arrays grow to the first graph's
    /// size on first use and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for graphs with `nodes` vertices and
    /// `edges` edges — the view's bits, cursors and discovery order, and the
    /// strong oracle's buffers — so even the first search allocates
    /// nothing after construction (pair with the searcher-side
    /// [`reserve`](crate::WeakSearcher::reserve) hook).
    pub fn for_graph_size(nodes: usize, edges: usize) -> Self {
        let mut scratch = Self::new();
        scratch.view.reserve(nodes);
        // The strong oracle expands each vertex at most once per search
        // and reveals at most one neighbor per incidence slot.
        scratch.expanded.reserve(nodes);
        scratch.revealed.reserve(2 * edges);
        scratch
    }

    /// Cumulative count of edges resolved by the searches on this
    /// scratch (see
    /// [`DiscoveredView::edge_resolutions`](crate::DiscoveredView::edge_resolutions)).
    pub fn edge_resolutions(&self) -> u64 {
        self.view.edge_resolutions
    }

    /// Cumulative work of the searches on this scratch (see
    /// [`DiscoveredView::slot_reads`](crate::DiscoveredView::slot_reads)).
    pub fn slot_reads(&self) -> u64 {
        self.view.slot_reads.get()
    }

    /// Cumulative count of searches begun on this scratch.
    pub fn resets(&self) -> u64 {
        self.view.resets
    }
}

/// A dense set of vertices: one bit per vertex plus the members in
/// insertion order.
///
/// The one vertex-set type of the crate. It backs the view's discovered
/// vertices, the strong searchers' expanded sets and the percolation
/// scratch: membership is one bit read, and the insertion order comes
/// for free (the view's discovery order, percolation's broadcast
/// queue). [`clear`](NodeSet::clear) zeroes the bitset words its
/// members touched, or the whole bitset when that is smaller, so it
/// costs O(members), never more than the inserts that made them, and
/// keeps every allocation for the next trial.
///
/// # Example
///
/// ```
/// use nonsearch_graph::NodeId;
/// use nonsearch_search::NodeSet;
///
/// let mut set = NodeSet::new();
/// set.reserve(100); // inserts below 100 never allocate
/// assert!(set.insert(NodeId::new(70)));
/// assert!(!set.insert(NodeId::new(70))); // already a member
/// assert!(set.insert(NodeId::new(3)));
/// assert_eq!(set.members(), [NodeId::new(70), NodeId::new(3)]);
/// set.clear();
/// assert!(set.is_empty() && !set.contains(NodeId::new(70)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    /// Bit `v % 64` of word `v / 64` is set iff vertex `v` is a member.
    bits: Vec<u64>,
    /// The members, in insertion order.
    members: Vec<NodeId>,
}

impl NodeSet {
    /// Creates an empty set; the arrays grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the bitset and the member list to cover `nodes` vertices,
    /// so inserts on a graph of that size never allocate, even on the
    /// first trial. Never shrinks; a no-op once large enough.
    pub fn reserve(&mut self, nodes: usize) {
        let words = nodes.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        if self.members.capacity() < nodes {
            self.members.reserve(nodes - self.members.len());
        }
    }

    /// Number of vertices in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` if `v` is in the set; `false` for any vertex past the
    /// reserved size.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        self.bits
            .get(i / 64)
            .is_some_and(|&word| word >> (i % 64) & 1 != 0)
    }

    /// Inserts `v`; returns `true` if it was not already present. Grows
    /// the bitset only for a vertex past the reserved size.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        if self.bits.len() <= i / 64 {
            self.bits.resize(i / 64 + 1, 0);
        }
        let word = &mut self.bits[i / 64];
        let bit = 1 << (i % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.members.push(v);
        true
    }

    /// The members, in insertion order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Empties the set in O(members), keeping every allocation: zeroes
    /// the bitset word of each member, or the whole bitset when it has
    /// fewer words than there are members.
    // lint: alloc-free
    pub fn clear(&mut self) {
        if self.members.len() < self.bits.len() {
            for v in &self.members {
                self.bits[v.index() / 64] = 0;
            }
        } else {
            self.bits.fill(0);
        }
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::NodeId;

    #[test]
    fn stamped_set_behaves_like_a_set() {
        let mut set = NodeSet::new();
        assert!(set.is_empty());
        assert!(set.insert(NodeId::new(5)));
        assert!(!set.insert(NodeId::new(5)));
        assert!(set.insert(NodeId::new(0)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.members(), [NodeId::new(5), NodeId::new(0)]);
        assert!(set.contains(NodeId::new(5)));
        assert!(!set.contains(NodeId::new(4)));
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(NodeId::new(5)));
        assert!(set.insert(NodeId::new(5)));
    }

    #[test]
    fn stamped_set_reserve_presizes() {
        let mut set = NodeSet::new();
        set.reserve(8);
        assert!(set.is_empty());
        assert!(!set.contains(NodeId::new(7)));
        assert!(set.insert(NodeId::new(7)));
        // Past the reserved size: absent, then inserted by growing.
        assert!(!set.contains(NodeId::new(1000)));
        assert!(set.insert(NodeId::new(1000)));
        assert!(set.contains(NodeId::new(1000)));
    }

    #[test]
    fn scratch_presizing_and_view_access() {
        let scratch = SearchScratch::for_graph_size(16, 32);
        assert_eq!(
            (
                scratch.edge_resolutions(),
                scratch.slot_reads(),
                scratch.resets()
            ),
            (0, 0, 0)
        );
    }
}
