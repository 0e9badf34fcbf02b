//! Static undirected incidence view in compressed sparse row form.

use crate::storage::{CsrBytes, CsrLayout, CsrStorage};
use crate::{EdgeId, GraphError, NodeId, Result};
use std::fmt;
use std::sync::Arc;

/// A static undirected multigraph stored in compressed sparse row form.
///
/// Searching in the paper "always takes place in the corresponding
/// unoriented graph", so this is the representation consumed by the search
/// oracles and analysis routines. Each vertex owns a list of *incident
/// edge slots*; slot `i` of vertex `u` is the pair `(v, e)` meaning edge
/// `e` connects `u` to `v`. A self-loop contributes two slots to its
/// vertex, so `degree` follows the standard undirected convention.
///
/// Slots are exactly the "list of incident edges" a vertex exposes in the
/// paper's weak knowledge model: the searcher can name *(vertex, slot)*
/// without knowing the neighbor behind the slot.
///
/// # Example
///
/// ```
/// use nonsearch_graph::UndirectedCsr;
///
/// // Triangle 1-2, 2-3, 3-1 (zero-based input).
/// let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.degree(nonsearch_graph::NodeId::new(0)), 2);
/// assert_eq!(g.edge_count(), 3);
/// # Ok::<(), nonsearch_graph::GraphError>(())
/// ```
// Interchange goes through the binary `.nsg` format, which round-trips
// `raw_parts`: the borrowed storage variant holds region-backed slices
// no field-wise encoding could express.
#[derive(Clone)]
pub struct UndirectedCsr {
    /// The three CSR buffers (`offsets`, `slots`, `edge_list`), either
    /// heap-owned or borrowed zero-copy from a shared byte region such
    /// as a memory-mapped `.nsg` file. Every accessor goes through the
    /// storage, so searchers and analyses are agnostic to the backing.
    storage: CsrStorage,
}

/// The borrowed CSR buffers of an [`UndirectedCsr`]:
/// `(offsets, slots, edge_list)`. Returned by
/// [`UndirectedCsr::raw_parts`] and accepted (owned) by
/// [`UndirectedCsr::from_raw_parts`].
pub type RawCsrParts<'a> = (&'a [usize], &'a [(NodeId, EdgeId)], &'a [(NodeId, NodeId)]);

impl UndirectedCsr {
    #[inline]
    fn offsets(&self) -> &[usize] {
        self.storage.offsets()
    }

    #[inline]
    fn slots(&self) -> &[(NodeId, EdgeId)] {
        self.storage.slots()
    }

    #[inline]
    fn edge_list(&self) -> &[(NodeId, NodeId)] {
        self.storage.edge_list()
    }

    /// Builds an undirected graph from an explicit edge list over vertices
    /// `0..n` (zero-based pairs). Duplicate pairs produce parallel edges;
    /// `(v, v)` produces a self-loop.
    ///
    /// This is the one edge-list → CSR builder: every generator hands it
    /// its edges as `(source, target)` pairs in insertion order. Edge `i`
    /// keeps id `i`, so construction-time provenance (who chose which
    /// father, and when) joins back to edges met during a search. One
    /// counting sort fills the slots: each edge `e = (s, t)` appends
    /// `(t, e)` to `s`'s slots, then `(s, e)` to `t`'s.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `≥ n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges = edges.into_iter();
        let mut edge_list = Vec::with_capacity(edges.size_hint().0);
        let mut counts = vec![0usize; n];
        for (s, t) in edges {
            for v in [s, t] {
                if v >= n {
                    return Err(GraphError::NodeOutOfBounds {
                        node: NodeId::new(v),
                        node_count: n,
                    });
                }
                counts[v] += 1;
            }
            edge_list.push((NodeId::new(s), NodeId::new(t)));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        // `counts` becomes each vertex's fill cursor.
        counts.copy_from_slice(&offsets[..n]);
        let mut slots = vec![(NodeId::new(0), EdgeId::new(0)); acc];
        for (i, &(s, t)) in edge_list.iter().enumerate() {
            let e = EdgeId::new(i);
            slots[counts[s.index()]] = (t, e);
            counts[s.index()] += 1;
            slots[counts[t.index()]] = (s, e);
            counts[t.index()] += 1;
        }
        Ok(UndirectedCsr {
            storage: CsrStorage::Owned {
                offsets,
                slots,
                edge_list,
            },
        })
    }

    /// Reassembles a graph directly from its CSR buffers, as produced by
    /// [`UndirectedCsr::raw_parts`] (or deserialized from the binary
    /// `.nsg` corpus format). Unlike [`UndirectedCsr::from_edges`] this
    /// preserves the exact incidence-slot order — including any
    /// [`shuffle_slots`](UndirectedCsr::shuffle_slots) permutation baked
    /// into a stored graph — and performs no re-derivation work beyond
    /// validation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] unless all of the following
    /// hold: `offsets` is non-empty, starts at `0`, is monotone, and ends
    /// at `slots.len()`; `slots.len() == 2 * edge_list.len()`; every slot
    /// and edge endpoint is in range; every edge id appears on exactly
    /// the two slots its endpoints own.
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        slots: Vec<(NodeId, EdgeId)>,
        edge_list: Vec<(NodeId, NodeId)>,
    ) -> Result<Self> {
        validate_parts(&offsets, &slots, &edge_list)?;
        Ok(UndirectedCsr {
            storage: CsrStorage::Owned {
                offsets,
                slots,
                edge_list,
            },
        })
    }

    /// Borrows a graph zero-copy out of a shared byte `region` whose
    /// `layout` names the byte ranges of the three CSR buffers — the
    /// exact shape of a `.nsg` payload (little-endian `u64` offsets,
    /// then `(u32, u32)` slot and edge pairs). The region is typically
    /// a memory-mapped corpus file; no per-graph vectors are allocated
    /// and the page cache backs every access.
    ///
    /// The cast is *validated*, never assumed: the target's in-memory
    /// layout of the id tuples is probed against the on-disk shape
    /// ([`crate::zero_copy_support`]), the ranges are bounds- and
    /// alignment-checked, and the resulting view passes the same
    /// structural validation as [`UndirectedCsr::from_raw_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] if the target cannot express
    /// the cast (callers should fall back to an owned decode), the
    /// layout is out of bounds or misaligned, or the buffers are
    /// structurally inconsistent.
    pub fn from_csr_bytes(region: Arc<dyn CsrBytes>, layout: &CsrLayout) -> Result<Self> {
        let storage = CsrStorage::from_region(region, layout)
            .map_err(|reason| GraphError::InvalidCsr { reason })?;
        validate_parts(storage.offsets(), storage.slots(), storage.edge_list())?;
        Ok(UndirectedCsr { storage })
    }

    /// `true` if this graph borrows its buffers from a shared byte
    /// region (see [`UndirectedCsr::from_csr_bytes`]) instead of owning
    /// them.
    pub fn is_borrowed(&self) -> bool {
        self.storage.is_borrowed()
    }

    /// Copies borrowed buffers into owned vectors, detaching the graph
    /// from its backing region. No-op for owned graphs. Mutating
    /// operations ([`shuffle_slots`](UndirectedCsr::shuffle_slots)) do
    /// this implicitly.
    pub fn make_owned(&mut self) {
        self.storage.make_owned();
    }

    /// Borrows the three CSR buffers: `(offsets, slots, edge_list)`.
    ///
    /// Together with [`UndirectedCsr::from_raw_parts`] this is the
    /// lossless persistence primitive behind the binary corpus format:
    /// the buffers round-trip the graph exactly, slot order included.
    pub fn raw_parts(&self) -> RawCsrParts<'_> {
        (self.offsets(), self.slots(), self.edge_list())
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Number of undirected edges (self-loops count once).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_list().len()
    }

    /// `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of `v` (self-loops count twice).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets()[v.index() + 1] - self.offsets()[v.index()]
    }

    /// The incidence slots of `v`: pairs `(neighbor, edge)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.slots()[self.offsets()[v.index()]..self.offsets()[v.index() + 1]]
    }
    /// Iterator over the neighbors of `v` (with multiplicity; a self-loop
    /// yields `v` twice).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors {
            inner: self.incident(v).iter(),
        }
    }

    /// Iterator over the incident `(neighbor, edge)` slots of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn incident_edges(&self, v: NodeId) -> IncidentEdges<'_> {
        IncidentEdges {
            inner: self.incident(v).iter(),
        }
    }

    /// Endpoints of edge `e` as stored at construction (source, target).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfBounds`] if `e` does not exist.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> Result<(NodeId, NodeId)> {
        self.edge_list()
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfBounds {
                edge: e,
                edge_count: self.edge_count(),
            })
    }

    /// `true` if some edge joins `u` and `v`.
    ///
    /// Runs in O(min(deg(u), deg(v))).
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of bounds.
    pub fn is_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        let (probe, other) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).any(|w| w == other)
    }

    /// Iterator over all vertices.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over `(EdgeId, (u, v))` for every undirected edge.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, (NodeId, NodeId))> + '_ {
        self.edge_list()
            .iter()
            .enumerate()
            .map(|(i, &uv)| (EdgeId::new(i), uv))
    }

    /// The vertex with maximum degree, with its degree.
    ///
    /// Ties resolve to the oldest (smallest id) vertex. Returns `None` on
    /// an empty graph.
    pub fn max_degree(&self) -> Option<(NodeId, usize)> {
        (0..self.node_count())
            .map(|i| (NodeId::new(i), self.degree(NodeId::new(i))))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Randomly permutes every vertex's incident-slot order in place.
    ///
    /// Construction fills incidence lists in edge-insertion order, which
    /// in evolving models correlates with *arrival time* — information
    /// the paper's weak oracle does not give away. Experiments shuffle
    /// slots so that the presentation order carries no signal.
    ///
    /// A borrowed (mapped) graph is first detached into owned buffers
    /// (see [`make_owned`](UndirectedCsr::make_owned)) — the backing
    /// region is shared and read-only, so it is never mutated in place.
    pub fn shuffle_slots<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) {
        use rand::seq::SliceRandom;
        let (offsets, slots) = self.storage.offsets_and_slots_mut();
        for v in 0..offsets.len() - 1 {
            slots[offsets[v]..offsets[v + 1]].shuffle(rng);
        }
    }

    /// Extracts the subgraph induced by `keep`, relabelling vertices to
    /// `0..keep.len()` in the order given. Returns the subgraph and the
    /// mapping from new index to original [`NodeId`].
    ///
    /// Edges with both endpoints in `keep` are retained (with fresh edge
    /// ids); duplicates in `keep` are ignored after the first occurrence.
    fn induced_subgraph(&self, keep: &[NodeId]) -> (UndirectedCsr, Vec<NodeId>) {
        let mut old_of_new: Vec<NodeId> = Vec::with_capacity(keep.len());
        let mut new_of_old: Vec<Option<usize>> = vec![None; self.node_count()];
        for &v in keep {
            if new_of_old[v.index()].is_none() {
                new_of_old[v.index()] = Some(old_of_new.len());
                old_of_new.push(v);
            }
        }
        let edges = self.edges().filter_map(|(_, (u, v))| {
            match (new_of_old[u.index()], new_of_old[v.index()]) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            }
        });
        let sub = UndirectedCsr::from_edges(old_of_new.len(), edges)
            .expect("relabelled endpoints are in range");
        (sub, old_of_new)
    }

    /// Extracts the largest connected component (ties to the component
    /// containing the smallest vertex id), relabelled to `0..size`.
    ///
    /// Returns the component and the mapping from new index to original
    /// [`NodeId`]. Returns an empty graph for an empty input.
    pub fn giant_component(&self) -> (UndirectedCsr, Vec<NodeId>) {
        let cc = crate::connected_components(self);
        let sizes = cc.sizes();
        let Some((giant_label, _)) = sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        else {
            return (UndirectedCsr::from_edges(0, []).expect("empty"), Vec::new());
        };
        let keep: Vec<NodeId> = self
            .nodes()
            .filter(|&v| cc.component_of(v) == giant_label)
            .collect();
        self.induced_subgraph(&keep)
    }
}

/// The structural validation shared by [`UndirectedCsr::from_raw_parts`]
/// (owned buffers) and [`UndirectedCsr::from_csr_bytes`] (borrowed
/// views): offsets monotone and consistent with the slot count, all ids
/// in range, and every edge id on exactly the two slots its endpoints
/// own.
fn validate_parts(
    offsets: &[usize],
    slots: &[(NodeId, EdgeId)],
    edge_list: &[(NodeId, NodeId)],
) -> Result<()> {
    let invalid = |reason: String| GraphError::InvalidCsr { reason };
    if offsets.first() != Some(&0) {
        return Err(invalid("offsets must be non-empty and start at 0".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("offsets must be monotone non-decreasing".into()));
    }
    let n = offsets.len() - 1;
    let m = edge_list.len();
    if *offsets.last().expect("non-empty") != slots.len() {
        return Err(invalid(format!(
            "final offset {} does not match slot count {}",
            offsets.last().expect("non-empty"),
            slots.len()
        )));
    }
    if slots.len() != 2 * m {
        return Err(invalid(format!(
            "{} slots cannot represent {m} undirected edges (need {})",
            slots.len(),
            2 * m
        )));
    }
    for &(u, v) in edge_list {
        if u.index() >= n || v.index() >= n {
            return Err(invalid(format!(
                "edge endpoint {:?}-{:?} out of bounds for {n} vertices",
                u, v
            )));
        }
    }
    // Each edge id must occupy exactly the two slots its endpoints
    // own (a self-loop owns both slots at one vertex).
    let mut slots_seen = vec![0u8; m];
    for v in 0..n {
        for &(w, e) in &slots[offsets[v]..offsets[v + 1]] {
            let Some((a, b)) = edge_list.get(e.index()).copied() else {
                return Err(invalid(format!(
                    "slot references unknown edge {:?} (graph has {m} edges)",
                    e
                )));
            };
            let owner = NodeId::new(v);
            let matches = (a == owner && b == w) || (b == owner && a == w);
            if !matches {
                return Err(invalid(format!(
                    "slot ({w:?}, {e:?}) of vertex {owner:?} disagrees with \
                     edge endpoints {a:?}-{b:?}"
                )));
            }
            slots_seen[e.index()] += 1;
        }
    }
    if let Some(e) = slots_seen.iter().position(|&c| c != 2) {
        return Err(invalid(format!(
            "edge {:?} appears on {} slots (expected 2)",
            EdgeId::new(e),
            slots_seen[e]
        )));
    }
    Ok(())
}

// Equality is *content* equality — an owned graph and a borrowed view of
// the same buffers compare equal, which is exactly what mapped-vs-heap
// load tests rely on.
impl PartialEq for UndirectedCsr {
    fn eq(&self, other: &Self) -> bool {
        self.offsets() == other.offsets()
            && self.slots() == other.slots()
            && self.edge_list() == other.edge_list()
    }
}

impl Eq for UndirectedCsr {}

impl fmt::Debug for UndirectedCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UndirectedCsr")
            .field("offsets", &self.offsets())
            .field("slots", &self.slots())
            .field("edge_list", &self.edge_list())
            .field("borrowed", &self.is_borrowed())
            .finish()
    }
}

/// Iterator over the neighbors of a vertex. Created by
/// [`UndirectedCsr::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, (NodeId, EdgeId)>,
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.inner.next().map(|&(v, _)| v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over `(neighbor, edge)` slots of a vertex. Created by
/// [`UndirectedCsr::incident_edges`].
#[derive(Debug, Clone)]
pub struct IncidentEdges<'a> {
    inner: std::slice::Iter<'a, (NodeId, EdgeId)>,
}

impl Iterator for IncidentEdges<'_> {
    type Item = (NodeId, EdgeId);

    fn next(&mut self) -> Option<(NodeId, EdgeId)> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for IncidentEdges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UndirectedCsr {
        UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn degree_sum_is_twice_edges() {
        let g = triangle();
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(sum, 2 * g.edge_count());
    }

    #[test]
    fn self_loop_has_degree_two_and_two_slots() {
        let g = UndirectedCsr::from_edges(1, [(0, 0)]).unwrap();
        let v = NodeId::new(0);
        assert_eq!(g.degree(v), 2);
        assert_eq!(g.edge_count(), 1);
        let ns: Vec<_> = g.neighbors(v).collect();
        assert_eq!(ns, vec![v, v]);
    }

    #[test]
    fn incident_slot_resolves_neighbors() {
        let g = triangle();
        let v = NodeId::new(0);
        let mut seen: Vec<usize> = g.incident(v).iter().map(|&(w, _)| w.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn from_edges_preserves_edge_ids() {
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let (e0, e1) = (EdgeId::new(0), EdgeId::new(1));
        let g = UndirectedCsr::from_edges(3, [(1, 0), (2, 1)]).unwrap();
        assert_eq!(g.edge_endpoints(e0).unwrap(), (b, a));
        assert_eq!(g.edge_endpoints(e1).unwrap(), (c, b));
        // Slot of a mentions edge e0.
        assert_eq!(g.incident(a), &[(b, e0)]);
    }

    #[test]
    fn parallel_edges_both_visible() {
        let g = UndirectedCsr::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_adjacent(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn adjacency_checks() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert!(g.is_adjacent(NodeId::new(0), NodeId::new(1)));
        assert!(g.is_adjacent(NodeId::new(1), NodeId::new(0)));
        assert!(!g.is_adjacent(NodeId::new(0), NodeId::new(2)));
        assert!(!g.is_adjacent(NodeId::new(3), NodeId::new(0)));
    }

    #[test]
    fn max_degree_ties_to_oldest() {
        let g = UndirectedCsr::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let (v, d) = g.max_degree().unwrap();
        assert_eq!(d, 1);
        assert_eq!(v, NodeId::new(0));
        assert!(UndirectedCsr::from_edges(0, [])
            .unwrap()
            .max_degree()
            .is_none());
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        assert_eq!(
            UndirectedCsr::from_edges(2, [(0, 1), (0, 5)]),
            Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(5),
                node_count: 2,
            })
        );
    }

    #[test]
    fn neighbors_exact_size() {
        let g = triangle();
        let it = g.neighbors(NodeId::new(1));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn shuffle_slots_preserves_structure() {
        use rand::SeedableRng;
        let mut g = UndirectedCsr::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let before_degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let before_edges: Vec<_> = g.edges().collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        g.shuffle_slots(&mut rng);
        let after_degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        assert_eq!(before_degrees, after_degrees);
        assert_eq!(before_edges, g.edges().collect::<Vec<_>>());
        // The slot multiset of each vertex is unchanged.
        let mut slots: Vec<_> = g.incident(NodeId::new(0)).to_vec();
        slots.sort();
        let expect: Vec<(NodeId, EdgeId)> = vec![
            (NodeId::new(1), EdgeId::new(0)),
            (NodeId::new(2), EdgeId::new(1)),
            (NodeId::new(3), EdgeId::new(2)),
            (NodeId::new(4), EdgeId::new(3)),
        ];
        assert_eq!(slots, expect);
    }

    #[test]
    fn shuffle_slots_changes_order_eventually() {
        use rand::SeedableRng;
        let base = UndirectedCsr::from_edges(9, (1..9).map(|i| (0, i))).unwrap();
        let original = base.incident(NodeId::new(0)).to_vec();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut changed = false;
        for _ in 0..10 {
            let mut g = base.clone();
            g.shuffle_slots(&mut rng);
            if g.incident(NodeId::new(0)) != original.as_slice() {
                changed = true;
                break;
            }
        }
        assert!(changed, "ten shuffles of 8 slots should change the order");
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = UndirectedCsr::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let keep = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // 1-2 and 2-3
        assert_eq!(map, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = triangle();
        let keep = [NodeId::new(0), NodeId::new(0), NodeId::new(1)];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map.len(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn giant_component_extraction() {
        // Triangle plus an isolated edge plus an isolated vertex.
        let g = UndirectedCsr::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let (giant, map) = g.giant_component();
        assert_eq!(giant.node_count(), 3);
        assert_eq!(giant.edge_count(), 3);
        assert!(map.iter().all(|v| v.index() <= 2));
    }

    #[test]
    fn raw_parts_roundtrip_preserves_slot_order() {
        use rand::SeedableRng;
        let mut g =
            UndirectedCsr::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 0)]).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        g.shuffle_slots(&mut rng);
        let (offsets, slots, edges) = g.raw_parts();
        let back = UndirectedCsr::from_raw_parts(offsets.to_vec(), slots.to_vec(), edges.to_vec())
            .unwrap();
        assert_eq!(g, back); // equality covers the exact slot permutation
    }

    #[test]
    fn raw_parts_roundtrip_empty_graph() {
        let g = UndirectedCsr::from_edges(0, []).unwrap();
        let (offsets, slots, edges) = g.raw_parts();
        let back = UndirectedCsr::from_raw_parts(offsets.to_vec(), slots.to_vec(), edges.to_vec())
            .unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_buffers() {
        let g = triangle();
        let (offsets, slots, edges) = g.raw_parts();
        let (offsets, slots, edges) = (offsets.to_vec(), slots.to_vec(), edges.to_vec());

        let bad = UndirectedCsr::from_raw_parts(vec![], slots.clone(), edges.clone());
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));

        let bad = UndirectedCsr::from_raw_parts(vec![0, 2, 1, 6], slots.clone(), edges.clone());
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));

        // Truncated slots: final offset disagrees.
        let bad =
            UndirectedCsr::from_raw_parts(offsets.clone(), slots[..4].to_vec(), edges.clone());
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));

        // Edge list missing an entry every slot still references.
        let bad =
            UndirectedCsr::from_raw_parts(offsets.clone(), slots.clone(), edges[..2].to_vec());
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));

        // A slot whose neighbor contradicts the edge list.
        let mut tampered = slots.clone();
        tampered[0].0 = NodeId::new(0);
        let bad = UndirectedCsr::from_raw_parts(offsets.clone(), tampered, edges.clone());
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));

        // Edge endpoint out of vertex range.
        let mut far = edges.clone();
        far[0] = (NodeId::new(0), NodeId::new(99));
        let bad = UndirectedCsr::from_raw_parts(offsets, slots, far);
        assert!(matches!(bad, Err(GraphError::InvalidCsr { .. })));
    }

    /// Encodes a graph's CSR buffers into an aligned byte region in the
    /// `.nsg` payload shape, plus the matching layout.
    fn region_of(g: &UndirectedCsr) -> (Arc<dyn CsrBytes>, CsrLayout) {
        let (offsets, slots, edge_list) = g.raw_parts();
        let mut bytes = Vec::new();
        for &o in offsets {
            bytes.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &(v, e) in slots {
            bytes.extend_from_slice(&(v.index() as u32).to_le_bytes());
            bytes.extend_from_slice(&(e.index() as u32).to_le_bytes());
        }
        for &(u, v) in edge_list {
            bytes.extend_from_slice(&(u.index() as u32).to_le_bytes());
            bytes.extend_from_slice(&(v.index() as u32).to_le_bytes());
        }
        let offsets_end = 8 * offsets.len();
        let slots_end = offsets_end + 8 * slots.len();
        let layout = CsrLayout {
            offsets: 0..offsets_end,
            slots: offsets_end..slots_end,
            edge_list: slots_end..bytes.len(),
        };
        (Arc::new(crate::AlignedBytes::from_bytes(&bytes)), layout)
    }

    #[test]
    fn borrowed_view_equals_owned_graph() {
        use rand::SeedableRng;
        let mut g =
            UndirectedCsr::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 0)]).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        g.shuffle_slots(&mut rng);
        let (region, layout) = region_of(&g);
        let view = UndirectedCsr::from_csr_bytes(region, &layout).unwrap();
        assert!(view.is_borrowed());
        assert!(!g.is_borrowed());
        assert_eq!(view, g, "content equality across storage kinds");
        // Every accessor agrees with the owned original.
        for v in g.nodes() {
            assert_eq!(view.degree(v), g.degree(v));
            assert_eq!(view.incident(v), g.incident(v));
        }
        assert_eq!(
            view.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        assert_eq!(view.max_degree(), g.max_degree());
        // Clones of a borrowed view share the region and stay borrowed.
        let clone = view.clone();
        assert!(clone.is_borrowed());
        assert_eq!(clone, g);
    }

    #[test]
    fn borrowed_view_detaches_on_mutation() {
        use rand::SeedableRng;
        let g = UndirectedCsr::from_edges(9, (1..9).map(|i| (0, i))).unwrap();
        let (region, layout) = region_of(&g);
        let mut view = UndirectedCsr::from_csr_bytes(Arc::clone(&region), &layout).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        view.shuffle_slots(&mut rng);
        assert!(!view.is_borrowed(), "mutation must copy out of the region");
        // The region itself is untouched: a fresh view still matches the
        // original slot order.
        let fresh = UndirectedCsr::from_csr_bytes(region, &layout).unwrap();
        assert_eq!(fresh, g);
        // Explicit detach is also available.
        let (region, layout) = region_of(&g);
        let mut view = UndirectedCsr::from_csr_bytes(region, &layout).unwrap();
        view.make_owned();
        assert!(!view.is_borrowed());
        assert_eq!(view, g);
    }

    #[test]
    fn from_csr_bytes_rejects_structural_corruption() {
        let g = triangle();
        let (region, layout) = region_of(&g);
        // Valid region, but a layout that swaps slots and edge_list has
        // the wrong element counts.
        let swapped = CsrLayout {
            offsets: layout.offsets.clone(),
            slots: layout.edge_list.clone(),
            edge_list: layout.slots.clone(),
        };
        assert!(matches!(
            UndirectedCsr::from_csr_bytes(Arc::clone(&region), &swapped),
            Err(GraphError::InvalidCsr { .. })
        ));
        // Out-of-bounds layout.
        let far = CsrLayout {
            offsets: layout.offsets.clone(),
            slots: layout.slots.clone(),
            edge_list: layout.edge_list.start..layout.edge_list.end + 8,
        };
        assert!(matches!(
            UndirectedCsr::from_csr_bytes(region, &far),
            Err(GraphError::InvalidCsr { .. })
        ));
    }

    #[test]
    fn giant_component_of_empty_graph() {
        let g = UndirectedCsr::from_edges(0, []).unwrap();
        let (giant, map) = g.giant_component();
        assert_eq!(giant.node_count(), 0);
        assert!(map.is_empty());
    }
}
