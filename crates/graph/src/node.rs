//! Strongly typed vertex and edge identifiers.

use std::fmt;

/// Identifier of a vertex.
///
/// In the evolving models of the paper, vertex identities are the integers
/// `1..=n` in *arrival order*: `NodeId` with index `i` is the `(i+1)`-th
/// vertex ever inserted. The searcher's goal in the paper is to find the
/// *last* inserted vertex, `NodeId::from_label(n)`.
///
/// Internally zero-based; [`NodeId::label`] exposes the paper's one-based
/// labelling.
///
/// ```
/// use nonsearch_graph::NodeId;
/// let v = NodeId::new(0);
/// assert_eq!(v.label(), 1); // the paper's vertex "1"
/// assert_eq!(NodeId::from_label(7).index(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Creates a node id from the paper's one-based label.
    ///
    /// # Panics
    ///
    /// Panics if `label` is zero or does not fit in `u32`.
    #[inline]
    pub fn from_label(label: usize) -> Self {
        assert!(label >= 1, "labels are one-based");
        NodeId::new(label - 1)
    }

    /// Zero-based index of this vertex (usable as a slice index).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-based label, matching the paper's `[[1, n]]` identity range.
    #[inline]
    pub fn label(self) -> usize {
        self.0 as usize + 1
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.label())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// Identifier of a directed edge in insertion order.
///
/// Edge ids are dense: the `k`-th inserted edge has id `k` (zero-based).
/// They survive unchanged into the [`UndirectedCsr`](crate::UndirectedCsr)
/// view, which lets provenance data recorded at construction time be joined
/// back to edges seen during a search.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }

    /// Zero-based index of this edge (usable as a slice index).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<EdgeId> for usize {
    fn from(id: EdgeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 5, 1000, u32::MAX as usize] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn node_label_is_one_based() {
        assert_eq!(NodeId::new(0).label(), 1);
        assert_eq!(NodeId::from_label(1).index(), 0);
        assert_eq!(NodeId::from_label(42).label(), 42);
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn zero_label_panics() {
        let _ = NodeId::from_label(0);
    }

    #[test]
    fn ordering_follows_arrival() {
        assert!(NodeId::new(3) < NodeId::new(4));
        assert!(NodeId::from_label(1) < NodeId::from_label(2));
    }

    #[test]
    fn debug_display_nonempty() {
        assert_eq!(format!("{:?}", NodeId::new(0)), "v1");
        assert_eq!(format!("{}", NodeId::new(0)), "1");
        assert_eq!(format!("{:?}", EdgeId::new(3)), "e3");
        assert_eq!(format!("{}", EdgeId::new(3)), "3");
    }

    #[test]
    fn edge_id_roundtrip() {
        assert_eq!(EdgeId::new(17).index(), 17);
        let u: usize = EdgeId::new(17).into();
        assert_eq!(u, 17);
    }
}
