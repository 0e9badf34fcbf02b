//! Construction provenance for evolving models.
//!
//! The paper's lower-bound machinery reasons about the *construction
//! process*, not just the resulting graph: the event `E_{a,b}` of Lemma 2
//! asks where every window vertex's **father** (`N_k`, the destination of
//! its outgoing edge) landed. Generators therefore record an
//! [`AttachmentTrace`] alongside the graph so that analysis code can check
//! such events on each sample without re-deriving them from topology.

use nonsearch_graph::NodeId;

/// How an attachment target was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttachmentKind {
    /// Part of the fixed seed graph (e.g. the initial edge `2 → 1`).
    Seed,
    /// Drawn from the preferential (degree-weighted) component.
    Preferential,
    /// Drawn from the uniform component.
    Uniform,
}

/// One attachment decision: `child` chose `father` via `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttachmentRecord {
    /// The newly attached vertex (the edge source).
    pub child: NodeId,
    /// The chosen older vertex `N_child` (the edge destination).
    pub father: NodeId,
    /// Which mixture component produced the choice.
    pub kind: AttachmentKind,
}

/// The full attachment history of an evolving graph, in time order.
///
/// For tree models there is exactly one record per non-root vertex; for
/// multi-edge models (merged Móri, Cooper–Frieze) there is one record per
/// edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttachmentTrace {
    records: Vec<AttachmentRecord>,
}

impl AttachmentTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        AttachmentTrace {
            records: Vec::with_capacity(capacity),
        }
    }

    /// Appends a record (construction-time use).
    pub fn push(&mut self, record: AttachmentRecord) {
        self.records.push(record);
    }

    /// Number of recorded attachments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no attachments were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in time order.
    pub fn records(&self) -> &[AttachmentRecord] {
        &self.records
    }

    /// Iterator over records in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, AttachmentRecord> {
        self.records.iter()
    }

    /// The recorded edges as zero-based `(child, father)` pairs in time
    /// order: the edge list [`UndirectedCsr::from_edges`] takes.
    ///
    /// [`UndirectedCsr::from_edges`]: nonsearch_graph::UndirectedCsr::from_edges
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.records
            .iter()
            .map(|r| (r.child.index(), r.father.index()))
    }

    /// The degree of every vertex of the graph on `n` vertices whose
    /// edges these records are, with record endpoint `v` (zero-based)
    /// counted at vertex `v / block`: `block` is `m` for the tree behind
    /// a merged Móri graph and `1` for every other trace. Both endpoints
    /// of every record count, so a self-loop adds two, as it adds two
    /// slots to the CSR [`UndirectedCsr::from_edges`] builds from the
    /// same edges: the result is that graph's degree sequence, without
    /// the graph.
    ///
    /// [`UndirectedCsr::from_edges`]: nonsearch_graph::UndirectedCsr::from_edges
    ///
    /// # Panics
    ///
    /// Panics if an endpoint's vertex is `n` or beyond.
    pub fn degrees(&self, n: usize, block: usize) -> Vec<usize> {
        let mut degrees = vec![0; n];
        for r in &self.records {
            degrees[r.child.index() / block] += 1;
            degrees[r.father.index() / block] += 1;
        }
        degrees
    }

    /// The father `N_k` of the vertex with one-based label `k` in a
    /// tree trace, which holds one record per non-root vertex in label
    /// order: vertex `k`'s record is record `k − 2`, so the lookup is
    /// O(1). Returns `None` for the root (`k ≤ 1`) and for labels past
    /// the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if record `k − 2` belongs to another vertex, i.e. the trace
    /// is not a tree's. The Móri tree, the tree behind a merged Móri
    /// graph and uniform attachment with `m = 1` record trees.
    pub fn father_of_label(&self, k: usize) -> Option<NodeId> {
        let record = self.records.get(k.checked_sub(2)?)?;
        assert_eq!(
            record.child.label(),
            k,
            "record {} is not vertex {k}'s: not a tree trace",
            k - 2
        );
        Some(record.father)
    }
}

impl<'a> IntoIterator for &'a AttachmentTrace {
    type Item = &'a AttachmentRecord;
    type IntoIter = std::slice::Iter<'a, AttachmentRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl FromIterator<AttachmentRecord> for AttachmentTrace {
    fn from_iter<I: IntoIterator<Item = AttachmentRecord>>(iter: I) -> Self {
        AttachmentTrace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(child: usize, father: usize, kind: AttachmentKind) -> AttachmentRecord {
        AttachmentRecord {
            child: NodeId::from_label(child),
            father: NodeId::from_label(father),
            kind,
        }
    }

    #[test]
    fn trace_accumulates_in_order() {
        let mut t = AttachmentTrace::new();
        assert!(t.is_empty());
        t.push(rec(2, 1, AttachmentKind::Seed));
        t.push(rec(3, 1, AttachmentKind::Preferential));
        t.push(rec(4, 3, AttachmentKind::Uniform));
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[2].child, NodeId::from_label(4));
    }

    #[test]
    fn father_lookup() {
        let t: AttachmentTrace = [
            rec(2, 1, AttachmentKind::Seed),
            rec(3, 2, AttachmentKind::Uniform),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.father_of_label(2), Some(NodeId::from_label(1)));
        assert_eq!(t.father_of_label(3), Some(NodeId::from_label(2)));
        assert_eq!(t.father_of_label(1), None);
        assert_eq!(t.father_of_label(9), None);
    }

    #[test]
    fn multi_edge_fathers() {
        let t: AttachmentTrace = [
            rec(3, 1, AttachmentKind::Preferential),
            rec(3, 2, AttachmentKind::Uniform),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.edges().collect::<Vec<_>>(), vec![(2, 0), (2, 1)]);
        // Record 0 is vertex 3's, not vertex 2's: the tree lookup refuses
        // a multi-edge trace instead of answering for the wrong vertex.
        let lookup = std::panic::catch_unwind(|| t.father_of_label(2));
        assert!(lookup.is_err());
    }

    #[test]
    fn degrees_count_both_endpoints_per_block() {
        let t: AttachmentTrace = [
            rec(2, 1, AttachmentKind::Seed),
            rec(3, 1, AttachmentKind::Preferential),
            rec(4, 3, AttachmentKind::Uniform),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.degrees(4, 1), vec![2, 1, 2, 1]);
        // Blocks {1, 2} and {3, 4}: the seed edge is a self-loop of
        // block 0 and counts twice.
        assert_eq!(t.degrees(2, 2), vec![3, 3]);
    }

    #[test]
    fn iteration() {
        let t: AttachmentTrace = [rec(2, 1, AttachmentKind::Seed)].into_iter().collect();
        assert_eq!(t.iter().count(), 1);
        assert_eq!((&t).into_iter().count(), 1);
    }
}
