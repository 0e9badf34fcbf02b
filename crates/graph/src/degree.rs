//! Degree sequences and their summary statistics.

use crate::{NodeId, UndirectedCsr};

/// Undirected degree sequence, indexed by vertex.
pub fn degree_sequence(graph: &UndirectedCsr) -> Vec<usize> {
    (0..graph.node_count())
        .map(|i| graph.degree(NodeId::new(i)))
        .collect()
}

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m/n`).
    pub mean: f64,
    /// Population variance of the degrees.
    pub variance: f64,
}

impl DegreeStats {
    /// Computes degree statistics for `graph`.
    ///
    /// Returns `None` for the empty graph.
    pub fn of(graph: &UndirectedCsr) -> Option<DegreeStats> {
        let seq = degree_sequence(graph);
        if seq.is_empty() {
            return None;
        }
        let n = seq.len() as f64;
        let min = *seq.iter().min().expect("non-empty");
        let max = *seq.iter().max().expect("non-empty");
        let mean = seq.iter().map(|&d| d as f64).sum::<f64>() / n;
        let variance = seq.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n;
        Some(DegreeStats {
            min,
            max,
            mean,
            variance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UndirectedCsr;

    #[test]
    fn star_degrees() {
        let g = UndirectedCsr::from_edges(5, (1..5).map(|i| (0, i))).unwrap();
        assert_eq!(degree_sequence(&g), vec![4, 1, 1, 1, 1]);
    }

    #[test]
    fn empty_graph_histogram() {
        let g = UndirectedCsr::from_edges(0, []).unwrap();
        assert!(degree_sequence(&g).is_empty());
        assert!(DegreeStats::of(&g).is_none());
    }

    #[test]
    fn stats_on_regular_graph() {
        // 4-cycle: all degrees 2, variance 0.
        let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = DegreeStats::of(&g).unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.variance.abs() < 1e-12);
    }

    #[test]
    fn mean_is_2m_over_n() {
        let g =
            UndirectedCsr::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        let s = DegreeStats::of(&g).unwrap();
        assert!((s.mean - 2.0 * 6.0 / 5.0).abs() < 1e-12);
    }
}
