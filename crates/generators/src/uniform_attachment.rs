//! Pure uniform attachment (random recursive trees and their `m`-out
//! generalization).
//!
//! The `p = 0` end of the paper's attachment spectrum: every arriving
//! vertex picks its target(s) uniformly among existing vertices. With
//! `m = 1` this is the classic random recursive tree.

use crate::{AttachmentKind, AttachmentRecord, AttachmentTrace, GeneratorError, Result};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::Rng;

/// A sampled uniform-attachment graph with construction provenance.
///
/// Vertex `t` sends `min(m, t−1)` edges to *distinct* uniformly chosen
/// older vertices, so the graph is always connected and simple.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, UniformAttachment};
/// use nonsearch_graph::GraphProperties;
///
/// let mut rng = rng_from_seed(1);
/// let ua = UniformAttachment::sample(64, 1, &mut rng)?;
/// assert!(ua.undirected().is_tree());
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UniformAttachment {
    trace: AttachmentTrace,
    n: usize,
}

impl UniformAttachment {
    /// Samples a uniform-attachment graph on `n ≥ 2` vertices with up to
    /// `m ≥ 1` edges per arrival.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `m == 0` and
    /// [`GeneratorError::TooSmall`] if `n < 2`.
    pub fn sample<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<UniformAttachment> {
        if m == 0 {
            return Err(GeneratorError::invalid("m", 0usize, "a positive integer"));
        }
        if n < 2 {
            return Err(GeneratorError::TooSmall {
                requested: n,
                minimum: 2,
            });
        }
        let mut trace = AttachmentTrace::with_capacity(m * n);
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        for t in 1..n {
            let child = NodeId::new(t);
            let quota = m.min(t);
            chosen.clear();
            while chosen.len() < quota {
                let candidate = rng.gen_range(0..t);
                if !chosen.contains(&candidate) {
                    chosen.push(candidate);
                }
            }
            for &target in &chosen {
                trace.push(AttachmentRecord {
                    child,
                    father: NodeId::new(target),
                    kind: AttachmentKind::Uniform,
                });
            }
        }
        Ok(UniformAttachment { trace, n })
    }

    /// The attachment history: one record per edge, pointing newer →
    /// older. This is the graph's only edge store.
    pub fn trace(&self) -> &AttachmentTrace {
        &self.trace
    }

    /// Builds the unoriented view searching takes place in.
    pub fn undirected(&self) -> UndirectedCsr {
        UndirectedCsr::from_edges(self.n, self.trace.edges()).expect("targets are older vertices")
    }

    /// The degree sequence of [`UniformAttachment::undirected`], counted
    /// from the trace without building the graph.
    pub fn degrees(&self) -> Vec<usize> {
        self.trace.degrees(self.n, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;
    use nonsearch_graph::{is_connected, GraphProperties};

    #[test]
    fn tree_for_m1() {
        let mut rng = rng_from_seed(1);
        let ua = UniformAttachment::sample(100, 1, &mut rng).unwrap();
        assert!(ua.undirected().is_tree());
        assert_eq!(ua.trace().len(), 99);
    }

    #[test]
    fn m_edges_once_enough_vertices_exist() {
        let mut rng = rng_from_seed(2);
        let ua = UniformAttachment::sample(50, 3, &mut rng).unwrap();
        let mut out_degree = [0usize; 51];
        for r in ua.trace() {
            out_degree[r.child.label()] += 1;
        }
        // Vertex 2 can only reach 1 older vertex, vertex 3 two, then 3 each.
        assert_eq!(out_degree[2], 1);
        assert_eq!(out_degree[3], 2);
        assert!(out_degree[4..].iter().all(|&d| d == 3));
        assert!(is_connected(&ua.undirected()));
        assert_eq!(ua.undirected().parallel_edge_count(), 0);
    }

    #[test]
    fn fathers_are_roughly_uniform() {
        // For a random recursive tree the father of vertex n is uniform
        // on [1, n−1]; check the mean over many trials.
        let mut rng = rng_from_seed(3);
        let trials = 4000;
        let n = 20;
        let total: usize = (0..trials)
            .map(|_| {
                let ua = UniformAttachment::sample(n, 1, &mut rng).unwrap();
                ua.trace().father_of_label(n).unwrap().label()
            })
            .sum();
        let mean = total as f64 / trials as f64;
        let expect = (1 + (n - 1)) as f64 / 2.0; // uniform on 1..=19 → 10
        assert!((mean - expect).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn validation() {
        let mut rng = rng_from_seed(4);
        assert!(UniformAttachment::sample(10, 0, &mut rng).is_err());
        assert!(UniformAttachment::sample(1, 1, &mut rng).is_err());
    }

    #[test]
    fn determinism_per_seed() {
        let a = UniformAttachment::sample(70, 2, &mut rng_from_seed(5)).unwrap();
        let b = UniformAttachment::sample(70, 2, &mut rng_from_seed(5)).unwrap();
        assert_eq!(a.undirected(), b.undirected());
        assert_eq!(a.trace(), b.trace());
    }
}
