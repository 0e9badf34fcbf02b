//! The Barabási–Albert preferential-attachment model.
//!
//! The classic evolving scale-free model \[BA99\]: each new vertex sends
//! `m` edges to existing vertices chosen proportionally to **total
//! degree**. Included as the baseline the paper's conclusion discusses
//! (its max degree grows like `t^{1/2}`, too large for the strong-model
//! bound to bite).

use crate::{AttachmentKind, AttachmentRecord, AttachmentTrace, GeneratorError, Result};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::Rng;

/// A sampled Barabási–Albert graph with construction provenance.
///
/// The seed is a star on `m + 1` vertices (vertices `2..=m+1` each point
/// at vertex 1), after which every arriving vertex draws `m` distinct
/// targets proportionally to total degree. Self-loops never occur;
/// duplicate targets are redrawn.
///
/// The trace is the graph's only edge store. Degree-proportional draws
/// read it as an urn of `2·|trace|` tickets, one per edge endpoint:
/// ticket `i` is record `i / 2`'s child if `i` is even, its father if odd.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, BarabasiAlbert};
///
/// let mut rng = rng_from_seed(1);
/// let ba = BarabasiAlbert::sample(100, 2, &mut rng)?;
/// let g = ba.undirected();
/// assert_eq!(g.node_count(), 100);
/// // Seed star has m = 2 edges; each of the 97 later vertices adds 2.
/// assert_eq!(g.edge_count(), 2 + 97 * 2);
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BarabasiAlbert {
    trace: AttachmentTrace,
    n: usize,
}

impl BarabasiAlbert {
    /// Samples a BA graph on `n` vertices with `m ≥ 1` edges per arrival.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `m == 0` and
    /// [`GeneratorError::TooSmall`] if `n < m + 2`.
    pub fn sample<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<BarabasiAlbert> {
        if m == 0 {
            return Err(GeneratorError::invalid("m", 0usize, "a positive integer"));
        }
        if n < m + 2 {
            return Err(GeneratorError::TooSmall {
                requested: n,
                minimum: m + 2,
            });
        }
        let mut trace = AttachmentTrace::with_capacity(m * n);

        let hub = NodeId::new(0);
        for leaf in 1..=m {
            trace.push(AttachmentRecord {
                child: NodeId::new(leaf),
                father: hub,
                kind: AttachmentKind::Seed,
            });
        }

        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        for index in (m + 1)..n {
            let child = NodeId::new(index);
            targets.clear();
            // Draw m distinct targets ∝ degree; duplicates are redrawn,
            // which conditions the law on distinctness (the standard
            // "BA without multi-edges" variant).
            let tickets = 2 * trace.len();
            while targets.len() < m {
                let ticket = rng.gen_range(0..tickets);
                let record = trace.records()[ticket / 2];
                let candidate = if ticket % 2 == 0 {
                    record.child
                } else {
                    record.father
                };
                if !targets.contains(&candidate) {
                    targets.push(candidate);
                }
            }
            for &father in &targets {
                trace.push(AttachmentRecord {
                    child,
                    father,
                    kind: AttachmentKind::Preferential,
                });
            }
        }

        Ok(BarabasiAlbert { trace, n })
    }

    /// The attachment history: one record per edge, pointing newer →
    /// older.
    pub fn trace(&self) -> &AttachmentTrace {
        &self.trace
    }

    /// Builds the unoriented view searching takes place in.
    pub fn undirected(&self) -> UndirectedCsr {
        UndirectedCsr::from_edges(self.n, self.trace.edges()).expect("targets are older vertices")
    }

    /// The degree sequence of [`BarabasiAlbert::undirected`], counted
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
    fn shape_invariants() {
        let mut rng = rng_from_seed(1);
        let ba = BarabasiAlbert::sample(200, 3, &mut rng).unwrap();
        let und = ba.undirected();
        assert_eq!(und.node_count(), 200);
        assert_eq!(und.edge_count(), 3 + (200 - 4) * 3);
        assert!(is_connected(&und));
        assert_eq!(und.self_loop_count(), 0);
        // Distinct targets per arrival: no parallel edges from one child.
        assert_eq!(und.parallel_edge_count(), 0);
    }

    #[test]
    fn m1_gives_a_tree() {
        let mut rng = rng_from_seed(2);
        let ba = BarabasiAlbert::sample(150, 1, &mut rng).unwrap();
        assert!(ba.undirected().is_tree());
    }

    #[test]
    fn min_degree_is_m() {
        let mut rng = rng_from_seed(3);
        let ba = BarabasiAlbert::sample(120, 2, &mut rng).unwrap();
        let und = ba.undirected();
        let min = und.nodes().map(|v| und.degree(v)).min().unwrap();
        assert!(min >= 2);
    }

    #[test]
    fn rich_get_richer() {
        // The hub (vertex 1) should end up far above the median degree.
        // The hub degree of a single BA sample is heavy-tailed (it
        // converges in distribution, not in probability), so average a
        // few seeds rather than betting on one stream.
        let seeds = 0..8u64;
        let mut hub_total = 0usize;
        let mut median_max = 0usize;
        for seed in seeds.clone() {
            let ba = BarabasiAlbert::sample(2000, 1, &mut rng_from_seed(seed)).unwrap();
            let und = ba.undirected();
            hub_total += und.degree(NodeId::from_label(1));
            let mut degrees: Vec<usize> = und.nodes().map(|v| und.degree(v)).collect();
            degrees.sort_unstable();
            median_max = median_max.max(degrees[degrees.len() / 2]);
        }
        let hub_mean = hub_total / seeds.clone().count();
        assert!(
            hub_mean > 10 * median_max,
            "mean hub degree {hub_mean} vs max median {median_max}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = BarabasiAlbert::sample(90, 2, &mut rng_from_seed(5)).unwrap();
        let b = BarabasiAlbert::sample(90, 2, &mut rng_from_seed(5)).unwrap();
        assert_eq!(a.undirected(), b.undirected());
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn validation() {
        let mut rng = rng_from_seed(6);
        assert!(BarabasiAlbert::sample(10, 0, &mut rng).is_err());
        assert!(BarabasiAlbert::sample(3, 2, &mut rng).is_err());
        assert!(BarabasiAlbert::sample(4, 2, &mut rng).is_ok());
    }

    #[test]
    fn trace_has_one_record_per_edge() {
        let mut rng = rng_from_seed(7);
        let ba = BarabasiAlbert::sample(60, 2, &mut rng).unwrap();
        assert_eq!(ba.trace().len(), ba.undirected().edge_count());
    }
}
