//! The Molloy–Reed configuration model.
//!
//! Builds a random (multi)graph with a prescribed degree sequence by
//! pairing degree stubs uniformly at random — the "pure random graph"
//! model of the paper's related work, in which "the degrees of neighbors
//! are independent", in contrast to the evolving models.

use crate::{GeneratorError, Result};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// What to do with self-loops and parallel edges created by stub pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplificationPolicy {
    /// Keep the multigraph exactly as paired (degrees match exactly).
    Multigraph,
    /// Drop self-loops and duplicate edges ("erased" configuration
    /// model); degrees may shrink slightly.
    Erased,
    /// Re-pair from scratch until the graph is simple, giving the uniform
    /// distribution over simple graphs with the sequence.
    Reject {
        /// Maximum number of complete re-pairings to attempt.
        max_attempts: usize,
    },
}

/// A sampled configuration-model graph.
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, ConfigModel, SimplificationPolicy};
///
/// let degrees = vec![3, 2, 2, 1, 1, 1];
/// let mut rng = rng_from_seed(1);
/// let g = ConfigModel::sample(&degrees, SimplificationPolicy::Multigraph, &mut rng)?;
/// // Multigraph pairing preserves the degree sequence exactly.
/// let got: Vec<usize> = (0..6)
///     .map(|i| g.graph().degree(nonsearch_graph::NodeId::new(i)))
///     .collect();
/// assert_eq!(got, degrees);
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigModel {
    graph: UndirectedCsr,
}

impl ConfigModel {
    /// Samples a graph with the given degree sequence.
    ///
    /// # Errors
    ///
    /// * [`GeneratorError::InvalidDegreeSequence`] if the sequence is
    ///   empty, has an odd sum, or (for non-multigraph policies) contains
    ///   a degree ≥ n.
    /// * [`GeneratorError::RejectionBudgetExhausted`] if
    ///   [`SimplificationPolicy::Reject`] runs out of attempts.
    pub fn sample<R: Rng + ?Sized>(
        degrees: &[usize],
        policy: SimplificationPolicy,
        rng: &mut R,
    ) -> Result<ConfigModel> {
        if degrees.is_empty() {
            return Err(GeneratorError::InvalidDegreeSequence {
                reason: "empty degree sequence".into(),
            });
        }
        let stub_sum: usize = degrees.iter().sum();
        if stub_sum % 2 == 1 {
            return Err(GeneratorError::InvalidDegreeSequence {
                reason: format!("stub sum {stub_sum} is odd"),
            });
        }
        let n = degrees.len();
        if !matches!(policy, SimplificationPolicy::Multigraph) {
            if let Some(&bad) = degrees.iter().find(|&&d| d >= n) {
                return Err(GeneratorError::InvalidDegreeSequence {
                    reason: format!("degree {bad} ≥ n = {n} cannot be simple"),
                });
            }
        }

        let mut stubs: Vec<NodeId> = Vec::with_capacity(stub_sum);
        for (i, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                stubs.push(NodeId::new(i));
            }
        }

        let pair_once = |stubs: &mut Vec<NodeId>, rng: &mut R| -> Vec<(usize, usize)> {
            stubs.shuffle(rng);
            stubs
                .chunks_exact(2)
                .map(|c| (c[0].index(), c[1].index()))
                .collect()
        };

        let edges = match policy {
            SimplificationPolicy::Multigraph => pair_once(&mut stubs, rng),
            SimplificationPolicy::Erased => {
                let mut seen = HashSet::new();
                pair_once(&mut stubs, rng)
                    .into_iter()
                    .filter(|&(u, v)| u != v && seen.insert((u.min(v), u.max(v))))
                    .collect()
            }
            SimplificationPolicy::Reject { max_attempts } => {
                let mut found = None;
                for _ in 0..max_attempts {
                    let candidate = pair_once(&mut stubs, rng);
                    let mut seen = HashSet::new();
                    let simple = candidate
                        .iter()
                        .all(|&(u, v)| u != v && seen.insert((u.min(v), u.max(v))));
                    if simple {
                        found = Some(candidate);
                        break;
                    }
                }
                found.ok_or(GeneratorError::RejectionBudgetExhausted {
                    attempts: max_attempts,
                })?
            }
        };

        let graph = UndirectedCsr::from_edges(n, edges)
            .expect("stub endpoints are in range by construction");
        Ok(ConfigModel { graph })
    }

    /// The sampled undirected graph.
    pub fn graph(&self) -> &UndirectedCsr {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;
    use nonsearch_graph::GraphProperties;

    #[test]
    fn multigraph_preserves_degrees_exactly() {
        let degrees = vec![5, 4, 3, 2, 1, 1, 1, 1];
        let mut rng = rng_from_seed(1);
        let g = ConfigModel::sample(&degrees, SimplificationPolicy::Multigraph, &mut rng).unwrap();
        for (i, &d) in degrees.iter().enumerate() {
            assert_eq!(g.graph().degree(NodeId::new(i)), d);
        }
        assert_eq!(2 * g.graph().edge_count(), degrees.iter().sum::<usize>());
    }

    #[test]
    fn erased_graph_is_simple() {
        let degrees = vec![4; 20];
        let mut rng = rng_from_seed(2);
        let g = ConfigModel::sample(&degrees, SimplificationPolicy::Erased, &mut rng).unwrap();
        assert_eq!(g.graph().self_loop_count(), 0);
        assert_eq!(g.graph().parallel_edge_count(), 0);
        // Degrees never exceed the request.
        for (i, &d) in degrees.iter().enumerate() {
            assert!(g.graph().degree(NodeId::new(i)) <= d);
        }
    }

    #[test]
    fn reject_policy_yields_simple_graph_with_exact_degrees() {
        let degrees = vec![2, 2, 2, 2, 2, 2];
        let mut rng = rng_from_seed(3);
        let g = ConfigModel::sample(
            &degrees,
            SimplificationPolicy::Reject {
                max_attempts: 10_000,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(g.graph().self_loop_count(), 0);
        assert_eq!(g.graph().parallel_edge_count(), 0);
        for (i, &d) in degrees.iter().enumerate() {
            assert_eq!(g.graph().degree(NodeId::new(i)), d);
        }
    }

    #[test]
    fn reject_budget_can_exhaust() {
        // [3,3,1,1] passes the per-degree check but fails Erdős–Gallai:
        // no simple graph realizes it, so every pairing is rejected.
        let degrees = vec![3, 3, 1, 1];
        let mut rng = rng_from_seed(4);
        let err = ConfigModel::sample(
            &degrees,
            SimplificationPolicy::Reject { max_attempts: 50 },
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GeneratorError::RejectionBudgetExhausted { .. }
        ));
    }

    #[test]
    fn odd_sum_rejected() {
        let mut rng = rng_from_seed(5);
        let err = ConfigModel::sample(&[1, 1, 1], SimplificationPolicy::Multigraph, &mut rng)
            .unwrap_err();
        assert!(matches!(err, GeneratorError::InvalidDegreeSequence { .. }));
    }

    #[test]
    fn degree_at_least_n_rejected_for_simple() {
        let mut rng = rng_from_seed(6);
        assert!(ConfigModel::sample(&[3, 1, 1, 1], SimplificationPolicy::Erased, &mut rng).is_ok());
        assert!(ConfigModel::sample(
            &[4, 2, 1, 1],
            SimplificationPolicy::Reject { max_attempts: 10 },
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn empty_sequence_rejected() {
        let mut rng = rng_from_seed(7);
        assert!(ConfigModel::sample(&[], SimplificationPolicy::Multigraph, &mut rng).is_err());
    }

    #[test]
    fn determinism_per_seed() {
        let degrees = vec![3, 3, 2, 2, 1, 1];
        let a = ConfigModel::sample(
            &degrees,
            SimplificationPolicy::Multigraph,
            &mut rng_from_seed(8),
        )
        .unwrap();
        let b = ConfigModel::sample(
            &degrees,
            SimplificationPolicy::Multigraph,
            &mut rng_from_seed(8),
        )
        .unwrap();
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn zero_degree_vertices_allowed() {
        let degrees = vec![0, 2, 1, 1];
        let mut rng = rng_from_seed(9);
        let g = ConfigModel::sample(&degrees, SimplificationPolicy::Multigraph, &mut rng).unwrap();
        assert_eq!(g.graph().degree(NodeId::new(0)), 0);
    }
}
