//! Shortest-path distances, average path length, and diameters.
//!
//! The paper's conclusion contrasts its `Ω(√n)` search bound with "the
//! logarithmic diameter of such graphs, proved in expectation and with
//! high probability" — these helpers measure that logarithmic growth.

use nonsearch_graph::{bfs_distances, NodeId, UndirectedCsr};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Errors from distance computations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistanceError {
    /// The graph has no vertices.
    EmptyGraph,
    /// The graph is disconnected, so the requested metric is undefined.
    Disconnected,
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::EmptyGraph => write!(f, "graph has no vertices"),
            DistanceError::Disconnected => {
                write!(f, "graph is disconnected; distances are undefined")
            }
        }
    }
}

impl Error for DistanceError {}

/// Eccentricity of `v`: the largest BFS distance from `v`.
///
/// # Errors
///
/// Returns [`DistanceError::Disconnected`] if some vertex is unreachable.
///
/// # Panics
///
/// Panics if `v` is out of bounds.
fn eccentricity(graph: &UndirectedCsr, v: NodeId) -> Result<u32, DistanceError> {
    if graph.node_count() == 0 {
        return Err(DistanceError::EmptyGraph);
    }
    let dist = bfs_distances(graph, v);
    let mut ecc = 0;
    for d in dist {
        match d {
            Some(x) => ecc = ecc.max(x),
            None => return Err(DistanceError::Disconnected),
        }
    }
    Ok(ecc)
}

/// Exact diameter by all-pairs BFS — O(n·m), fine for graphs up to a few
/// tens of thousands of edges.
///
/// # Errors
///
/// Returns [`DistanceError::EmptyGraph`] or [`DistanceError::Disconnected`].
pub fn diameter_exact(graph: &UndirectedCsr) -> Result<u32, DistanceError> {
    if graph.node_count() == 0 {
        return Err(DistanceError::EmptyGraph);
    }
    let mut best = 0;
    for v in graph.nodes() {
        best = best.max(eccentricity(graph, v)?);
    }
    Ok(best)
}

/// Diameter lower bound by the double-sweep heuristic: BFS from `start`,
/// then BFS from the farthest vertex found. Exact on trees; a lower bound
/// in general, at a cost of two BFS traversals.
///
/// # Errors
///
/// Returns [`DistanceError::EmptyGraph`] or [`DistanceError::Disconnected`].
///
/// # Panics
///
/// Panics if `start` is out of bounds.
pub fn diameter_lower_bound_double_sweep(
    graph: &UndirectedCsr,
    start: NodeId,
) -> Result<u32, DistanceError> {
    if graph.node_count() == 0 {
        return Err(DistanceError::EmptyGraph);
    }
    let first = bfs_distances(graph, start);
    let mut far = start;
    let mut far_d = 0;
    for (i, d) in first.iter().enumerate() {
        match d {
            Some(x) => {
                if *x > far_d {
                    far_d = *x;
                    far = NodeId::new(i);
                }
            }
            None => return Err(DistanceError::Disconnected),
        }
    }
    eccentricity(graph, far)
}

/// Average shortest-path distance estimated from `sources` random BFS
/// roots (exact if `sources ≥ n`). Distances from each sampled root to
/// every other vertex enter the average.
///
/// # Errors
///
/// Returns [`DistanceError::EmptyGraph`] or [`DistanceError::Disconnected`].
pub fn average_distance<R: Rng + ?Sized>(
    graph: &UndirectedCsr,
    sources: usize,
    rng: &mut R,
) -> Result<f64, DistanceError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(DistanceError::EmptyGraph);
    }
    if n == 1 {
        return Ok(0.0);
    }
    let roots: Vec<NodeId> = if sources >= n {
        graph.nodes().collect()
    } else {
        (0..sources)
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect()
    };
    let mut total = 0u64;
    let mut pairs = 0u64;
    for root in roots {
        for d in bfs_distances(graph, root) {
            match d {
                Some(x) => {
                    total += x as u64;
                    pairs += 1;
                }
                None => return Err(DistanceError::Disconnected),
            }
        }
        pairs -= 1; // exclude the root-to-itself zero
    }
    Ok(total as f64 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    #[test]
    fn path_metrics() {
        let g = path(6);
        assert_eq!(eccentricity(&g, NodeId::new(0)).unwrap(), 5);
        assert_eq!(eccentricity(&g, NodeId::new(3)).unwrap(), 3);
        assert_eq!(diameter_exact(&g).unwrap(), 5);
        assert_eq!(
            diameter_lower_bound_double_sweep(&g, NodeId::new(3)).unwrap(),
            5
        );
    }

    #[test]
    fn cycle_diameter() {
        let g = UndirectedCsr::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        assert_eq!(diameter_exact(&g).unwrap(), 3);
        let lb = diameter_lower_bound_double_sweep(&g, NodeId::new(0)).unwrap();
        assert!(lb <= 3);
    }

    #[test]
    fn disconnected_is_an_error() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(
            eccentricity(&g, NodeId::new(0)),
            Err(DistanceError::Disconnected)
        );
        assert_eq!(diameter_exact(&g), Err(DistanceError::Disconnected));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            average_distance(&g, 2, &mut rng),
            Err(DistanceError::Disconnected)
        );
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = UndirectedCsr::from_edges(0, []).unwrap();
        assert_eq!(diameter_exact(&g), Err(DistanceError::EmptyGraph));
    }

    #[test]
    fn exact_average_distance_on_path() {
        // Path on 3 vertices: pairs (0,1)=1 (0,2)=2 (1,2)=1 → mean 4/3.
        let g = path(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let avg = average_distance(&g, 10, &mut rng).unwrap();
        assert!((avg - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_average_is_close_to_exact() {
        let g = path(40);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let exact = average_distance(&g, 1000, &mut rng).unwrap();
        let sampled = average_distance(&g, 10, &mut rng).unwrap();
        assert!(
            (sampled - exact).abs() / exact < 0.35,
            "{sampled} vs {exact}"
        );
    }

    #[test]
    fn single_vertex() {
        let g = UndirectedCsr::from_edges(1, []).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(average_distance(&g, 5, &mut rng).unwrap(), 0.0);
        assert_eq!(diameter_exact(&g).unwrap(), 0);
    }
}
