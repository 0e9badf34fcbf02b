//! Kleinberg's navigable small-world lattice.
//!
//! The paper's introduction contrasts scale-free graphs with Kleinberg's
//! model \[Kle00\], where a greedy distributed algorithm routes in
//! `O(log² n)` steps when long-range links follow the inverse-square law
//! (`r = 2` on a 2-D grid) and provably cannot for other exponents. We
//! implement the 2-D variant: an `s × s` grid with nearest-neighbor edges
//! plus `q` long-range links per vertex, each landing on `v` with
//! probability proportional to `d(u, v)^{−r}` (Manhattan distance).

use crate::{CumulativeSampler, GeneratorError, Result};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::Rng;

/// A position on the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GridCoord {
    /// Row, in `0..side`.
    row: usize,
    /// Column, in `0..side`.
    col: usize,
}

impl GridCoord {
    /// Manhattan (lattice) distance to `other`.
    fn manhattan(self, other: GridCoord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

/// A sampled Kleinberg small-world grid.
///
/// Vertex `v` sits at row `v.index() / side`, column `v.index() % side`.
/// The graph contains the `2·s·(s−1)` undirected lattice edges plus
/// `q` long-range edges per vertex (stored undirected; searching in this
/// workspace is always undirected, mirroring the paper's convention).
///
/// # Example
///
/// ```
/// use nonsearch_generators::{rng_from_seed, KleinbergGrid};
///
/// let mut rng = rng_from_seed(3);
/// let grid = KleinbergGrid::sample(10, 2.0, 1, &mut rng)?;
/// assert_eq!(grid.graph().node_count(), 100);
/// let (u, v) = (nonsearch_graph::NodeId::new(0), nonsearch_graph::NodeId::new(99));
/// assert_eq!(grid.manhattan(u, v), 18);
/// # Ok::<(), nonsearch_generators::GeneratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KleinbergGrid {
    graph: UndirectedCsr,
    side: usize,
}

impl KleinbergGrid {
    /// Samples an `side × side` grid with clustering exponent `r ≥ 0` and
    /// `links_per_node` long-range links per vertex.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::TooSmall`] if `side < 2` and
    /// [`GeneratorError::InvalidParameter`] if `r` is negative or not
    /// finite.
    pub fn sample<R: Rng + ?Sized>(
        side: usize,
        r: f64,
        links_per_node: usize,
        rng: &mut R,
    ) -> Result<KleinbergGrid> {
        if side < 2 {
            return Err(GeneratorError::TooSmall {
                requested: side,
                minimum: 2,
            });
        }
        if !r.is_finite() || r < 0.0 {
            return Err(GeneratorError::invalid("r", r, "a finite value ≥ 0"));
        }
        let n = side * side;
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(2 * n + links_per_node * n);

        // Lattice edges: right and down neighbor of each cell.
        for row in 0..side {
            for col in 0..side {
                let u = row * side + col;
                if col + 1 < side {
                    edges.push((u, u + 1));
                }
                if row + 1 < side {
                    edges.push((u, u + side));
                }
            }
        }

        // Distance distribution: a diamond of radius ℓ holds exactly 4ℓ
        // cells, so drawing ℓ ∝ 4ℓ^{1−r}, then a uniform diamond cell,
        // then rejecting off-grid cells yields P(v) ∝ d(u,v)^{−r} over
        // in-grid cells — Kleinberg's law restricted to the lattice.
        let max_dist = 2 * (side - 1);
        let weights: Vec<f64> = (1..=max_dist)
            .map(|l| 4.0 * (l as f64).powf(1.0 - r))
            .collect();
        let dist_sampler = CumulativeSampler::new(&weights).expect("positive weights");

        for u in 0..n {
            let (row, col) = (u / side, u % side);
            for _ in 0..links_per_node {
                let v = Self::sample_long_range(side, row, col, &dist_sampler, rng)?;
                edges.push((u, v.index()));
            }
        }

        Ok(KleinbergGrid {
            graph: UndirectedCsr::from_edges(n, edges).expect("lattice cells are vertices"),
            side,
        })
    }

    fn sample_long_range<R: Rng + ?Sized>(
        side: usize,
        row: usize,
        col: usize,
        dist_sampler: &CumulativeSampler,
        rng: &mut R,
    ) -> Result<NodeId> {
        const MAX_ATTEMPTS: usize = 100_000;
        for _ in 0..MAX_ATTEMPTS {
            let l = dist_sampler.sample(rng) + 1; // distance ℓ ≥ 1
            let t = rng.gen_range(0..4 * l);
            let (quadrant, o) = (t / l, (t % l) as isize);
            let li = l as isize;
            let (r0, c0) = (row as isize, col as isize);
            let (nr, nc) = match quadrant {
                0 => (r0 + o, c0 + li - o),
                1 => (r0 + li - o, c0 - o),
                2 => (r0 - o, c0 - li + o),
                _ => (r0 - li + o, c0 + o),
            };
            if nr >= 0 && nc >= 0 && (nr as usize) < side && (nc as usize) < side {
                return Ok(NodeId::new(nr as usize * side + nc as usize));
            }
        }
        Err(GeneratorError::RejectionBudgetExhausted {
            attempts: MAX_ATTEMPTS,
        })
    }

    /// The undirected graph (lattice plus long-range edges).
    pub fn graph(&self) -> &UndirectedCsr {
        &self.graph
    }

    /// Lattice position of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    fn coord(&self, v: NodeId) -> GridCoord {
        assert!(v.index() < self.side * self.side, "vertex out of bounds");
        GridCoord {
            row: v.index() / self.side,
            col: v.index() % self.side,
        }
    }

    /// Manhattan distance between two vertices.
    ///
    /// # Panics
    ///
    /// Panics if either vertex is out of bounds.
    pub fn manhattan(&self, u: NodeId, v: NodeId) -> usize {
        self.coord(u).manhattan(self.coord(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;
    use nonsearch_graph::{is_connected, GraphProperties};

    #[test]
    fn grid_shape() {
        let mut rng = rng_from_seed(1);
        let g = KleinbergGrid::sample(8, 2.0, 1, &mut rng).unwrap();
        assert_eq!(g.graph().node_count(), 64);
        // 2·s·(s−1) lattice edges + q·n long-range edges.
        assert_eq!(g.graph().edge_count(), 2 * 8 * 7 + 64);
        assert!(is_connected(g.graph()));
    }

    #[test]
    fn zero_long_range_links() {
        let mut rng = rng_from_seed(2);
        let g = KleinbergGrid::sample(5, 2.0, 0, &mut rng).unwrap();
        assert_eq!(g.graph().edge_count(), 2 * 5 * 4);
    }

    #[test]
    fn coords_roundtrip() {
        let mut rng = rng_from_seed(3);
        let g = KleinbergGrid::sample(6, 1.0, 0, &mut rng).unwrap();
        for i in 0..36 {
            let v = NodeId::new(i);
            assert_eq!(
                g.coord(v),
                GridCoord {
                    row: i / 6,
                    col: i % 6
                }
            );
        }
    }

    #[test]
    fn manhattan_distance_examples() {
        let mut rng = rng_from_seed(4);
        let g = KleinbergGrid::sample(4, 2.0, 0, &mut rng).unwrap();
        let corner = NodeId::new(0);
        let opposite = NodeId::new(3 * 4 + 3);
        assert_eq!(g.manhattan(corner, opposite), 6);
        assert_eq!(g.manhattan(corner, corner), 0);
    }

    #[test]
    fn long_range_links_never_self_loop() {
        let mut rng = rng_from_seed(5);
        let g = KleinbergGrid::sample(6, 0.0, 2, &mut rng).unwrap();
        assert_eq!(g.graph().self_loop_count(), 0);
    }

    #[test]
    fn larger_r_gives_shorter_links() {
        let mut rng = rng_from_seed(6);
        let mean_link_len = |r: f64, rng: &mut rand_chacha::ChaCha8Rng| {
            let g = KleinbergGrid::sample(20, r, 1, rng).unwrap();
            // Long-range edges are the last n edges inserted.
            let n = g.graph().node_count();
            let m = g.graph().edge_count();
            let total: usize = (m - n..m)
                .map(|i| {
                    let (u, v) = g
                        .graph()
                        .edge_endpoints(nonsearch_graph::EdgeId::new(i))
                        .unwrap();
                    g.manhattan(u, v)
                })
                .sum();
            total as f64 / n as f64
        };
        let uniform = mean_link_len(0.0, &mut rng);
        let steep = mean_link_len(3.0, &mut rng);
        assert!(
            steep < uniform,
            "r=3 links ({steep:.2}) should be shorter than r=0 links ({uniform:.2})"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = KleinbergGrid::sample(7, 2.0, 1, &mut rng_from_seed(7)).unwrap();
        let b = KleinbergGrid::sample(7, 2.0, 1, &mut rng_from_seed(7)).unwrap();
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn validation() {
        let mut rng = rng_from_seed(8);
        assert!(KleinbergGrid::sample(1, 2.0, 1, &mut rng).is_err());
        assert!(KleinbergGrid::sample(5, -1.0, 1, &mut rng).is_err());
        assert!(KleinbergGrid::sample(5, f64::NAN, 1, &mut rng).is_err());
    }
}
