//! Kleinberg's greedy geographic routing on the small-world lattice.
//!
//! This is the *positive* contrast in the paper's introduction: with
//! lattice coordinates as labels (a knowledge model richer than the
//! strong model — each vertex knows its neighbors' positions), greedy
//! routing takes `O(log² n)` steps when `r = 2` on a 2-D grid and
//! polynomially many otherwise \[Kle00\].

use nonsearch_generators::KleinbergGrid;
use nonsearch_graph::NodeId;

/// Result of one greedy route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyRouteOutcome {
    /// `true` if the target was reached.
    pub reached: bool,
    /// Hops taken (edge traversals).
    pub steps: usize,
    /// `true` if routing stopped because no neighbor improved the
    /// distance (cannot happen on a full lattice, kept for safety).
    pub stuck: bool,
}

/// Routes greedily from `start` to `target`: each hop moves to the
/// neighbor closest (in Manhattan distance) to the target, stopping at
/// `max_steps`.
///
/// # Panics
///
/// Panics if `start` or `target` is outside the grid.
pub fn greedy_route(
    grid: &KleinbergGrid,
    start: NodeId,
    target: NodeId,
    max_steps: usize,
) -> GreedyRouteOutcome {
    let graph = grid.graph();
    assert!(start.index() < graph.node_count(), "start outside grid");
    assert!(target.index() < graph.node_count(), "target outside grid");
    let mut current = start;
    let mut steps = 0;
    while current != target {
        if steps >= max_steps {
            return GreedyRouteOutcome {
                reached: false,
                steps,
                stuck: false,
            };
        }
        let here = grid.manhattan(current, target);
        let best = graph
            .neighbors(current)
            .min_by_key(|&v| grid.manhattan(v, target))
            .expect("lattice vertices have neighbors");
        if grid.manhattan(best, target) >= here {
            return GreedyRouteOutcome {
                reached: false,
                steps,
                stuck: true,
            };
        }
        current = best;
        steps += 1;
    }
    GreedyRouteOutcome {
        reached: true,
        steps,
        stuck: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_generators::{rng_from_seed, KleinbergGrid};

    #[test]
    fn routes_on_bare_lattice_take_manhattan_distance() {
        let mut rng = rng_from_seed(1);
        let grid = KleinbergGrid::sample(8, 2.0, 0, &mut rng).unwrap();
        let a = NodeId::new(0);
        let b = NodeId::new(7 * 8 + 7);
        let o = greedy_route(&grid, a, b, 10_000);
        assert!(o.reached);
        assert_eq!(o.steps, 14); // exactly the Manhattan distance
    }

    #[test]
    fn long_range_links_only_help() {
        let mut rng = rng_from_seed(2);
        let grid = KleinbergGrid::sample(16, 2.0, 2, &mut rng).unwrap();
        let a = NodeId::new(0);
        let b = NodeId::new(15 * 16 + 15);
        let o = greedy_route(&grid, a, b, 10_000);
        assert!(o.reached);
        assert!(o.steps <= 30, "greedy can never exceed Manhattan distance");
    }

    #[test]
    fn zero_distance_routes_instantly() {
        let mut rng = rng_from_seed(3);
        let grid = KleinbergGrid::sample(4, 1.0, 1, &mut rng).unwrap();
        let v = NodeId::new(2 * 4 + 2);
        let o = greedy_route(&grid, v, v, 10);
        assert!(o.reached);
        assert_eq!(o.steps, 0);
    }

    #[test]
    fn step_budget_respected() {
        let mut rng = rng_from_seed(4);
        let grid = KleinbergGrid::sample(10, 2.0, 0, &mut rng).unwrap();
        let a = NodeId::new(0);
        let b = NodeId::new(9 * 10 + 9);
        let o = greedy_route(&grid, a, b, 3);
        assert!(!o.reached);
        assert_eq!(o.steps, 3);
    }

    #[test]
    fn never_stuck_on_full_lattice() {
        let mut rng = rng_from_seed(5);
        let grid = KleinbergGrid::sample(6, 0.5, 1, &mut rng).unwrap();
        for s in 0..36 {
            let o = greedy_route(&grid, NodeId::new(s), NodeId::new(35 - s), 1000);
            assert!(o.reached);
            assert!(!o.stuck);
        }
    }
}
