//! The standard searcher suite used by certification and experiments.

use crate::{
    AvoidingWalk, BfsFlood, DfsWalk, GreedyIdProximity, HighDegreeGreedy, LookaheadWalk,
    OldestFirst, RandomWalk, RestartingWalk, SimulatedStrong, StrongGreedyId, StrongHighDegree,
    WeakSearcher,
};

/// Enumerates the weak-model searchers the experiments compare.
///
/// Lower-bound claims quantify over *all* local algorithms; empirically we
/// approximate that by taking the best of a diverse suite. `Simulated*`
/// variants run strong-model strategies through the paper's
/// strong-to-weak simulation.
///
/// # Example
///
/// ```
/// use nonsearch_search::SearcherKind;
///
/// let names: Vec<&str> = SearcherKind::all().iter().map(|k| k.name()).collect();
/// assert!(names.contains(&"high-degree"));
/// let mut searcher = SearcherKind::HighDegree.build();
/// assert_eq!(searcher.name(), "high-degree");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SearcherKind {
    /// Pure random walk.
    RandomWalk,
    /// Walk preferring unexplored edges.
    AvoidingWalk,
    /// Breadth-first flooding.
    BfsFlood,
    /// Depth-first exploration.
    Dfs,
    /// Adamic et al. high-degree greedy.
    HighDegree,
    /// Identity-proximity greedy.
    GreedyId,
    /// Oldest-vertex-first core seeking.
    OldestFirst,
    /// Greedy look-ahead walk on identity distance.
    LookaheadWalk,
    /// Random walk restarting at the source every 1000 steps.
    RestartingWalk,
    /// Strong-model high-degree greedy under weak simulation.
    SimStrongHighDegree,
    /// Strong-model identity greedy under weak simulation.
    SimStrongGreedyId,
}

impl SearcherKind {
    /// Every searcher in the suite.
    pub fn all() -> &'static [SearcherKind] {
        &[
            SearcherKind::RandomWalk,
            SearcherKind::AvoidingWalk,
            SearcherKind::BfsFlood,
            SearcherKind::Dfs,
            SearcherKind::HighDegree,
            SearcherKind::GreedyId,
            SearcherKind::OldestFirst,
            SearcherKind::LookaheadWalk,
            SearcherKind::RestartingWalk,
            SearcherKind::SimStrongHighDegree,
            SearcherKind::SimStrongGreedyId,
        ]
    }

    /// A fast subset for large sweeps: the informed strategies plus one
    /// walk (exhaustive floods scale linearly and only pad runtimes).
    pub fn informed() -> &'static [SearcherKind] {
        &[
            SearcherKind::AvoidingWalk,
            SearcherKind::HighDegree,
            SearcherKind::GreedyId,
            SearcherKind::OldestFirst,
            SearcherKind::LookaheadWalk,
            SearcherKind::SimStrongHighDegree,
        ]
    }

    /// The searcher's report name (matches
    /// [`WeakSearcher::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SearcherKind::RandomWalk => "random-walk",
            SearcherKind::AvoidingWalk => "avoiding-walk",
            SearcherKind::BfsFlood => "bfs-flood",
            SearcherKind::Dfs => "dfs",
            SearcherKind::HighDegree => "high-degree",
            SearcherKind::GreedyId => "greedy-id",
            SearcherKind::OldestFirst => "oldest-first",
            SearcherKind::LookaheadWalk => "lookahead-walk",
            SearcherKind::RestartingWalk => "restarting-walk",
            SearcherKind::SimStrongHighDegree => "sim-strong-high-degree",
            SearcherKind::SimStrongGreedyId => "sim-strong-greedy-id",
        }
    }

    /// Builds a fresh instance of the searcher.
    pub fn build(&self) -> Box<dyn WeakSearcher> {
        match self {
            SearcherKind::RandomWalk => Box::new(RandomWalk::new()),
            SearcherKind::AvoidingWalk => Box::new(AvoidingWalk::new()),
            SearcherKind::BfsFlood => Box::new(BfsFlood::new()),
            SearcherKind::Dfs => Box::new(DfsWalk::new()),
            SearcherKind::HighDegree => Box::new(HighDegreeGreedy::new()),
            SearcherKind::GreedyId => Box::new(GreedyIdProximity::new()),
            SearcherKind::OldestFirst => Box::new(OldestFirst::new()),
            SearcherKind::LookaheadWalk => Box::new(LookaheadWalk::new()),
            SearcherKind::RestartingWalk => Box::new(RestartingWalk::new(1000)),
            SearcherKind::SimStrongHighDegree => {
                Box::new(SimulatedStrong::new(StrongHighDegree::new()))
            }
            SearcherKind::SimStrongGreedyId => {
                Box::new(SimulatedStrong::new(StrongGreedyId::new()))
            }
        }
    }
}

impl std::fmt::Display for SearcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_weak, SearchTask};
    use nonsearch_graph::{NodeId, UndirectedCsr};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_kind_builds_and_runs() {
        let g = UndirectedCsr::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let task = SearchTask::new(NodeId::new(0), NodeId::new(5)).with_budget(10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for kind in SearcherKind::all() {
            let mut s = kind.build();
            assert_eq!(s.name(), kind.name());
            let o = run_weak(&g, &task, &mut *s, &mut rng).unwrap();
            assert!(o.found, "{kind} failed on the path");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SearcherKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SearcherKind::all().len());
    }

    #[test]
    fn informed_is_a_subset_of_all() {
        for k in SearcherKind::informed() {
            assert!(SearcherKind::all().contains(k));
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SearcherKind::RandomWalk.to_string(), "random-walk");
    }
}
