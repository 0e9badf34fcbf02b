//! Search execution loops for both knowledge models.
//!
//! The scratch-threading forms ([`run_weak_in`], [`run_strong_in`])
//! borrow a caller-owned [`SearchScratch`] — what the Monte-Carlo
//! engines use so each worker allocates once per graph size and reuses
//! it across all its trials. [`run_weak`] is the one-shot weak form with
//! a private scratch per call; a fresh scratch and a reused one are
//! observationally identical (same request sequences, same RNG
//! consumption).

use crate::{
    SearchError, SearchOutcome, SearchScratch, SearchTask, StrongSearchState, StrongSearcher,
    SuccessCriterion, WeakSearchState, WeakSearcher,
};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::RngCore;

/// Checks whether the objective condition already holds for a newly
/// discovered vertex. Success is adjudicated by the runner from the true
/// graph, so algorithms need not notice their own success — the paper's
/// cost measure is requests *until the target (or a neighbor) is reached*,
/// regardless of the searcher's bookkeeping.
fn satisfies(graph: &UndirectedCsr, task: &SearchTask, vertex: NodeId) -> bool {
    match task.criterion {
        SuccessCriterion::DiscoverTarget => vertex == task.target,
        SuccessCriterion::ReachNeighbor => {
            vertex == task.target || graph.is_adjacent(vertex, task.target)
        }
    }
}

fn validate_task(graph: &UndirectedCsr, task: &SearchTask) -> crate::Result<()> {
    for v in [task.start, task.target] {
        if v.index() >= graph.node_count() {
            return Err(SearchError::TaskOutOfBounds {
                vertex: v,
                node_count: graph.node_count(),
            });
        }
    }
    Ok(())
}

/// Runs a weak-model search to completion with a private, per-call
/// [`SearchScratch`].
///
/// Convenient for one-off searches; hot loops should hold a scratch and
/// call [`run_weak_in`] instead. See there for the loop contract.
///
/// # Errors
///
/// Returns [`SearchError`] on task-validation failures or protocol
/// violations by the algorithm.
pub fn run_weak<S: WeakSearcher + ?Sized>(
    graph: &UndirectedCsr,
    task: &SearchTask,
    searcher: &mut S,
    rng: &mut dyn RngCore,
) -> crate::Result<SearchOutcome> {
    run_weak_in(&mut SearchScratch::new(), graph, task, searcher, rng)
}

/// Runs a weak-model search to completion on a caller-owned scratch.
///
/// The loop: ask `searcher` for a request, execute it against the oracle,
/// feed the answer back via [`WeakSearcher::observe`], and stop when the
/// success criterion first holds, the budget runs out, or the searcher
/// gives up. The searcher is [`reset`](WeakSearcher::reset) and the
/// scratch cleared before the run, so one instance of each can be
/// reused across trials with outcomes identical to fresh state.
///
/// # Errors
///
/// Returns [`SearchError`] on task-validation failures or protocol
/// violations by the algorithm.
pub fn run_weak_in<S: WeakSearcher + ?Sized>(
    scratch: &mut SearchScratch,
    graph: &UndirectedCsr,
    task: &SearchTask,
    searcher: &mut S,
    rng: &mut dyn RngCore,
) -> crate::Result<SearchOutcome> {
    validate_task(graph, task)?;
    searcher.reset();
    searcher.reserve(graph.node_count(), graph.edge_count());
    let mut state = WeakSearchState::new_in(scratch, graph, task.start)?;
    if satisfies(graph, task, task.start) {
        return Ok(SearchOutcome::success(0, state.view().len()));
    }
    loop {
        if let Some(budget) = task.budget {
            if state.requests() >= budget {
                return Ok(SearchOutcome {
                    found: false,
                    requests: state.requests(),
                    discovered: state.view().len(),
                    gave_up: false,
                    budget_exhausted: true,
                });
            }
        }
        let Some((u, e)) = searcher.next_request(task, state.view(), rng) else {
            return Ok(SearchOutcome {
                found: false,
                requests: state.requests(),
                discovered: state.view().len(),
                gave_up: true,
                budget_exhausted: false,
            });
        };
        let revealed = state.request(u, e)?;
        searcher.observe((u, e), revealed);
        if satisfies(graph, task, revealed) {
            return Ok(SearchOutcome::success(state.requests(), state.view().len()));
        }
    }
}

/// Runs a strong-model search to completion on a caller-owned scratch
/// (same contract as [`run_weak_in`], counting strong requests).
///
/// # Errors
///
/// Returns [`SearchError`] on task-validation failures or protocol
/// violations by the algorithm.
pub fn run_strong_in<S: StrongSearcher + ?Sized>(
    scratch: &mut SearchScratch,
    graph: &UndirectedCsr,
    task: &SearchTask,
    searcher: &mut S,
    rng: &mut dyn RngCore,
) -> crate::Result<SearchOutcome> {
    validate_task(graph, task)?;
    searcher.reset();
    searcher.reserve(graph.node_count(), graph.edge_count());
    let mut state = StrongSearchState::new_in(scratch, graph, task.start)?;
    if satisfies(graph, task, task.start) {
        return Ok(SearchOutcome::success(0, state.view().len()));
    }
    loop {
        if let Some(budget) = task.budget {
            if state.requests() >= budget {
                return Ok(SearchOutcome {
                    found: false,
                    requests: state.requests(),
                    discovered: state.view().len(),
                    gave_up: false,
                    budget_exhausted: true,
                });
            }
        }
        let Some(u) = searcher.next_request(task, state.view(), rng) else {
            return Ok(SearchOutcome {
                found: false,
                requests: state.requests(),
                discovered: state.view().len(),
                gave_up: true,
                budget_exhausted: false,
            });
        };
        // The answer slice borrows the oracle's reusable buffer; the
        // block scopes that borrow so the outcome can read the state.
        let found = {
            let revealed = state.request(u)?;
            searcher.observe(u, revealed);
            revealed.iter().any(|&v| satisfies(graph, task, v))
        };
        if found {
            return Ok(SearchOutcome::success(state.requests(), state.view().len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BfsFlood, StrongBfs};
    use nonsearch_graph::UndirectedCsr;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path(n: usize) -> UndirectedCsr {
        UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    #[test]
    fn trivial_start_is_free() {
        let g = path(4);
        let task = SearchTask::new(NodeId::new(2), NodeId::new(2));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 0);
    }

    #[test]
    fn neighbor_criterion_can_be_free_too() {
        let g = path(4);
        let task = SearchTask::new(NodeId::new(1), NodeId::new(2))
            .with_criterion(SuccessCriterion::ReachNeighbor);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 0);
    }

    #[test]
    fn budget_stops_the_run() {
        let g = path(50);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(49)).with_budget(5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).unwrap();
        assert!(!o.found);
        assert!(o.budget_exhausted);
        assert_eq!(o.requests, 5);
    }

    #[test]
    fn weak_bfs_walks_the_path() {
        let g = path(10);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(9));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let o = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).unwrap();
        assert!(o.found);
        assert_eq!(o.requests, 9); // one request per path edge
    }

    #[test]
    fn strong_bfs_walks_the_path_too() {
        let g = path(10);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(9));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let o = run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongBfs::new(),
            &mut rng,
        )
        .unwrap();
        assert!(o.found);
        // Expanding vertices 0..=8 reveals vertex 9.
        assert_eq!(o.requests, 9);
    }

    #[test]
    fn out_of_bounds_task_rejected() {
        let g = path(3);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(9));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).is_err());
        assert!(run_strong_in(
            &mut SearchScratch::new(),
            &g,
            &task,
            &mut StrongBfs::new(),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn scratch_runs_match_fresh_runs() {
        let g = path(12);
        let task = SearchTask::new(NodeId::new(0), NodeId::new(11));
        let mut scratch = SearchScratch::new();
        let mut flood = BfsFlood::new();
        let mut strong = StrongBfs::new();
        for _ in 0..3 {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let pooled = run_weak_in(&mut scratch, &g, &task, &mut flood, &mut rng).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let fresh = run_weak(&g, &task, &mut BfsFlood::new(), &mut rng).unwrap();
            assert_eq!(pooled, fresh);

            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let pooled = run_strong_in(&mut scratch, &g, &task, &mut strong, &mut rng).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let fresh = run_strong_in(
                &mut SearchScratch::new(),
                &g,
                &task,
                &mut StrongBfs::new(),
                &mut rng,
            )
            .unwrap();
            assert_eq!(pooled, fresh);
        }
    }
}
