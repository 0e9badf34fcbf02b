//! The one measured search trial: fetch the trial's graphs, race every
//! lane's searcher on them, harvest the counters.
//!
//! Every search experiment measures the same thing — how many oracle
//! requests a local searcher needs to find the newest vertex — so all
//! of them run this body through the engine runner: certification
//! sweeps (one graph, the whole searcher suite), the null-model
//! comparison (an original and a rewired graph, two searchers each),
//! and the single-searcher weak and strong cells. What differs is
//! passed in: the oracle (weak or strong), how the graphs are fetched,
//! and how a graph becomes a search task.

use nonsearch_engine::{TrialMeasure, TrialObs};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::UndirectedCsr;
use nonsearch_obs::{PhaseClock, PhaseTimes};
use nonsearch_search::{SearchOutcome, SearchScratch, SearchTask, StrongSearcher, WeakSearcher};
use rand::RngCore;
use std::sync::Arc;

/// The oracle a lane's searchers run against: `run_weak_in` for
/// [`WeakSearcher`]s, `run_strong_in` for [`StrongSearcher`]s.
pub type Oracle<S> = fn(
    &mut SearchScratch,
    &UndirectedCsr,
    &SearchTask,
    &mut S,
    &mut dyn RngCore,
) -> nonsearch_search::Result<SearchOutcome>;

/// A pooled searcher's cumulative frontier-rescan counter, which the
/// trial body harvests per lane.
pub trait Rescans {
    /// Resolved edges skipped by frontier cursor scans so far.
    fn frontier_rescans(&self) -> u64;
}

impl Rescans for dyn WeakSearcher {
    fn frontier_rescans(&self) -> u64 {
        WeakSearcher::frontier_rescans(self)
    }
}

impl Rescans for dyn StrongSearcher {
    fn frontier_rescans(&self) -> u64 {
        StrongSearcher::frontier_rescans(self)
    }
}

/// A worker's reusable trial state: one search scratch plus one pooled
/// searcher per lane, built once per worker and reset by every search,
/// so steady-state trials stay allocation-free and bit-identical to
/// fresh-state runs.
pub struct TrialPool<S: ?Sized> {
    /// The oracle scratch every lane's search reuses.
    scratch: SearchScratch,
    /// One searcher per lane, in lane order.
    searchers: Vec<Box<S>>,
}

impl<S: ?Sized> TrialPool<S> {
    /// A pool racing `searchers`, one per lane.
    pub fn new(searchers: Vec<Box<S>>) -> TrialPool<S> {
        TrialPool {
            scratch: SearchScratch::new(),
            searchers,
        }
    }
}

/// Measures one trial and returns one measurement per lane.
///
/// `fetch` returns the trial's `G` graphs, charging its own time to the
/// generate or load phase ([`PhaseTimes::time_fetch`]). The pool's
/// searchers split evenly across the graphs: lane `g × (lanes / G) + s`
/// runs searcher `s` of graph `g`'s share on `graphs[g]`, through
/// `oracle`, on the task `task(graphs[g])`, drawing from child stream
/// `1 + lane` of `trial_seeds` (stream `0` is the graph's own). The race
/// is charged to the search phase and the counter sweep to harvest.
///
/// Counter deltas land in `obs.metrics`: requests and discoveries off
/// the search outcomes, frontier rescans off each searcher's cumulative
/// counter, edge resolutions and scratch resets off the pooled view's.
/// Reading counters and clocks never perturbs a search, so measured
/// trials stay bit-identical to bare ones.
///
/// # Panics
///
/// Panics if the lane count is not a multiple of `G`, or if a searcher
/// violates the oracle protocol.
pub fn measure_trial<S, const G: usize>(
    pool: &mut TrialPool<S>,
    obs: &mut TrialObs,
    oracle: Oracle<S>,
    fetch: impl FnOnce(&mut PhaseTimes) -> [Arc<UndirectedCsr>; G],
    task: impl Fn(&UndirectedCsr) -> SearchTask,
    trial_seeds: &SeedSequence,
) -> Vec<TrialMeasure>
where
    S: Rescans + ?Sized,
{
    let graphs = fetch(&mut obs.phases);
    let TrialPool { scratch, searchers } = pool;
    assert!(
        G > 0 && !searchers.is_empty() && searchers.len() % G == 0,
        "{} lanes do not split across {G} graphs",
        searchers.len()
    );
    let share = searchers.len() / G;
    let resolutions_before = scratch.view().edge_resolutions();
    let resets_before = scratch.view().resets();
    let m = &mut obs.metrics;
    let mut clock = PhaseClock::start();
    let mut measures = Vec::with_capacity(searchers.len());
    let mut stream = 0u64;
    for (graph, lanes) in graphs.iter().zip(searchers.chunks_mut(share)) {
        let task = task(graph);
        for searcher in lanes {
            stream += 1;
            let rescans_before = searcher.frontier_rescans();
            let mut rng = trial_seeds.child_rng(stream);
            let outcome = oracle(scratch, graph, &task, &mut **searcher, &mut rng)
                .expect("suite searchers never violate the protocol");
            m.requests += outcome.requests as u64;
            m.discoveries += outcome.discovered as u64;
            m.frontier_rescans += searcher.frontier_rescans() - rescans_before;
            measures.push(TrialMeasure::new(outcome.requests as f64, outcome.found));
        }
    }
    obs.phases.search_ns += clock.lap_ns();
    m.edge_resolutions += scratch.view().edge_resolutions() - resolutions_before;
    m.scratch_resets += scratch.view().resets() - resets_before;
    obs.phases.harvest_ns += clock.lap_ns();
    measures
}
