//! The one measured search trial and the one searcher race: fetch the
//! trial's graphs, race every lane's searcher on them, harvest the
//! counters.
//!
//! Every search experiment measures the same thing — how many oracle
//! requests a local searcher needs to find the newest vertex — so all
//! of them run [`measure_trial`] through the engine runner. Most race
//! searchers on one graph per trial through [`search_cell`]: the
//! informed-suite sweeps (E1, E3, E6) and the single-searcher weak and
//! strong cells (E2, E13). What differs is passed in: the oracle (weak
//! or strong), how a graph becomes a search task, and which searchers
//! race.

use nonsearch_engine::{
    run_lanes_observed, CellObs, GraphSource, LaneAggregate, TrialMeasure, TrialObs,
};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::{NodeId, UndirectedCsr};
use nonsearch_obs::{PhaseClock, PhaseTimes, Tracer};
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
/// `oracle`, on the task `task(graphs[g])`, drawing from
/// `lane_rng(lane)` (most callers pass child stream `1 + lane` of the
/// trial seeds; stream `0` is the graph's own). The race is charged to
/// the search phase and the counter sweep to harvest.
///
/// Counter deltas land in `obs.metrics`: requests and discoveries off
/// the search outcomes, frontier rescans off each searcher's cumulative
/// counter, edge resolutions, slot reads and scratch resets off the
/// pooled view's.
/// Reading counters and clocks never perturbs a search, so measured
/// trials stay bit-identical to bare ones.
///
/// # Panics
///
/// Panics if the lane count is not a multiple of `G`, or if a searcher
/// violates the oracle protocol.
pub fn measure_trial<S, R, const G: usize>(
    pool: &mut TrialPool<S>,
    obs: &mut TrialObs,
    oracle: Oracle<S>,
    fetch: impl FnOnce(&mut PhaseTimes) -> [Arc<UndirectedCsr>; G],
    task: impl Fn(&UndirectedCsr) -> SearchTask,
    lane_rng: impl Fn(usize) -> R,
) -> Vec<TrialMeasure>
where
    S: Rescans + ?Sized,
    R: RngCore,
{
    let graphs = fetch(&mut obs.phases);
    let TrialPool { scratch, searchers } = pool;
    assert!(
        G > 0 && !searchers.is_empty() && searchers.len() % G == 0,
        "{} lanes do not split across {G} graphs",
        searchers.len()
    );
    let share = searchers.len() / G;
    let resolutions_before = scratch.edge_resolutions();
    let reads_before = scratch.slot_reads();
    let resets_before = scratch.resets();
    let m = &mut obs.metrics;
    let mut clock = PhaseClock::start();
    let mut measures = Vec::with_capacity(searchers.len());
    for (graph, lanes) in graphs.iter().zip(searchers.chunks_mut(share)) {
        let task = task(graph);
        for searcher in lanes {
            let rescans_before = searcher.frontier_rescans();
            // One measurement per lane so far: the next one is this lane's.
            let mut rng = lane_rng(measures.len());
            let outcome = oracle(scratch, graph, &task, &mut **searcher, &mut rng)
                .expect("suite searchers never violate the protocol");
            m.requests += outcome.requests as u64;
            m.discoveries += outcome.discovered as u64;
            m.frontier_rescans += searcher.frontier_rescans() - rescans_before;
            measures.push(TrialMeasure::new(outcome.requests as f64, outcome.found));
        }
    }
    obs.phases.search_ns += clock.lap_ns();
    m.edge_resolutions += scratch.edge_resolutions() - resolutions_before;
    m.slot_reads += scratch.slot_reads() - reads_before;
    m.scratch_resets += scratch.resets() - resets_before;
    obs.phases.harvest_ns += clock.lap_ns();
    measures
}

/// The task every search experiment times: from vertex 1, the oldest
/// hub, to the newest vertex of `graph`, within `budget_multiplier`
/// requests per vertex.
pub fn hub_to_newest(graph: &UndirectedCsr, budget_multiplier: usize) -> SearchTask {
    let n = graph.node_count();
    SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(budget_multiplier * n)
}

/// Races one searcher per kind of `kinds` on `trials` graphs of size
/// `n` from `source`, on `threads` engine workers (0 = all cores), and
/// returns each lane's aggregate, in `kinds` order, and the cell's
/// observation — the payload of its `"type":"perf"` record.
///
/// Each worker builds one [`TrialPool`] (one `build(kind)` per lane)
/// and reuses it for all of its trials. Each trial fetches its graph
/// with `source.trial_graph(n, trial, trial_seeds)`, charged to the
/// generate or load phase, and times every lane on the task
/// `task(graph, trial_seeds)` through `oracle`. Lane `l` draws from
/// child stream `1 + l` of the trial seeds; stream `0` is the graph's
/// own. The engine derives trial `t`'s seeds as subsequence `t` of
/// `seeds` and folds in strict trial order, so the result is
/// bit-identical for any `threads`. A corpus reproduces the generated
/// cells exactly when size `i` of its build is swept on subsequence `i`
/// of the build seed, as E1, E3 and E6 do.
///
/// The worker's stint and every trial are traced as `trial-batch` and
/// `trial` spans of `tracer`, which never touches a measurement.
///
/// E10 and E15 call [`measure_trial`] directly instead: E10 draws its
/// lane streams from a clone of an RNG it has already drawn from, and
/// E15 fetches two graphs per trial.
#[allow(clippy::too_many_arguments)]
pub fn search_cell<K: Sync, S: Rescans + ?Sized>(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    trials: usize,
    threads: usize,
    seeds: &SeedSequence,
    kinds: &[K],
    build: impl Fn(&K) -> Box<S> + Sync,
    oracle: Oracle<S>,
    task: impl Fn(&UndirectedCsr, &SeedSequence) -> SearchTask + Sync,
    tracer: &Tracer,
) -> (Vec<LaneAggregate>, CellObs) {
    run_lanes_observed(
        trials,
        kinds.len(),
        threads,
        seeds,
        // The worker's `trial-batch` span rides along with its pool and
        // records the worker's whole stint when the pool drops.
        || {
            let pool = TrialPool::new(kinds.iter().map(&build).collect());
            (pool, tracer.span("trial-batch"))
        },
        |(pool, _batch_span), obs, trial, trial_seeds| {
            let _trial_span = tracer.span("trial");
            measure_trial(
                pool,
                obs,
                oracle,
                |phases| {
                    [phases.time_fetch(source.is_stored(), || {
                        source.trial_graph(n, trial, &trial_seeds)
                    })]
                },
                |graph| task(graph, &trial_seeds),
                |lane| trial_seeds.child_rng(1 + lane as u64),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphModel, MergedMoriModel, UniformAttachmentModel};
    use crate::{ModelSource, ScalingSeries};
    use nonsearch_search::{run_weak_in, SearcherKind};

    const SIZES: [usize; 3] = [128, 256, 512];
    const SEARCHERS: [SearcherKind; 3] = [
        SearcherKind::BfsFlood,
        SearcherKind::HighDegree,
        SearcherKind::GreedyId,
    ];

    /// One cell per size of [`SIZES`], size `i` on subsequence `i` of
    /// `seed`: the derivation E1, E3 and E6 sweep with.
    fn sweep(
        source: &(impl GraphSource + ?Sized),
        kinds: &[SearcherKind],
        seed: u64,
        threads: usize,
    ) -> Vec<(Vec<LaneAggregate>, CellObs)> {
        let seeds = SeedSequence::new(seed);
        SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                search_cell(
                    source,
                    n,
                    6,
                    threads,
                    &seeds.subsequence(i as u64),
                    kinds,
                    SearcherKind::build,
                    run_weak_in,
                    |graph, _| hub_to_newest(graph, 50),
                    &Tracer::disabled(),
                )
            })
            .collect()
    }

    fn sweep_model<M: GraphModel + Sync>(
        model: &M,
        seed: u64,
        threads: usize,
    ) -> Vec<(Vec<LaneAggregate>, CellObs)> {
        sweep(&ModelSource::new(model), &SEARCHERS, seed, threads)
    }

    /// Every searcher's aggregate, size-major.
    fn aggregates(sweep: &[(Vec<LaneAggregate>, CellObs)]) -> Vec<LaneAggregate> {
        sweep.iter().flat_map(|(lanes, _)| lanes.clone()).collect()
    }

    #[test]
    fn hub_to_newest_spans_the_graph() {
        let graph = MergedMoriModel { p: 0.5, m: 1 }
            .sample_graph(100, &mut nonsearch_generators::rng_from_seed(1));
        let task = hub_to_newest(&graph, 30);
        assert_eq!(task.start, NodeId::from_label(1));
        assert_eq!(task.target, NodeId::from_label(graph.node_count()));
        assert_eq!(task.budget, Some(30 * graph.node_count()));
        assert_eq!(
            task.criterion,
            nonsearch_search::SuccessCriterion::DiscoverTarget
        );
    }

    #[test]
    fn sweep_shape_is_complete() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let sweep = sweep_model(&model, 7, 0);
        // One entry per size, one aggregate per searcher.
        assert_eq!(sweep.len(), 3);
        for (lanes, _) in &sweep {
            assert_eq!(lanes.len(), 3);
            for (kind, lane) in SEARCHERS.iter().zip(lanes) {
                assert_eq!(lane.count(), 6);
                assert!(lane.mean() > 0.0);
                assert!(lane.success_rate() > 0.9, "{kind}: {lane:?}");
            }
        }
        let series = ScalingSeries::of_sweep(&SIZES, &sweep);
        for lane in 0..3 {
            assert!(series.exponent(lane).is_some());
        }
        assert!(series.best_lane().is_some());
        for (lanes, cell) in &sweep {
            assert_eq!(cell.lanes, 3);
            // The cell's exact request total is the sum of the lanes'
            // per-trial requests.
            let lane_sum: f64 = lanes.iter().map(|lane| lane.mean() * 6.0).sum();
            // The merged metrics agree with the aggregates: exact
            // request totals, one histogram sample per trial, and
            // sane activity counters from the pooled oracle state.
            let m = &cell.metrics;
            assert_eq!(m.trials, 6);
            assert!((m.requests as f64 - lane_sum).abs() < 1e-6);
            assert_eq!(m.trial_requests.total(), 6);
            assert!(m.discoveries > 0);
            assert!(m.edge_resolutions > 0);
            // Three searchers per trial, each resetting the shared view.
            assert_eq!(m.scratch_resets, 6 * 3);
            // The suite includes cursor-based searchers, which skip
            // resolved slots on dense vertices.
            assert!(m.frontier_rescans > 0);
            // Every rescanned slot is also a slot read.
            assert!(m.slot_reads > m.frontier_rescans);
            // Phase timers rode alongside: the searcher race was timed,
            // the graph fetch was charged to `generate` (this source is
            // not stored), and `merge` captured the consumer's fold.
            assert!(cell.phases.search_ns > 0);
            assert!(cell.phases.generate_ns > 0);
            assert_eq!(cell.phases.load_ns, 0);
            assert!(cell.phases.merge_ns > 0);
            assert!(cell.workers >= 1);
            assert!(cell.wall_ns > 0);
            if cfg!(target_os = "linux") {
                assert!(cell.resource.peak_rss_bytes > 0);
            }
        }
    }

    #[test]
    fn certification_is_deterministic() {
        let model = MergedMoriModel { p: 0.3, m: 1 };
        let a = sweep_model(&model, 7, 0);
        let b = sweep_model(&model, 7, 0);
        assert_eq!(aggregates(&a), aggregates(&b));
    }

    #[test]
    fn certification_is_bit_identical_across_thread_counts() {
        let model = MergedMoriModel { p: 0.4, m: 1 };
        let a = sweep_model(&model, 7, 1);
        let b = sweep_model(&model, 7, 4);
        assert_eq!(aggregates(&a), aggregates(&b));
        // The merged per-cell metrics are exact u64 sums folded in
        // strict trial order, so they match bit-for-bit too.
        assert_eq!(a.len(), b.len());
        for ((_, cx), (_, cy)) in a.iter().zip(&b) {
            assert_eq!(cx.metrics, cy.metrics);
        }
    }

    #[test]
    fn mori_cost_grows_with_n() {
        let model = MergedMoriModel { p: 0.6, m: 1 };
        let sweep = sweep_model(&model, 7, 0);
        let best = ScalingSeries::of_sweep(&SIZES, &sweep).best_lane().unwrap();
        let first = sweep.first().unwrap().0[best].mean();
        let last = sweep.last().unwrap().0[best].mean();
        assert!(last > first, "cost should grow: {first} → {last}");
    }

    #[test]
    fn custom_source_matches_generate_per_trial() {
        // A source that replays the generate-per-trial derivation must
        // reproduce the model source bit for bit — the contract the
        // corpus builder relies on.
        struct Replay(MergedMoriModel);
        impl GraphSource for Replay {
            fn trial_graph(&self, n: usize, _: usize, seeds: &SeedSequence) -> Arc<UndirectedCsr> {
                Arc::new(self.0.sample_graph(n, &mut seeds.child_rng(0)))
            }

            fn describe(&self) -> String {
                self.0.name()
            }
        }
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let a = sweep_model(&model, 7, 0);
        let b = sweep(&Replay(model), &SEARCHERS, 7, 0);
        assert_eq!(aggregates(&a), aggregates(&b));
    }

    #[test]
    fn uniform_attachment_also_certifiable() {
        let model = UniformAttachmentModel { m: 1 };
        let sweep = sweep_model(&model, 7, 0);
        let series = ScalingSeries::of_sweep(&SIZES, &sweep);
        assert!(series.exponent(series.best_lane().unwrap()).is_some());
    }

    #[test]
    fn a_one_searcher_cell_is_lane_zero_of_the_suite() {
        // Lane l draws from child stream 1 + l whatever the lane count,
        // so a single-searcher cell (E2, E13) runs the same body as
        // lane 0 of the informed suite (E1, E3, E6) at the same seeds.
        let model = MergedMoriModel { p: 0.6, m: 1 };
        let source = ModelSource::new(&model);
        let suite = SearcherKind::informed();
        let alone = sweep(&source, &suite[..1], 11, 0);
        let raced = sweep(&source, suite, 11, 0);
        for ((alone, _), (raced, _)) in alone.iter().zip(&raced) {
            assert_eq!(alone.len(), 1);
            assert_eq!(alone[0], raced[0]);
        }
    }
}
