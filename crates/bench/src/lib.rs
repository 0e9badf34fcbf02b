//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Every experiment regenerates one evaluation artifact from
//! EXPERIMENTS.md; the unified `xp` binary fronts them all (`xp list`),
//! and the legacy `exp_*` binaries dispatch to the same registered
//! implementations. All entry points share the engine's flag set —
//! `--quick`, `--threads`, `--seed`, `--out`, `--format`, `--trials`,
//! `--sizes` — parsed once into [`CliOptions`].
//!
//! The cell helpers here ([`strong_cell`], [`weak_cell`]) run the shared
//! trial body (`nonsearch_core::measure_trial`) on the `nonsearch_engine`
//! trial runner: sharded across worker threads, per-trial RNG streams
//! derived from the trial index, streamed aggregation in strict trial
//! order — so their numbers are bit-identical for any thread count (and
//! match the historical sequential loops' trial seeding).

#![forbid(unsafe_code)]

pub mod bench_suite;
pub mod chaos;
pub mod experiments;

use nonsearch_core::{measure_trial, Oracle, Rescans, TrialPool};
use nonsearch_engine::{run_lanes_observed, CellObs, CliOptions, GraphSource, LaneAggregate};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::{NodeId, UndirectedCsr};
use nonsearch_search::{
    run_strong_in, run_weak_in, SearchTask, SearcherKind, StrongSearcher, SuccessCriterion,
};

/// `true` when the caller asked for a reduced sweep (`--quick` or
/// `NONSEARCH_QUICK=1`); read from the process-wide options, which are
/// parsed exactly once.
pub fn quick() -> bool {
    CliOptions::global().quick
}

/// Truncates a size sweep in quick mode (and honours `--sizes`).
pub fn sweep(full: &[usize]) -> Vec<usize> {
    CliOptions::global().sweep(full)
}

/// Scales a trial count down in quick mode (and honours `--trials`).
pub fn trials(full: usize) -> usize {
    CliOptions::global().trial_count(full)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    if quick() {
        println!("mode: QUICK (reduced sweep; run without --quick for the full table)");
    }
    println!();
}

/// Strong-model searcher selection for the Theorem 1 strong experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrongKind {
    /// Discovery-order expansion.
    Bfs,
    /// Max-degree-first expansion.
    HighDegree,
    /// Target-label-proximity expansion.
    GreedyId,
}

impl StrongKind {
    /// All strong searchers.
    pub fn all() -> &'static [StrongKind] {
        &[
            StrongKind::Bfs,
            StrongKind::HighDegree,
            StrongKind::GreedyId,
        ]
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            StrongKind::Bfs => "strong-bfs",
            StrongKind::HighDegree => "strong-high-degree",
            StrongKind::GreedyId => "strong-greedy-id",
        }
    }

    /// Builds a fresh instance.
    pub fn build(&self) -> Box<dyn StrongSearcher> {
        match self {
            StrongKind::Bfs => Box::new(nonsearch_search::StrongBfs::new()),
            StrongKind::HighDegree => Box::new(nonsearch_search::StrongHighDegree::new()),
            StrongKind::GreedyId => Box::new(nonsearch_search::StrongGreedyId::new()),
        }
    }
}

/// Measures a strong-model searcher at size `n` — mean requests to
/// find the newest vertex from vertex 1 — on graphs from `source`, on
/// `threads` engine workers (0 = all cores).
pub fn strong_cell(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    kind: StrongKind,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> (LaneAggregate, CellObs) {
    let task = |graph: &UndirectedCsr, _: &SeedSequence| {
        let actual = graph.node_count();
        SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual)).with_budget(50 * actual)
    };
    search_cell(
        source,
        n,
        trial_count,
        threads,
        seeds,
        || kind.build(),
        run_strong_in,
        task,
    )
}

/// Where the searcher starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartPolicy {
    /// The oldest vertex (label 1) — the model's best-connected hub.
    OldestHub,
    /// A uniformly random vertex.
    Uniform,
    /// The second-newest vertex (label n−1) — right next to the window.
    NearTarget,
}

impl StartPolicy {
    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            StartPolicy::OldestHub => "hub(v1)",
            StartPolicy::Uniform => "uniform",
            StartPolicy::NearTarget => "near(v[n-1])",
        }
    }

    fn pick(&self, n: usize, rng: &mut rand_chacha::ChaCha8Rng) -> NodeId {
        use rand::Rng;
        match self {
            StartPolicy::OldestHub => NodeId::from_label(1),
            StartPolicy::Uniform => NodeId::new(rng.gen_range(0..n.saturating_sub(1))),
            StartPolicy::NearTarget => NodeId::from_label((n - 1).max(1)),
        }
    }
}

/// Measures a weak-model searcher at size `n` with explicit start and
/// criterion policy (used by the ablation experiment), on graphs from
/// `source`, on `threads` engine workers (0 = all cores).
///
/// Per-trial child streams: `0` the graph (inside generate-backed
/// sources), `1` the searcher, `2` the start-policy pick — each on its
/// own stream, so generate-backed and corpus-backed runs pick the same
/// start vertices from the same trial seeds.
#[allow(clippy::too_many_arguments)]
pub fn weak_cell(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    kind: SearcherKind,
    criterion: SuccessCriterion,
    start_policy: StartPolicy,
    trial_count: usize,
    budget_multiplier: usize,
    threads: usize,
    seeds: &SeedSequence,
) -> (LaneAggregate, CellObs) {
    let task = |graph: &UndirectedCsr, trial_seeds: &SeedSequence| {
        let actual = graph.node_count();
        let start = start_policy.pick(actual, &mut trial_seeds.child_rng(2));
        SearchTask::new(start, NodeId::from_label(actual))
            .with_criterion(criterion)
            .with_budget(budget_multiplier * actual)
    };
    search_cell(
        source,
        n,
        trial_count,
        threads,
        seeds,
        || kind.build(),
        run_weak_in,
        task,
    )
}

/// One searcher on one trial graph per trial: the single-lane cell both
/// [`weak_cell`] and [`strong_cell`] run through the shared trial body.
#[allow(clippy::too_many_arguments)]
fn search_cell<S: Rescans + ?Sized>(
    source: &(impl GraphSource + ?Sized),
    n: usize,
    trial_count: usize,
    threads: usize,
    seeds: &SeedSequence,
    build: impl Fn() -> Box<S> + Sync,
    oracle: Oracle<S>,
    task: impl Fn(&UndirectedCsr, &SeedSequence) -> SearchTask + Sync,
) -> (LaneAggregate, CellObs) {
    let (lanes, obs) = run_lanes_observed(
        trial_count,
        1,
        threads,
        seeds,
        || TrialPool::new(vec![build()]),
        |pool, obs, trial, trial_seeds| {
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
                &trial_seeds,
            )
        },
    );
    (lanes[0], obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_core::{MergedMoriModel, ModelSource};

    #[test]
    fn strong_cell_measures_something() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(1);
        let (lane, obs) = strong_cell(
            &ModelSource::new(&model),
            256,
            StrongKind::HighDegree,
            4,
            0,
            &seeds,
        );
        assert!(lane.mean() > 0.0);
        assert!(lane.success_rate() > 0.9);
        assert_eq!(obs.metrics.trials, 4);
        assert_eq!(obs.metrics.trial_requests.total(), 4);
        assert!(obs.metrics.requests > 0);
        assert!(obs.metrics.discoveries > 0);
        assert_eq!(obs.metrics.scratch_resets, 4);
        // The exact request total is the lane's: mean × folded trials.
        assert_eq!(obs.metrics.requests as f64, lane.mean() * 4.0);
        // Phase timers rode alongside: generate (this source is not
        // stored), search, and the consumer's merge all registered.
        assert!(obs.phases.generate_ns > 0);
        assert_eq!(obs.phases.load_ns, 0);
        assert!(obs.phases.search_ns > 0);
        assert!(obs.phases.merge_ns > 0);
        assert!(obs.workers >= 1);
        if cfg!(target_os = "linux") {
            assert!(obs.resource.peak_rss_bytes > 0);
        }
    }

    #[test]
    fn weak_cell_policies_work() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let seeds = SeedSequence::new(2);
        for policy in [
            StartPolicy::OldestHub,
            StartPolicy::Uniform,
            StartPolicy::NearTarget,
        ] {
            let (lane, _) = weak_cell(
                &ModelSource::new(&model),
                256,
                SearcherKind::BfsFlood,
                SuccessCriterion::DiscoverTarget,
                policy,
                4,
                100,
                0,
                &seeds,
            );
            assert!(lane.success_rate() > 0.9, "{}", policy.name());
        }
    }

    #[test]
    fn cells_are_bit_identical_across_thread_counts() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let source = ModelSource::new(&model);
        let seeds = SeedSequence::new(3);
        let (a, obs_a) = strong_cell(&source, 128, StrongKind::Bfs, 6, 1, &seeds);
        let (b, obs_b) = strong_cell(&source, 128, StrongKind::Bfs, 6, 4, &seeds);
        assert_eq!(a, b);
        assert_eq!(obs_a.metrics, obs_b.metrics);
    }

    #[test]
    fn strong_kind_names_unique() {
        let names: Vec<&str> = StrongKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"strong-bfs"));
    }

    #[test]
    fn sweep_respects_quick() {
        if !quick() {
            assert_eq!(sweep(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
            assert_eq!(trials(12), 12);
        }
    }
}
