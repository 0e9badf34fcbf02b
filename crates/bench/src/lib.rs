//! The experiments behind the `xp` CLI.
//!
//! Every experiment regenerates one evaluation artifact from
//! EXPERIMENTS.md; the `xp` binary fronts them all (`xp help`). Every
//! experiment shares the engine's flag set — `--quick`, `--threads`,
//! `--seed`, `--out`, `--trials`, `--sizes`, … — parsed strictly into
//! `nonsearch_engine::CliOptions`. The search experiments race their
//! searchers through `nonsearch_core::search_cell`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;

#[cfg(test)]
mod tests {
    use crate::experiments::{StrongKind, STRONG_BUDGET};
    use nonsearch_core::{hub_to_newest, search_cell, MergedMoriModel, ModelSource};
    use nonsearch_engine::{CellObs, LaneAggregate};
    use nonsearch_generators::SeedSequence;
    use nonsearch_obs::Tracer;
    use nonsearch_search::run_strong_in;

    /// One strong-oracle cell of `kind` from the hub to the newest
    /// vertex, the way E2 and E13 run theirs.
    fn strong_cell(
        n: usize,
        kind: StrongKind,
        trials: usize,
        threads: usize,
        seeds: &SeedSequence,
    ) -> (LaneAggregate, CellObs) {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let (lanes, obs) = search_cell(
            &ModelSource::new(&model),
            n,
            trials,
            threads,
            seeds,
            &[kind],
            StrongKind::build,
            run_strong_in,
            |graph, _| hub_to_newest(graph, STRONG_BUDGET),
            &Tracer::disabled(),
        );
        (lanes[0], obs)
    }

    #[test]
    fn strong_cell_measures_something() {
        let seeds = SeedSequence::new(1);
        let (lane, obs) = strong_cell(256, StrongKind::HighDegree, 4, 0, &seeds);
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
    fn cells_are_bit_identical_across_thread_counts() {
        let seeds = SeedSequence::new(3);
        let (a, obs_a) = strong_cell(128, StrongKind::Bfs, 6, 1, &seeds);
        let (b, obs_b) = strong_cell(128, StrongKind::Bfs, 6, 4, &seeds);
        assert_eq!(a, b);
        assert_eq!(obs_a.metrics, obs_b.metrics);
    }
}
