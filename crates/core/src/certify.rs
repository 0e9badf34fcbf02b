//! Empirical searchability certification.
//!
//! The theorems quantify over *all* local algorithms; empirically we
//! approximate that by racing a diverse suite of searchers over a size
//! sweep and fitting the scaling exponent of the best one. A model is
//! consistent with the paper's non-searchability claim when even the
//! best measured exponent stays near (or above) `1/2` — and a navigable
//! contrast (e.g. a path-structured label metric) would show up as an
//! exponent near zero.

use crate::trial::{measure_trial, TrialPool};
use nonsearch_engine::{run_lanes_observed, CellObs, GraphSource, LaneAggregate};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;
use nonsearch_obs::Tracer;
use nonsearch_search::{run_weak_in, SearchTask, SearcherKind};

/// Configuration of a certification sweep.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Graph sizes to sweep (the target is always the newest vertex).
    pub sizes: Vec<usize>,
    /// Independent graph samples per size.
    pub trials: usize,
    /// Root seed; every (size, trial, searcher) cell derives its own
    /// stream, so sweeps are reproducible bit-for-bit.
    pub seed: u64,
    /// The searcher suite to race. A run succeeds when it discovers the
    /// target (the default `SuccessCriterion`).
    pub searchers: Vec<SearcherKind>,
    /// Request budget per run, as a multiple of the graph size.
    pub budget_multiplier: usize,
    /// Worker threads for the trial engine (`0` = all cores). Results
    /// are bit-identical for any value.
    pub threads: usize,
    /// Span tracer for `size-cell` / `trial-batch` / `trial` scopes;
    /// disabled by default (every scope then costs one `Option` check).
    /// Never consulted by the measurement path itself, so enabling it
    /// cannot perturb the deterministic aggregates.
    pub tracer: Tracer,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            sizes: vec![512, 1024, 2048, 4096, 8192],
            trials: 12,
            seed: 0xC0FFEE,
            searchers: SearcherKind::informed().to_vec(),
            budget_multiplier: 50,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }
}

/// Runs the certification sweep with trial graphs supplied by `source`:
/// a [`ModelSource`](crate::ModelSource) generates one fresh graph per
/// trial, a corpus (`nonsearch_corpus`) serves stored ones. Returns, per
/// swept size, the engine's aggregate of each searcher (in
/// `config.searchers` order) and the cell's observation — the payload
/// of its `"type":"perf"` record.
/// [`ScalingSeries::of_sweep`](crate::ScalingSeries::of_sweep) fits the
/// searchers' exponents.
///
/// Trials execute on the `nonsearch_engine` runner: sharded across
/// scoped worker threads, with every cell's RNG stream derived from
/// `(seed, size index, trial)` and aggregation folded in strict trial
/// order — so results are bit-identical for any `threads` setting. A
/// corpus built with the same model, root seed, and sizes list yields
/// results bit-identical to generating, because the stored graphs
/// reproduce the exact per-trial samples.
pub fn certify(
    source: &(impl GraphSource + ?Sized),
    config: &CertifyConfig,
) -> Vec<(Vec<LaneAggregate>, CellObs)> {
    let seeds = SeedSequence::new(config.seed);
    let n_searchers = config.searchers.len();
    config
        .sizes
        .iter()
        .enumerate()
        .map(|(size_idx, &n)| {
            let size_seeds = seeds.subsequence(size_idx as u64);
            let _cell_span = config.tracer.span("size-cell");
            run_lanes_observed(
                config.trials,
                n_searchers,
                config.threads,
                &size_seeds,
                // Per-worker pool: one scratch plus one instance of every
                // searcher, reused across all of the worker's trials. The
                // worker's `trial-batch` span rides along and records the
                // worker's whole stint when the pool drops.
                || {
                    let searchers = config.searchers.iter().map(|kind| kind.build()).collect();
                    (TrialPool::new(searchers), config.tracer.span("trial-batch"))
                },
                |(pool, _batch_span), obs, trial, trial_seeds| {
                    let _trial_span = config.tracer.span("trial");
                    measure_trial(
                        pool,
                        obs,
                        run_weak_in,
                        |phases| {
                            [phases.time_fetch(source.is_stored(), || {
                                source.trial_graph(n, trial, &trial_seeds)
                            })]
                        },
                        |graph| {
                            let actual = graph.node_count();
                            SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
                                .with_budget(config.budget_multiplier * actual)
                        },
                        |lane| trial_seeds.child_rng(1 + lane as u64),
                    )
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphModel, MergedMoriModel, UniformAttachmentModel};
    use crate::{ModelSource, ScalingSeries};

    fn small_config() -> CertifyConfig {
        CertifyConfig {
            sizes: vec![128, 256, 512],
            trials: 6,
            seed: 7,
            searchers: vec![
                SearcherKind::BfsFlood,
                SearcherKind::HighDegree,
                SearcherKind::GreedyId,
            ],
            budget_multiplier: 50,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }

    fn certify_model<M: GraphModel + Sync>(
        model: &M,
        config: &CertifyConfig,
    ) -> Vec<(Vec<LaneAggregate>, CellObs)> {
        certify(&ModelSource::new(model), config)
    }

    /// Every searcher's aggregate, size-major.
    fn aggregates(sweep: &[(Vec<LaneAggregate>, CellObs)]) -> Vec<LaneAggregate> {
        sweep.iter().flat_map(|(lanes, _)| lanes.clone()).collect()
    }

    #[test]
    fn sweep_shape_is_complete() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let sweep = certify_model(&model, &small_config());
        // One entry per size, one aggregate per searcher.
        assert_eq!(sweep.len(), 3);
        for (lanes, _) in &sweep {
            assert_eq!(lanes.len(), 3);
            for (kind, lane) in small_config().searchers.iter().zip(lanes) {
                assert_eq!(lane.count(), 6);
                assert!(lane.mean() > 0.0);
                assert!(lane.success_rate() > 0.9, "{kind}: {lane:?}");
            }
        }
        let series = ScalingSeries::of_sweep(&small_config().sizes, &sweep);
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
        let cfg = small_config();
        let a = certify_model(&model, &cfg);
        let b = certify_model(&model, &cfg);
        assert_eq!(aggregates(&a), aggregates(&b));
    }

    #[test]
    fn certification_is_bit_identical_across_thread_counts() {
        let model = MergedMoriModel { p: 0.4, m: 1 };
        let single = CertifyConfig {
            threads: 1,
            ..small_config()
        };
        let quad = CertifyConfig {
            threads: 4,
            ..small_config()
        };
        let a = certify_model(&model, &single);
        let b = certify_model(&model, &quad);
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
        let sweep = certify_model(&model, &small_config());
        let best = ScalingSeries::of_sweep(&small_config().sizes, &sweep)
            .best_lane()
            .unwrap();
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
            fn trial_graph(
                &self,
                n: usize,
                _: usize,
                seeds: &SeedSequence,
            ) -> std::sync::Arc<nonsearch_graph::UndirectedCsr> {
                std::sync::Arc::new(self.0.sample_graph(n, &mut seeds.child_rng(0)))
            }

            fn describe(&self) -> String {
                self.0.name()
            }
        }
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let cfg = small_config();
        let a = certify_model(&model, &cfg);
        let b = certify(&Replay(model), &cfg);
        assert_eq!(aggregates(&a), aggregates(&b));
    }

    #[test]
    fn uniform_attachment_also_certifiable() {
        let model = UniformAttachmentModel { m: 1 };
        let sweep = certify_model(&model, &small_config());
        let series = ScalingSeries::of_sweep(&small_config().sizes, &sweep);
        assert!(series.exponent(series.best_lane().unwrap()).is_some());
    }
}
