//! Empirical searchability certification.
//!
//! The theorems quantify over *all* local algorithms; empirically we
//! approximate that by racing a diverse suite of searchers over a size
//! sweep and fitting the scaling exponent of the best one. A model is
//! consistent with the paper's non-searchability claim when even the
//! best measured exponent stays near (or above) `1/2` — and a navigable
//! contrast (e.g. a path-structured label metric) would show up as an
//! exponent near zero.

use crate::model::GraphModel;
use crate::trial::{measure_trial, TrialPool};
use nonsearch_analysis::{fit_log_log, LinearFit, Table};
use nonsearch_engine::{run_lanes_observed, CellObs, GraphSource};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::NodeId;
use nonsearch_obs::Tracer;
use nonsearch_search::{run_weak_in, SearchTask, SearcherKind, SuccessCriterion};
use std::fmt;

/// Configuration of a certification sweep.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Graph sizes to sweep (the target is always the newest vertex).
    pub sizes: Vec<usize>,
    /// Independent graph samples per size.
    pub trials: usize,
    /// Root seed; every (size, trial, searcher) cell derives its own
    /// stream, so reports are reproducible bit-for-bit.
    pub seed: u64,
    /// The searcher suite to race.
    pub searchers: Vec<SearcherKind>,
    /// Success criterion passed to the runner.
    pub criterion: SuccessCriterion,
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
            criterion: SuccessCriterion::DiscoverTarget,
            budget_multiplier: 50,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }
}

/// One measured point of an algorithm's scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Requested model size.
    pub n: usize,
    /// Mean request count over trials.
    pub mean_requests: f64,
    /// 95% confidence half-width of the mean.
    pub ci95: f64,
    /// Fraction of trials that found the target within budget.
    pub success_rate: f64,
}

/// An algorithm's measured scaling across the size sweep.
#[derive(Debug, Clone)]
pub struct AlgorithmScaling {
    /// Which searcher.
    pub kind: SearcherKind,
    /// One point per size.
    pub points: Vec<ScalingPoint>,
    /// Log–log fit of mean requests vs. size (`None` if degenerate).
    pub fit: Option<LinearFit>,
}

impl AlgorithmScaling {
    /// The fitted scaling exponent, if available.
    pub fn exponent(&self) -> Option<f64> {
        self.fit.map(|f| f.slope)
    }

    /// Mean requests at the largest size measured.
    pub fn final_cost(&self) -> Option<f64> {
        self.points.last().map(|p| p.mean_requests)
    }
}

/// The certification verdict for one model.
#[derive(Debug, Clone)]
pub struct SearchabilityReport {
    /// Model name with parameters.
    pub model: String,
    /// Per-algorithm scaling results.
    pub algorithms: Vec<AlgorithmScaling>,
    /// The engine's observation of each swept size's cell (all lanes),
    /// in sweep order — the payload of its `"type":"perf"` record.
    pub cells: Vec<CellObs>,
    /// The exponent the paper proves no algorithm can beat (1/2 for the
    /// weak model).
    pub theoretical_exponent: f64,
}

impl SearchabilityReport {
    /// The algorithm with the lowest cost at the largest size.
    pub fn best_algorithm(&self) -> Option<&AlgorithmScaling> {
        self.algorithms
            .iter()
            .filter(|a| a.final_cost().is_some())
            .min_by(|a, b| {
                a.final_cost()
                    .partial_cmp(&b.final_cost())
                    .expect("final costs are finite")
            })
    }

    /// The best algorithm's fitted exponent.
    pub fn best_exponent(&self) -> Option<f64> {
        self.best_algorithm().and_then(|a| a.exponent())
    }

    /// Renders the report as an aligned text table (one row per
    /// algorithm × size, plus the fitted exponent).
    pub fn to_table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "algorithm",
            "n",
            "mean requests",
            "ci95",
            "success",
            "exponent",
        ]);
        for a in &self.algorithms {
            for (i, pt) in a.points.iter().enumerate() {
                let expo = if i + 1 == a.points.len() {
                    a.exponent().map_or("-".to_string(), |e| format!("{e:.3}"))
                } else {
                    String::new()
                };
                t.row(vec![
                    a.kind.name().to_string(),
                    pt.n.to_string(),
                    format!("{:.1}", pt.mean_requests),
                    format!("{:.1}", pt.ci95),
                    format!("{:.2}", pt.success_rate),
                    expo,
                ]);
            }
        }
        t
    }
}

impl fmt::Display for SearchabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "searchability report for {}", self.model)?;
        write!(f, "{}", self.to_table())
    }
}

/// Runs the certification sweep for `model`, generating one fresh graph
/// per trial.
///
/// Equivalent to [`certify_with_source`] over a
/// [`ModelSource`](crate::ModelSource); see there for the execution and
/// determinism contract.
pub fn certify<M: GraphModel + Sync>(model: &M, config: &CertifyConfig) -> SearchabilityReport {
    certify_with_source(model.name(), &crate::ModelSource::new(model), config)
}

/// Runs the certification sweep with trial graphs supplied by `source` —
/// generated per trial ([`certify`]) or served from a persistent corpus
/// (`nonsearch_corpus`).
///
/// Trials execute on the `nonsearch_engine` runner: sharded across
/// scoped worker threads, with every cell's RNG stream derived from
/// `(seed, size index, trial)` and aggregation folded in strict trial
/// order — so reports are bit-identical for any `threads` setting. A
/// corpus built with the same model, root seed, and sizes list yields
/// reports bit-identical to the generate-per-trial path, because the
/// stored graphs reproduce the exact per-trial samples.
pub fn certify_with_source(
    model_name: String,
    source: &(impl GraphSource + ?Sized),
    config: &CertifyConfig,
) -> SearchabilityReport {
    let seeds = SeedSequence::new(config.seed);
    let n_searchers = config.searchers.len();
    // all_points[searcher][size index] = that searcher's scaling point.
    let mut all_points: Vec<Vec<ScalingPoint>> = vec![Vec::new(); n_searchers];
    let mut cells = Vec::with_capacity(config.sizes.len());

    for (size_idx, &n) in config.sizes.iter().enumerate() {
        let size_seeds = seeds.subsequence(size_idx as u64);
        let _cell_span = config.tracer.span("size-cell");
        let (lanes, obs) = run_lanes_observed(
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
                            .with_criterion(config.criterion)
                            .with_budget(config.budget_multiplier * actual)
                    },
                    |lane| trial_seeds.child_rng(1 + lane as u64),
                )
            },
        );
        for (s_idx, lane) in lanes.iter().enumerate() {
            all_points[s_idx].push(ScalingPoint {
                n,
                mean_requests: lane.mean(),
                ci95: lane.ci95(),
                success_rate: lane.success_rate(),
            });
        }
        cells.push(obs);
    }

    let algorithms = config
        .searchers
        .iter()
        .zip(all_points)
        .map(|(&kind, points)| {
            let xs: Vec<f64> = points.iter().map(|p| p.n as f64).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.mean_requests.max(1e-9)).collect();
            let fit = fit_log_log(&xs, &ys);
            AlgorithmScaling { kind, points, fit }
        })
        .collect();

    SearchabilityReport {
        model: model_name,
        algorithms,
        cells,
        theoretical_exponent: 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MergedMoriModel, UniformAttachmentModel};

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
            criterion: SuccessCriterion::DiscoverTarget,
            budget_multiplier: 50,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }

    #[test]
    fn report_shape_is_complete() {
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let report = certify(&model, &small_config());
        assert_eq!(report.algorithms.len(), 3);
        for a in &report.algorithms {
            assert_eq!(a.points.len(), 3);
            assert!(a.fit.is_some());
            for pt in &a.points {
                assert!(pt.mean_requests > 0.0);
                assert!(pt.success_rate > 0.9, "{}: {pt:?}", a.kind);
            }
        }
        assert!(report.best_algorithm().is_some());
        assert!(report.to_table().len() >= 9);
        // One observed cell per size, whose exact request total is the
        // sum of the lanes' per-trial requests.
        assert_eq!(report.cells.len(), 3);
        for (cell, &n) in report.cells.iter().zip(&[128usize, 256, 512]) {
            assert_eq!(cell.lanes, 3);
            let lane_sum: f64 = report
                .algorithms
                .iter()
                .map(|a| a.points.iter().find(|p| p.n == n).unwrap().mean_requests * 6.0)
                .sum();
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
        let a = certify(&model, &cfg);
        let b = certify(&model, &cfg);
        for (x, y) in a.algorithms.iter().zip(&b.algorithms) {
            for (px, py) in x.points.iter().zip(&y.points) {
                assert_eq!(px.mean_requests, py.mean_requests);
            }
        }
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
        let a = certify(&model, &single);
        let b = certify(&model, &quad);
        for (x, y) in a.algorithms.iter().zip(&b.algorithms) {
            for (px, py) in x.points.iter().zip(&y.points) {
                assert_eq!(px, py);
            }
        }
        // The merged per-cell metrics are exact u64 sums folded in
        // strict trial order, so they match bit-for-bit too.
        assert_eq!(a.cells.len(), b.cells.len());
        for (cx, cy) in a.cells.iter().zip(&b.cells) {
            assert_eq!(cx.metrics, cy.metrics);
        }
    }

    #[test]
    fn mori_cost_grows_with_n() {
        let model = MergedMoriModel { p: 0.6, m: 1 };
        let report = certify(&model, &small_config());
        let best = report.best_algorithm().unwrap();
        let first = best.points.first().unwrap().mean_requests;
        let last = best.points.last().unwrap().mean_requests;
        assert!(last > first, "cost should grow: {first} → {last}");
    }

    #[test]
    fn custom_source_matches_generate_per_trial() {
        // A source that replays the generate-per-trial derivation must
        // reproduce certify() bit for bit — the contract the corpus
        // builder relies on.
        let model = MergedMoriModel { p: 0.5, m: 1 };
        let cfg = small_config();
        let replay = nonsearch_engine::FnSource::new(model.name(), |n, seeds: &SeedSequence| {
            model.sample_graph(n, &mut seeds.child_rng(0))
        });
        let a = certify(&model, &cfg);
        let b = certify_with_source(model.name(), &replay, &cfg);
        assert_eq!(b.model, model.name());
        for (x, y) in a.algorithms.iter().zip(&b.algorithms) {
            for (px, py) in x.points.iter().zip(&y.points) {
                assert_eq!(px, py);
            }
        }
    }

    #[test]
    fn uniform_attachment_also_certifiable() {
        let model = UniformAttachmentModel { m: 1 };
        let report = certify(&model, &small_config());
        assert!(report.best_exponent().is_some());
    }
}
