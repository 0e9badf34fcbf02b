//! E15 — degree-preserving null models: does wiring history matter, or
//! only the degree sequence?
//!
//! Adamic et al. analyse high-degree search on *pure* power-law random
//! graphs; the paper's evolving models grow their wiring through
//! preferential attachment. Rewiring each sampled Barabási–Albert graph
//! with degree-preserving edge swaps (Maslov–Sneppen) keeps every
//! degree and randomizes everything else, so comparing weak-model
//! search on original vs rewired ensembles isolates the contribution of
//! structure beyond the degree sequence. Expected shape: both ensembles
//! show the same Ω(√n)-like growth — consistent with the paper's
//! message that scale-free degree statistics alone already defeat local
//! search.
//!
//! With `--corpus`, originals come from the stored ensemble and the
//! rewired lane from its stored variant 0; without it, both are derived
//! on the fly from the same per-trial streams the corpus builder uses
//! (`child 0` graph, `subsequence(1).child 0` rewiring), so a corpus
//! built with this experiment's model, seed, and sizes reproduces the
//! generate path bit for bit.

use super::{lane_measures, open_corpus, print_banner, resolve_source};
use nonsearch_analysis::Table;
use nonsearch_core::{measure_trial, BarabasiAlbertModel, GraphModel, ScalingSeries, TrialPool};
use nonsearch_engine::{
    run_lanes_observed, CellKey, CellTable, ExpContext, ExperimentSpec, GraphSource,
};
use nonsearch_generators::{degree_preserving_rewire, SeedSequence};
use nonsearch_graph::NodeId;
use nonsearch_search::{run_weak_in, SearchTask, SearcherKind, SuccessCriterion};
use std::io;
use std::sync::Arc;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "null-model",
    id: "E15",
    claim: "degree-preserving rewiring keeps BA search cost Ω(√n)-shaped",
    default_seed: 0xE15,
    run,
};

const SWAPS_PER_EDGE: usize = 10;
const SEARCHERS: [SearcherKind; 2] = [SearcherKind::HighDegree, SearcherKind::BfsFlood];
const VARIANTS: [&str; 2] = ["original", "rewired"];

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E15 / degree-preserving null model",
        "rewiring a BA ensemble to a degree-matched null model leaves \
         weak-model search cost Ω(√n)-shaped: the degree sequence, not \
         the attachment history, defeats local search",
    );

    let model = BarabasiAlbertModel { m: 2 };
    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096]);
    let trial_count = ctx.options.trial_count(10);
    let budget_multiplier = 30;
    let corpus = open_corpus(ctx)?;
    let original_source = resolve_source(corpus.as_ref(), &model, &sizes);
    // The rewired lane prefers the corpus's stored variant 0; otherwise
    // each trial rewires its own original on the fly.
    let variant_source: Option<Box<dyn GraphSource>> = corpus.as_ref().and_then(|c| {
        if c.check_compatible(&model.name(), &sizes).is_ok() {
            match c.variant_source(0) {
                Ok(source) => {
                    println!("null graphs: {}", source.describe());
                    return Some(Box::new(source) as Box<dyn GraphSource>);
                }
                Err(e) => println!("note: rewiring on the fly — {e}"),
            }
        }
        None
    });

    let seeds = SeedSequence::new(ctx.seed);
    let mut table = CellTable::new(&[
        ("variant", "variant", 0),
        ("searcher", "searcher", 0),
        ("n", "n", 0),
        ("mean", "mean", 1),
        ("ci95", "ci95", 1),
        ("success", "success", 2),
    ]);
    // One lane per (variant, searcher), in lane order: x = n, y = mean.
    let mut series = ScalingSeries::new(VARIANTS.len() * SEARCHERS.len());

    let tracer = ctx.tracer.clone();
    for (size_idx, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        let size_seeds = seeds.subsequence(size_idx as u64);
        let (lanes, obs) = run_lanes_observed(
            trial_count,
            VARIANTS.len() * SEARCHERS.len(),
            ctx.options.threads,
            &size_seeds,
            // Per-worker pool: one scratch plus one instance of each
            // searcher per variant lane, reused across trials.
            || {
                TrialPool::new(
                    (0..VARIANTS.len() * SEARCHERS.len())
                        .map(|i| SEARCHERS[i % SEARCHERS.len()].build())
                        .collect(),
                )
            },
            |pool, obs, trial, trial_seeds| {
                measure_trial(
                    pool,
                    obs,
                    run_weak_in,
                    |phases| {
                        let original = phases.time_fetch(original_source.is_stored(), || {
                            original_source.trial_graph(n, trial, &trial_seeds)
                        });
                        // A stored variant is a load; an on-the-fly
                        // rewire is generation work.
                        let rewired = phases.time_fetch(variant_source.is_some(), || {
                            match &variant_source {
                                Some(source) => source.trial_graph(n, trial, &trial_seeds),
                                None => {
                                    // Same derivation as the corpus
                                    // builder's variant 0.
                                    let mut rng = trial_seeds.subsequence(1).child_rng(0);
                                    let (null, _) = degree_preserving_rewire(
                                        &original,
                                        SWAPS_PER_EDGE,
                                        &mut rng,
                                    )
                                    .expect("BA samples are simple graphs");
                                    Arc::new(null)
                                }
                            }
                        });
                        [original, rewired]
                    },
                    |graph| {
                        let actual = graph.node_count();
                        SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
                            .with_criterion(SuccessCriterion::DiscoverTarget)
                            .with_budget(budget_multiplier * actual)
                    },
                    |lane| trial_seeds.child_rng(1 + lane as u64),
                )
            },
        );

        for (lane_idx, lane) in lanes.iter().enumerate() {
            let key = CellKey::new()
                .with("model", "barabasi-albert")
                .with("m", 2usize)
                .with("variant", VARIANTS[lane_idx / SEARCHERS.len()])
                .with("swaps_per_edge", SWAPS_PER_EDGE)
                .with("searcher", SEARCHERS[lane_idx % SEARCHERS.len()].name())
                .with("n", n);
            let measures = lane_measures(lane);
            table.row(&key, &measures);
            ctx.writer.record_cell(&key, trial_count, &measures);
            series.push(lane_idx, n as f64, lane.mean());
        }
        // One perf record per size: every lane searched its graphs.
        let perf_key = CellKey::new().with("model", "barabasi-albert").with("n", n);
        ctx.writer.record_perf(&perf_key, &obs);
    }
    println!("{table}");

    let mut fits = Table::with_columns(&["searcher", "original exponent", "rewired exponent"]);
    for (s_idx, kind) in SEARCHERS.iter().enumerate() {
        let exponent = |v_idx: usize| -> String {
            series
                .exponent(v_idx * SEARCHERS.len() + s_idx)
                .map_or("-".into(), |slope| format!("{slope:.3}"))
        };
        fits.row(vec![kind.name().to_string(), exponent(0), exponent(1)]);
    }
    println!("{fits}");
    println!("expected: matching growth exponents across the two columns —");
    println!("randomizing the wiring (degrees fixed) neither helps nor hurts");
    println!("local search, so non-searchability is a degree-sequence effect.");
    Ok(())
}
