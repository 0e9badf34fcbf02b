//! E10 — Adamic et al. on pure power-law graphs: high-degree search
//! `O(n^{2(1−2/k)})` vs random walk `O(n^{3(1−2/k)})`.
//!
//! Measures both strategies on configuration-model giants across
//! exponents `k ∈ (2, 3)` and compares fitted scaling exponents with the
//! mean-field predictions. Per (k, n) the two weak searchers share one
//! cell: each trial samples the giant and a random `(s, t)` pair once,
//! and both lanes search from clones of the post-draw RNG. The strong
//! high-degree searcher (Adamic's own visited-vertex measure) runs a
//! cell of its own on its own stream.

use super::{lane_measures, note_corpus_ignored, print_banner};
use nonsearch_core::{
    adamic_high_degree_exponent, adamic_random_walk_exponent, measure_trial, GraphModel, Oracle,
    PowerLawGiantModel, Rescans, ScalingSeries, TrialPool,
};
use nonsearch_engine::{
    run_lanes_observed, CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue, LaneAggregate,
    TrialMeasure, TrialObs,
};
use nonsearch_generators::{rng_from_seed, SeedSequence};
use nonsearch_graph::NodeId;
use nonsearch_search::{
    run_strong_in, run_weak_in, SearchTask, SearcherKind, StrongHighDegree, StrongSearcher,
};
use rand::Rng;
use std::io;
use std::sync::Arc;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "adamic",
    id: "E10",
    claim: "on power-law giants high-degree search scales as n^(2(1−2/k)), \
            below the random walk's n^(3(1−2/k))",
    default_seed: 0xE10,
    run,
};

/// The weak lanes, raced on one cell.
const WEAK: [SearcherKind; 2] = [SearcherKind::HighDegree, SearcherKind::RandomWalk];

/// Stream of the weak cell under each (k, n). It is 11 because the
/// original per-searcher streams were keyed on name length, and both
/// names have 11 characters: they always searched the same giants.
const WEAK_STREAM: u64 = 11;

/// Stream of the strong cell under each (k, n).
const STRONG_STREAM: u64 = 777;

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E10 / Adamic et al. (power-law search)",
        "on Molloy–Reed power-law graphs, high-degree search scales as \
         n^(2(1−2/k)) and the random walk as n^(3(1−2/k)): greedy wins, \
         both are polynomial",
    );
    note_corpus_ignored(
        ctx,
        "each trial draws its giant, endpoints and searches from the \
         trial's root stream, which stored graphs do not reproduce.",
    );

    let sizes = ctx.options.sweep(&[2_000, 4_000, 8_000, 16_000, 32_000]);
    let trial_count = ctx.options.trial_count(12);
    let k_values = if ctx.options.quick {
        vec![2.3]
    } else {
        vec![2.1, 2.3, 2.5, 2.7]
    };
    let seeds = SeedSequence::new(ctx.seed);
    let tracer = ctx.tracer.clone();

    for &k in &k_values {
        let model = PowerLawGiantModel {
            exponent: k,
            d_min: 1,
        };
        println!(
            "k = {k}: theory exponents — high-degree {:.2}, random walk {:.2}",
            adamic_high_degree_exponent(k),
            adamic_random_walk_exponent(k)
        );
        let k_seeds = seeds.subsequence((k * 10.0) as u64);
        // Per lane (high-degree, random-walk, strong): (n, mean giant,
        // aggregate), and the series of mean requests on mean giant size.
        let mut rows: [Vec<(usize, f64, LaneAggregate)>; 3] = Default::default();
        let mut series = ScalingSeries::new(rows.len());
        for (si, &n) in sizes.iter().enumerate() {
            let _cell_span = tracer.span("size-cell");
            let size_seeds = k_seeds.subsequence(si as u64);
            let (weak, weak_obs) = run_lanes_observed(
                trial_count,
                WEAK.len() + 1,
                ctx.options.threads,
                &size_seeds.subsequence(WEAK_STREAM),
                || TrialPool::new(WEAK.iter().map(SearcherKind::build).collect()),
                |pool, obs, _, trial_seeds| {
                    search_giant(&model, n, pool, obs, run_weak_in, &trial_seeds)
                },
            );
            let (strong, strong_obs) = run_lanes_observed(
                trial_count,
                2,
                ctx.options.threads,
                &size_seeds.subsequence(STRONG_STREAM),
                || {
                    let searcher: Box<dyn StrongSearcher> = Box::new(StrongHighDegree::new());
                    TrialPool::new(vec![searcher])
                },
                |pool, obs, _, trial_seeds| {
                    let mut measures =
                        search_giant(&model, n, pool, obs, run_strong_in, &trial_seeds);
                    // A start on the target still counts as one visit.
                    measures[0].value = measures[0].value.max(1.0);
                    measures
                },
            );
            let giants = [weak[2].mean(), weak[2].mean(), strong[1].mean()];
            for (lane, aggregate) in [weak[0], weak[1], strong[0]].into_iter().enumerate() {
                series.push(lane, giants[lane], aggregate.mean());
                rows[lane].push((n, giants[lane], aggregate));
            }
            // One perf record per oracle's cell, which the lanes of that
            // oracle share.
            for (oracle, obs) in [("weak", weak_obs), ("strong", strong_obs)] {
                let key = CellKey::new()
                    .with("k", k)
                    .with("oracle", oracle)
                    .with("n", n);
                ctx.writer.record_perf(&key, &obs);
            }
        }

        let mut table = CellTable::new(&[
            ("searcher", "searcher", 0),
            ("giant", "n (giant)", 0),
            ("mean", "mean requests", 1),
            ("ci95", "ci95", 1),
            ("success", "success", 2),
        ]);
        // (report name, fit label, mean-field exponent) per lane.
        let lanes = [
            (
                WEAK[0].name(),
                "fitted exponent:",
                adamic_high_degree_exponent(k),
            ),
            (
                WEAK[1].name(),
                "fitted exponent:",
                adamic_random_walk_exponent(k),
            ),
            (
                "strong-high-degree",
                "(visited vertices, Adamic's own measure): exponent",
                adamic_high_degree_exponent(k),
            ),
        ];
        for (lane, (&(name, label, theory), rows)) in lanes.iter().zip(&rows).enumerate() {
            let exponent = series.exponent(lane);
            if let Some(slope) = exponent {
                println!("  {name} {label} {slope:.3} (mean-field theory {theory:.2})");
            }
            for &(n, giant, lane) in rows {
                let key = CellKey::new()
                    .with("k", k)
                    .with("searcher", name)
                    .with("n", n)
                    .measure("giant", giant);
                let mut measures = lane_measures(&lane);
                measures.extend([
                    ("exponent", JsonValue::from(exponent)),
                    ("theory_exponent", JsonValue::from(theory)),
                ]);
                table.row(&key, &measures);
                ctx.writer.record_cell(&key, trial_count, &measures);
            }
        }
        println!("{table}");
    }
    println!("shape to check: greedy below walk at every size, both rising");
    println!("polynomially, gaps closing as k → 2 (both exponents → 0).");
    Ok(())
}

/// One trial on a fresh giant: sample it and a uniformly random `(s, t)`
/// pair from the trial's root stream (the Adamic setting), then race the
/// pool's searchers, each from a clone of the post-draw RNG. One
/// measurement per searcher, then the giant's size.
fn search_giant<S: Rescans + ?Sized>(
    model: &PowerLawGiantModel,
    n: usize,
    pool: &mut TrialPool<S>,
    obs: &mut TrialObs,
    oracle: Oracle<S>,
    trial_seeds: &SeedSequence,
) -> Vec<TrialMeasure> {
    let mut rng = rng_from_seed(trial_seeds.root());
    let giant = obs
        .phases
        .time_fetch(false, || Arc::new(model.sample_graph(n, &mut rng)));
    let peers = giant.node_count();
    let start = NodeId::new(rng.gen_range(0..peers));
    let target = NodeId::new(rng.gen_range(0..peers));
    let task = SearchTask::new(start, target).with_budget(30 * peers);
    let mut measures = measure_trial(pool, obs, oracle, |_| [giant], |_| task, |_| rng.clone());
    measures.push(TrialMeasure::new(peers as f64, true));
    measures
}
