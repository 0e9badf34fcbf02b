//! E7 — Móri's maximum degree: the max degree of `G_t` grows like `t^p`
//! (Móri 2005), the ingredient of Theorem 1's strong-model transfer.
//!
//! One cell per (p, t): the mean maximum degree over independent trees,
//! with its log–log slope in t fitted per p. Cells run in parallel and
//! deterministically. A generated trial counts its tree's degrees from
//! the attachment trace and builds no graph; `--corpus` serves stored
//! trees.

use super::{open_corpus, print_banner, resolve_source};
use nonsearch_core::{mori_max_degree_exponent, MergedMoriModel, ScalingSeries};
use nonsearch_engine::{
    run_lanes_observed, CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue, TrialMeasure,
};
use nonsearch_generators::SeedSequence;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "maxdeg",
    id: "E7",
    claim: "max degree of the Móri tree grows like t^p — log-log slope ≈ p",
    default_seed: 0xE7,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E7 / max degree growth",
        "max degree of the Móri tree grows like t^p — log-log slope ≈ p",
    );

    let sizes = ctx.options.sweep(&[1024, 4096, 16384, 65536, 262144]);
    let trial_count = ctx.options.trial_count(8);
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx)?;
    let tracer = ctx.tracer.clone();

    let p_values = [0.2f64, 0.5, 0.8];
    let mut series = ScalingSeries::new(p_values.len());
    let mut table = CellTable::new(&[
        ("p", "p", 1),
        ("n", "t", 0),
        ("mean_max_degree", "mean max degree", 1),
        ("ci95", "ci95", 1),
        ("slope", "fitted slope", 3),
        ("theory_exponent", "theory", 1),
    ]);
    for (pi, &p) in p_values.iter().enumerate() {
        let model = MergedMoriModel { p, m: 1 };
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        let mut cells = Vec::new();
        for (si, &t) in sizes.iter().enumerate() {
            let _cell_span = tracer.span("size-cell");
            let cell_seeds = seeds.subsequence(pi as u64).subsequence(si as u64);
            let (lanes, obs) = run_lanes_observed(
                trial_count,
                1,
                ctx.options.threads,
                &cell_seeds,
                || (),
                |(), obs, trial, trial_seeds| {
                    let degrees = obs.phases.time_fetch(source.is_stored(), || {
                        source.trial_degrees(t, trial, &trial_seeds)
                    });
                    let d = degrees
                        .into_iter()
                        .max()
                        .expect("sampled trees are non-empty");
                    vec![TrialMeasure::new(d as f64, true)]
                },
            );
            series.push(pi, t as f64, lanes[0].mean());
            cells.push((t, lanes[0], obs));
        }
        let slope = series.exponent(pi);
        for (t, aggregate, obs) in &cells {
            let key = CellKey::new()
                .with("model", "mori")
                .with("p", p)
                .with("n", *t);
            let measures = [
                ("mean_max_degree", JsonValue::from(aggregate.mean())),
                ("ci95", JsonValue::from(aggregate.ci95())),
                ("slope", JsonValue::from(slope)),
                (
                    "theory_exponent",
                    JsonValue::from(mori_max_degree_exponent(p)),
                ),
            ];
            table.row(&key, &measures);
            ctx.writer.record_cell(&key, trial_count, &measures);
            ctx.writer.record_perf(&key, obs);
        }
    }
    println!("{table}");
    println!("for p < 1/2 the max degree stays below √t — exactly the regime");
    println!("where the strong-model lower bound Ω(n^(1/2−p−ε)) is non-trivial.");
    Ok(())
}
