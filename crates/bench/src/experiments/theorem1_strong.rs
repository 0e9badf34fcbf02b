//! E2 — Theorem 1, strong model: for `p < 1/2`, strong-model search
//! needs `Ω(n^{1/2−p−ε})` requests; the slowdown argument runs strong
//! algorithms natively and through the weak-model simulation.

use super::{lane_measures, open_corpus, print_banner, resolve_source, StrongKind, STRONG_BUDGET};
use nonsearch_core::{
    hub_to_newest, search_cell, strong_model_exponent, MergedMoriModel, ScalingSeries,
};
use nonsearch_engine::{CellKey, CellTable, ExpContext, ExperimentSpec};
use nonsearch_generators::SeedSequence;
use nonsearch_search::run_strong_in;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem1-strong",
    id: "E2",
    claim: "for p < 1/2, strong-model search needs Ω(n^(1/2−p−ε)) requests",
    default_seed: 0xE2,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E2 / Theorem 1 (strong model)",
        "for p < 1/2, strong-model search needs Ω(n^(1/2−p−ε)) requests; \
         max degree t^p bounds the weak→strong slowdown",
    );

    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192, 16384]);
    let trial_count = ctx.options.trial_count(10);
    let p_values = if ctx.options.quick {
        vec![0.2]
    } else {
        vec![0.2, 0.4]
    };
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx)?;
    let tracer = ctx.tracer.clone();

    for &p in &p_values {
        let model = MergedMoriModel { p, m: 1 };
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        println!("model: mori(p={p}, m=1), strong oracle");
        let mut table = CellTable::new(&[
            ("searcher", "searcher", 0),
            ("n", "n", 0),
            ("mean", "mean requests", 1),
            ("ci95", "ci95", 1),
            ("success", "success", 2),
        ]);
        let mut series = ScalingSeries::new(StrongKind::ALL.len());
        for (lane, kind) in StrongKind::ALL.iter().enumerate() {
            for (i, &n) in sizes.iter().enumerate() {
                let _cell_span = tracer.span("size-cell");
                let cell_seeds = seeds
                    .subsequence((p * 100.0) as u64)
                    .subsequence(i as u64)
                    .subsequence(kind.name().len() as u64);
                let (lanes, obs) = search_cell(
                    &*source,
                    n,
                    trial_count,
                    ctx.options.threads,
                    &cell_seeds,
                    &[*kind],
                    StrongKind::build,
                    run_strong_in,
                    |graph, _| hub_to_newest(graph, STRONG_BUDGET),
                    &tracer,
                );
                let cell = lanes[0];
                let key = CellKey::new()
                    .with("model", "mori")
                    .with("p", p)
                    .with("m", 1usize)
                    .with("searcher", kind.name())
                    .with("n", n);
                let measures = lane_measures(&cell);
                table.row(&key, &measures);
                ctx.writer.record_cell(&key, trial_count, &measures);
                ctx.writer.record_perf(&key, &obs);
                series.push(lane, n as f64, cell.mean());
            }
        }
        println!("{table}");
        if let Some(slope) = series.best_lane().and_then(|best| series.exponent(best)) {
            let floor = strong_model_exponent(p, 0.0);
            println!(
                "best strong searcher exponent: {slope:.3} (theoretical floor 1/2−p = {floor:.2})\n"
            );
        }
    }
    Ok(())
}
