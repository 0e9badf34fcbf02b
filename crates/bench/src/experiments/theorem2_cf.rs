//! E3 — Theorem 2: every Cooper–Frieze model with `0 < α < 1` needs
//! `Ω(n^{1/2})` weak-model requests to find vertex `n`.
//!
//! Sweeps `α × n`, races the searcher suite through the engine and fits
//! each algorithm's scaling exponent — the Cooper–Frieze counterpart of
//! `theorem1-weak`, with the same record taxonomy (`cell` rows per
//! algorithm point; one `perf` row per size cell under `--profile`).

use super::{open_corpus, print_banner, report_sweep, resolve_source, suite_sweep};
use nonsearch_core::{CooperFriezeModel, GraphModel};
use nonsearch_engine::{CellKey, ExpContext, ExperimentSpec};
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem2-cf",
    id: "E3",
    claim: "all Cooper–Frieze models with 0 < α < 1 require Ω(n^0.5) requests",
    default_seed: 0xE3,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E3 / Theorem 2 (Cooper–Frieze, weak model)",
        "all Cooper–Frieze models with 0 < α < 1 require Ω(n^0.5) requests; \
         measured best exponents should sit at or above ~0.5",
    );

    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192]);
    let trial_count = ctx.options.trial_count(10);
    let alphas = if ctx.options.quick {
        vec![0.6]
    } else {
        vec![0.5, 0.8]
    };
    let corpus = open_corpus(ctx)?;

    for &alpha in &alphas {
        let model = CooperFriezeModel::balanced(alpha);
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        let sweep = suite_sweep(ctx, &*source, &sizes, trial_count);
        let id = CellKey::new()
            .with("model", "cooper-frieze")
            .with("alpha", alpha);
        let series = report_sweep(ctx, &model.name(), &id, &sizes, trial_count, &sweep);
        if let Some(expo) = series.best_lane().and_then(|best| series.exponent(best)) {
            println!("fitted exponent of best algorithm: {expo:.3} (theory: ≥ 0.5)\n");
        }
    }
    Ok(())
}
