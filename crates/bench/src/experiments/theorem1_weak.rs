//! E1 — Theorem 1, weak model: any local search for vertex `n` in the
//! (merged) Móri model needs `Ω(n^{1/2})` expected requests.
//!
//! Sweeps `p × m × n`, races the searcher suite through the engine, fits
//! each algorithm's scaling exponent and prints the per-size Lemma 1
//! lower bound next to the best measured mean.

use super::{open_corpus, print_banner, report_sweep, resolve_source};
use nonsearch_analysis::Table;
use nonsearch_core::{certify, theorem1_weak_bound, CertifyConfig, GraphModel, MergedMoriModel};
use nonsearch_engine::{CellKey, ExpContext, ExperimentSpec};
use nonsearch_search::SearcherKind;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem1-weak",
    id: "E1",
    claim: "expected requests to find vertex n in Móri(p, m) is Ω(n^0.5)",
    default_seed: 0xE1,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E1 / Theorem 1 (weak model)",
        "expected requests to find vertex n in Móri(p, m) is Ω(n^0.5); \
         measured best-algorithm exponent should be ≥ ~0.5",
    );

    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192, 16384]);
    let trial_count = ctx.options.trial_count(12);
    let p_values = if ctx.options.quick {
        vec![0.6]
    } else {
        vec![0.3, 0.6, 1.0]
    };
    let m_values = if ctx.options.quick {
        vec![1]
    } else {
        vec![1, 3]
    };
    let corpus = open_corpus(ctx)?;

    for &p in &p_values {
        for &m in &m_values {
            let model = MergedMoriModel { p, m };
            let config = CertifyConfig {
                sizes: sizes.clone(),
                trials: trial_count,
                seed: ctx.seed,
                searchers: SearcherKind::informed().to_vec(),
                budget_multiplier: 30,
                threads: ctx.options.threads,
                tracer: ctx.tracer.clone(),
            };
            // A corpus built with this experiment's seed and sizes
            // serves the exact per-trial graphs, so the sweep (and the
            // emitted cell records) are bit-identical to generating.
            let source = resolve_source(corpus.as_ref(), &model, &sizes);
            let sweep = certify(&*source, &config);
            let id = CellKey::new()
                .with("model", "mori")
                .with("p", p)
                .with("m", m);
            let series = report_sweep(ctx, &model.name(), &id, &config, &sweep);

            let mut bound_table =
                Table::with_columns(&["n", "lemma1 bound", "best measured", "slack"]);
            let best = series.best_lane().expect("suite is non-empty");
            for (&n, (lanes, _)) in sizes.iter().zip(&sweep) {
                let bound = theorem1_weak_bound(n, p).expect("valid n, p");
                let mean = lanes[best].mean();
                bound_table.row(vec![
                    n.to_string(),
                    format!("{bound:.1}"),
                    format!("{mean:.1}"),
                    format!("{:.1}x", mean / bound),
                ]);
            }
            println!("lower bound vs best ({}):", config.searchers[best].name());
            println!("{bound_table}");
            if let Some(expo) = series.exponent(best) {
                println!("fitted exponent of best algorithm: {expo:.3} (theory: ≥ 0.5)\n");
            }
        }
    }
    Ok(())
}
