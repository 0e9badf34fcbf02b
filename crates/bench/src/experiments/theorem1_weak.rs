//! E1 — Theorem 1, weak model: any local search for vertex `n` in the
//! (merged) Móri model needs `Ω(n^{1/2})` expected requests.
//!
//! Sweeps `p × m × n`, races the searcher suite through the engine, fits
//! each algorithm's scaling exponent and prints the per-size Lemma 1
//! lower bound next to the best measured mean.

use super::{open_corpus, print_banner, record_sweep_perf, resolve_source};
use nonsearch_analysis::Table;
use nonsearch_core::{
    certify_with_source, theorem1_weak_bound, CertifyConfig, GraphModel, MergedMoriModel,
};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_search::{SearcherKind, SuccessCriterion};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem1-weak",
    id: "E1",
    claim: "expected requests to find vertex n in Móri(p, m) is Ω(n^0.5)",
    default_seed: 0xE1,
    run,
};

fn run(ctx: &mut ExpContext) {
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
    let corpus = open_corpus(ctx);

    for &p in &p_values {
        for &m in &m_values {
            let model = MergedMoriModel { p, m };
            let config = CertifyConfig {
                sizes: sizes.clone(),
                trials: trial_count,
                seed: ctx.seed,
                searchers: SearcherKind::informed().to_vec(),
                criterion: SuccessCriterion::DiscoverTarget,
                budget_multiplier: 30,
                threads: ctx.options.threads,
                tracer: ctx.tracer.clone(),
            };
            // A corpus built with this experiment's seed and sizes
            // serves the exact per-trial graphs, so the report (and the
            // emitted cell records) are bit-identical to generating.
            let source = resolve_source(corpus.as_ref(), &model, &sizes);
            let report = certify_with_source(model.name(), &*source, &config);
            println!("{report}");

            for algorithm in &report.algorithms {
                let exponent = algorithm.exponent();
                for pt in &algorithm.points {
                    ctx.writer
                        .record_cell(vec![
                            ("model", JsonValue::from("mori")),
                            ("p", JsonValue::from(p)),
                            ("m", JsonValue::from(m)),
                            ("searcher", JsonValue::from(algorithm.kind.name())),
                            ("n", JsonValue::from(pt.n)),
                            ("trials", JsonValue::from(trial_count)),
                            ("seed", JsonValue::from(ctx.seed)),
                            ("mean", JsonValue::from(pt.mean_requests)),
                            ("ci95", JsonValue::from(pt.ci95)),
                            ("success", JsonValue::from(pt.success_rate)),
                            ("exponent", JsonValue::from(exponent)),
                        ])
                        .expect("write cell record");
                }
            }

            record_sweep_perf(
                ctx,
                &[
                    ("model", JsonValue::from("mori")),
                    ("p", JsonValue::from(p)),
                    ("m", JsonValue::from(m)),
                ],
                &sizes,
                &report,
            );

            let mut bound_table =
                Table::with_columns(&["n", "lemma1 bound", "best measured", "slack"]);
            let best = report.best_algorithm().expect("suite is non-empty");
            for pt in &best.points {
                let bound = theorem1_weak_bound(pt.n, p).expect("valid n, p");
                bound_table.row(vec![
                    pt.n.to_string(),
                    format!("{bound:.1}"),
                    format!("{:.1}", pt.mean_requests),
                    format!("{:.1}x", pt.mean_requests / bound),
                ]);
            }
            println!("lower bound vs best ({}):", best.kind.name());
            println!("{bound_table}");
            if let Some(expo) = report.best_exponent() {
                println!("fitted exponent of best algorithm: {expo:.3} (theory: ≥ 0.5)\n");
            }
        }
    }
}
