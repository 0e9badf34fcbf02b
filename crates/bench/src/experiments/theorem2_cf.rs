//! E3 — Theorem 2: every Cooper–Frieze model with `0 < α < 1` needs
//! `Ω(n^{1/2})` weak-model requests to find vertex `n`.
//!
//! Sweeps `α × n`, races the searcher suite through the engine and fits
//! each algorithm's scaling exponent — the Cooper–Frieze counterpart of
//! `theorem1-weak`, with the same record taxonomy (`cell` rows per
//! algorithm point; one `perf` row per size cell under `--profile`).

use super::{open_corpus, print_banner, record_sweep_perf, resolve_source};
use nonsearch_core::{certify_with_source, CertifyConfig, CooperFriezeModel, GraphModel};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_search::{SearcherKind, SuccessCriterion};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "theorem2-cf",
    id: "E3",
    claim: "all Cooper–Frieze models with 0 < α < 1 require Ω(n^0.5) requests",
    default_seed: 0xE3,
    run,
};

fn run(ctx: &mut ExpContext) {
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
    let corpus = open_corpus(ctx);

    for &alpha in &alphas {
        let model = CooperFriezeModel::balanced(alpha);
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
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        let report = certify_with_source(model.name(), &*source, &config);
        println!("{report}");

        for algorithm in &report.algorithms {
            let exponent = algorithm.exponent();
            for pt in &algorithm.points {
                ctx.writer
                    .record_cell(vec![
                        ("model", JsonValue::from("cooper-frieze")),
                        ("alpha", JsonValue::from(alpha)),
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
                ("model", JsonValue::from("cooper-frieze")),
                ("alpha", JsonValue::from(alpha)),
            ],
            &sizes,
            &report,
        );

        if let Some(expo) = report.best_exponent() {
            println!("fitted exponent of best algorithm: {expo:.3} (theory: ≥ 0.5)\n");
        }
    }
}
