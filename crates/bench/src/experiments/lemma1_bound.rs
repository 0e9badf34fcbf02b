//! E6 — Lemma 1 composition: `|V|·P(E)/2` against measured search cost.
//!
//! The sanity contract of a lower bound: for every size, every algorithm's
//! measured mean must sit at or above the bound, and the bound itself
//! must grow like √n.

use super::{open_corpus, print_banner, record_sweep_perf, resolve_source};
use nonsearch_analysis::{fit_log_log, Table};
use nonsearch_core::{
    certify_with_source, mori_event_probability_exact, theorem1_weak_bound, BoundComparison,
    CertifyConfig, EquivalenceWindow, GraphModel, MergedMoriModel,
};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_search::{SearcherKind, SuccessCriterion};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma1-bound",
    id: "E6",
    claim: "|V|·P(E)/2 lower-bounds every measured searcher and grows as √n",
    default_seed: 0xE6,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E6 / Lemma 1 (bound arithmetic)",
        "|V|·P(E)/2 must lower-bound every measured searcher and grow as √n",
    );

    let p = 0.5;
    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192]);
    let trial_count = ctx.options.trial_count(10);
    let model = MergedMoriModel { p, m: 1 };
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
    let corpus = open_corpus(ctx);
    let source = resolve_source(corpus.as_ref(), &model, &sizes);
    let report = certify_with_source(model.name(), &*source, &config);

    let mut table =
        Table::with_columns(&["n", "|V|", "P(E) exact", "bound", "best measured", "holds"]);
    let best = report.best_algorithm().expect("suite is non-empty");
    let mut bound_series = Vec::new();
    for pt in &best.points {
        let w = EquivalenceWindow::for_target(pt.n);
        let prob = mori_event_probability_exact(w.a(), w.b(), p).expect("valid window");
        let bound = theorem1_weak_bound(pt.n, p).expect("valid n, p");
        let cmp = BoundComparison {
            n: pt.n,
            bound,
            measured: pt.mean_requests,
        };
        table.row(vec![
            pt.n.to_string(),
            w.len().to_string(),
            format!("{prob:.4}"),
            format!("{bound:.1}"),
            format!("{:.1}", pt.mean_requests),
            if cmp.holds() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        ctx.writer
            .record_cell(vec![
                ("model", JsonValue::from("mori")),
                ("p", JsonValue::from(p)),
                ("n", JsonValue::from(pt.n)),
                ("window", JsonValue::from(w.len())),
                ("event_probability", JsonValue::from(prob)),
                ("bound", JsonValue::from(bound)),
                ("searcher", JsonValue::from(best.kind.name())),
                ("trials", JsonValue::from(trial_count)),
                ("seed", JsonValue::from(ctx.seed)),
                ("mean", JsonValue::from(pt.mean_requests)),
                ("ci95", JsonValue::from(pt.ci95)),
                ("success", JsonValue::from(pt.success_rate)),
                ("holds", JsonValue::from(cmp.holds())),
            ])
            .expect("write cell record");
        bound_series.push((pt.n as f64, bound));
    }
    // The certify sweep already observed each size cell; report it
    // exactly like theorem1-weak does.
    record_sweep_perf(
        ctx,
        &[
            ("model", JsonValue::from("mori")),
            ("p", JsonValue::from(p)),
        ],
        &sizes,
        &report,
    );
    println!("best algorithm: {}", best.kind.name());
    println!("{table}");

    let xs: Vec<f64> = bound_series.iter().map(|&(n, _)| n).collect();
    let ys: Vec<f64> = bound_series.iter().map(|&(_, b)| b).collect();
    if let Some(fit) = fit_log_log(&xs, &ys) {
        println!(
            "bound growth exponent: {:.3} (theory: 0.5 exactly, up to ⌊√⌋ jitter)",
            fit.slope
        );
    }
}
