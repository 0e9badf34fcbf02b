//! E6 — Lemma 1 composition: `|V|·P(E)/2` against measured search cost.
//!
//! The sanity contract of a lower bound: for every size, every algorithm's
//! measured mean must sit at or above the bound, and the bound itself
//! must grow like √n.

use super::{open_corpus, print_banner, record_sweep_perf, resolve_source};
use nonsearch_analysis::Table;
use nonsearch_core::{
    certify, mori_event_probability_exact, theorem1_weak_bound, BoundComparison, CertifyConfig,
    EquivalenceWindow, MergedMoriModel, ScalingSeries,
};
use nonsearch_engine::{ExpContext, ExperimentSpec, JsonValue};
use nonsearch_search::SearcherKind;

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
        budget_multiplier: 30,
        threads: ctx.options.threads,
        tracer: ctx.tracer.clone(),
    };
    let corpus = open_corpus(ctx);
    let source = resolve_source(corpus.as_ref(), &model, &sizes);
    let sweep = certify(&*source, &config);

    let mut table =
        Table::with_columns(&["n", "|V|", "P(E) exact", "bound", "best measured", "holds"]);
    let best = ScalingSeries::of_sweep(&sizes, &sweep)
        .best_lane()
        .expect("suite is non-empty");
    let best_name = config.searchers[best].name();
    let mut bound_growth = ScalingSeries::new(1);
    for (&n, (lanes, _)) in sizes.iter().zip(&sweep) {
        let measured = lanes[best];
        let w = EquivalenceWindow::for_target(n);
        let prob = mori_event_probability_exact(w.a(), w.b(), p).expect("valid window");
        let bound = theorem1_weak_bound(n, p).expect("valid n, p");
        let cmp = BoundComparison {
            n,
            bound,
            measured: measured.mean(),
        };
        table.row(vec![
            n.to_string(),
            w.len().to_string(),
            format!("{prob:.4}"),
            format!("{bound:.1}"),
            format!("{:.1}", measured.mean()),
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
                ("n", JsonValue::from(n)),
                ("window", JsonValue::from(w.len())),
                ("event_probability", JsonValue::from(prob)),
                ("bound", JsonValue::from(bound)),
                ("searcher", JsonValue::from(best_name)),
                ("trials", JsonValue::from(trial_count)),
                ("seed", JsonValue::from(ctx.seed)),
                ("mean", JsonValue::from(measured.mean())),
                ("ci95", JsonValue::from(measured.ci95())),
                ("success", JsonValue::from(measured.success_rate())),
                ("holds", JsonValue::from(cmp.holds())),
            ])
            .expect("write cell record");
        bound_growth.push(0, n as f64, bound);
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
        &sweep,
    );
    println!("best algorithm: {best_name}");
    println!("{table}");

    if let Some(slope) = bound_growth.exponent(0) {
        println!("bound growth exponent: {slope:.3} (theory: 0.5 exactly, up to ⌊√⌋ jitter)");
    }
}
