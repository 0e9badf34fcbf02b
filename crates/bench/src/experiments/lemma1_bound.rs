//! E6 — Lemma 1 composition: `|V|·P(E)/2` against measured search cost.
//!
//! The sanity contract of a lower bound: for every size, every algorithm's
//! measured mean must sit at or above the bound, and the bound itself
//! must grow like √n.

use super::{lane_measures, open_corpus, print_banner, resolve_source, suite_sweep};
use nonsearch_core::{
    mori_event_probability_exact, theorem1_weak_bound, EquivalenceWindow, MergedMoriModel,
    ScalingSeries,
};
use nonsearch_engine::{CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue};
use nonsearch_search::SearcherKind;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma1-bound",
    id: "E6",
    claim: "|V|·P(E)/2 lower-bounds every measured searcher and grows as √n",
    default_seed: 0xE6,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E6 / Lemma 1 (bound arithmetic)",
        "|V|·P(E)/2 must lower-bound every measured searcher and grow as √n",
    );

    let p = 0.5;
    let sizes = ctx.options.sweep(&[512, 1024, 2048, 4096, 8192]);
    let trial_count = ctx.options.trial_count(10);
    let model = MergedMoriModel { p, m: 1 };
    let corpus = open_corpus(ctx)?;
    let source = resolve_source(corpus.as_ref(), &model, &sizes);
    let sweep = suite_sweep(ctx, &*source, &sizes, trial_count);

    let mut table = CellTable::new(&[
        ("n", "n", 0),
        ("window", "|V|", 0),
        ("event_probability", "P(E) exact", 4),
        ("bound", "bound", 1),
        ("mean", "best measured", 1),
        ("holds", "holds", 0),
    ]);
    let best = ScalingSeries::of_sweep(&sizes, &sweep)
        .best_lane()
        .expect("suite is non-empty");
    let best_name = SearcherKind::informed()[best].name();
    let mut bound_growth = ScalingSeries::new(1);
    for (&n, (lanes, obs)) in sizes.iter().zip(&sweep) {
        let measured = lanes[best];
        let w = EquivalenceWindow::for_target(n);
        let prob = mori_event_probability_exact(w.a(), w.b(), p).expect("valid window");
        let bound = theorem1_weak_bound(n, p).expect("valid n, p");
        // The sweep observed the whole size cell, every lane.
        let size_key = CellKey::new()
            .with("model", "mori")
            .with("p", p)
            .with("n", n);
        let key = size_key
            .clone()
            .measure("window", w.len())
            .measure("event_probability", prob)
            .measure("bound", bound)
            .with("searcher", best_name);
        let mut measures = lane_measures(&measured);
        measures.push(("holds", JsonValue::from(measured.mean() >= bound)));
        table.row(&key, &measures);
        ctx.writer.record_cell(&key, trial_count, &measures);
        ctx.writer.record_perf(&size_key, obs);
        bound_growth.push(0, n as f64, bound);
    }
    println!("best algorithm: {best_name}");
    println!("{table}");

    if let Some(slope) = bound_growth.exponent(0) {
        println!("bound growth exponent: {slope:.3} (theory: 0.5 exactly, up to ⌊√⌋ jitter)");
    }
    Ok(())
}
