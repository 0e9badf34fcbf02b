//! E4 — Lemma 3: with `b = a + ⌊√(a−1)⌋`, `P(E_{a,b}) ≥ e^{−(1−p)}`.
//!
//! Prints, for each `(p, a)`, the exact conditional-product probability,
//! a Monte-Carlo estimate from real Móri trees, and the paper's bound.

use super::{note_corpus_ignored, print_banner};
use nonsearch_core::{
    estimate_mori_event_probability, lemma3_bound, mori_event_probability_exact, EquivalenceWindow,
};
use nonsearch_engine::{CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue};
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma3-event",
    id: "E4",
    claim: "P(E_{a,b}) ≥ e^{−(1−p)} at the √a window",
    default_seed: 0xE4,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E4 / Lemma 3 (event probability)",
        "P(E_{a,b}) ≥ e^{−(1−p)} at the √a window — exact product vs \
         Monte-Carlo vs bound",
    );
    note_corpus_ignored(
        ctx,
        "the Monte-Carlo term checks the window event on attachment traces \
         (construction provenance), which stored CSR graphs do not carry.",
    );

    let p_values = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    let anchors: Vec<usize> = if ctx.options.quick {
        vec![100, 1_000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };
    let mc_trials = ctx.options.trial_count(2_000);

    let mut table = CellTable::new(&[
        ("p", "p", 2),
        ("a", "a", 0),
        ("window", "window |V|", 0),
        ("exact", "exact P(E)", 4),
        ("monte_carlo", "monte carlo", 4),
        ("mc_std_error", "±", 4),
        ("bound", "bound e^-(1-p)", 4),
        ("holds", "holds", 0),
    ]);
    let tracer = ctx.tracer.clone();
    for &p in &p_values {
        for &a in &anchors {
            let _cell_span = tracer.span("size-cell");
            let w = EquivalenceWindow::from_anchor(a);
            let exact =
                mori_event_probability_exact(w.a(), w.b(), p).expect("valid window parameters");
            // Monte Carlo on the big anchors is costly; sample the small ones.
            let mc = (a <= 1_000).then(|| {
                estimate_mori_event_probability(&w, p, mc_trials, ctx.seed, ctx.options.threads)
                    .expect("valid estimation parameters")
            });
            let estimate = mc.as_ref().map(|(estimate, _)| estimate);
            let bound = lemma3_bound(p);
            let key = CellKey::new()
                .with("p", p)
                .with("a", a)
                .with("window", w.len());
            let measures = [
                ("exact", JsonValue::from(exact)),
                ("monte_carlo", JsonValue::from(estimate.map(|e| e.estimate))),
                (
                    "mc_std_error",
                    JsonValue::from(estimate.map(|e| e.std_error)),
                ),
                ("bound", JsonValue::from(bound)),
                ("holds", JsonValue::from(exact >= bound - 1e-12)),
            ];
            table.row(&key, &measures);
            ctx.writer
                .record_cell(&key, estimate.map(|_| mc_trials), &measures);
            if let Some((_, obs)) = &mc {
                // Perf records name the anchor `n` and carry no window.
                let perf_key = CellKey::new().with("p", p).with("n", a);
                ctx.writer.record_perf(&perf_key, obs);
            }
        }
    }
    println!("{table}");
    println!("note: the bound is tight-ish for small p and slack for p → 1,");
    println!("where preferential attachment never reaches the fresh window.");
    Ok(())
}
