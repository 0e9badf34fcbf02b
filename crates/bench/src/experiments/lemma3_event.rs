//! E4 — Lemma 3: with `b = a + ⌊√(a−1)⌋`, `P(E_{a,b}) ≥ e^{−(1−p)}`.
//!
//! Prints, for each `(p, a)`, the exact conditional-product probability,
//! a Monte-Carlo estimate from real Móri trees, and the paper's bound.

use super::print_banner;
use nonsearch_analysis::Table;
use nonsearch_core::{
    estimate_mori_event_probability, lemma3_bound, mori_event_probability_exact, EquivalenceWindow,
};
use nonsearch_engine::{CellObs, ExpContext, ExperimentSpec, JsonValue, PhaseClock, PhaseTimes};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma3-event",
    id: "E4",
    claim: "P(E_{a,b}) ≥ e^{−(1−p)} at the √a window",
    default_seed: 0xE4,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E4 / Lemma 3 (event probability)",
        "P(E_{a,b}) ≥ e^{−(1−p)} at the √a window — exact product vs \
         Monte-Carlo vs bound",
    );
    if ctx.options.corpus.is_some() {
        println!("note: --corpus has no effect here — the Monte-Carlo term checks");
        println!("the window event on attachment traces (construction provenance),");
        println!("which stored CSR graphs do not carry.\n");
    }

    let p_values = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    let anchors: Vec<usize> = if ctx.options.quick {
        vec![100, 1_000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };
    let mc_trials = ctx.options.trial_count(2_000);

    let mut table = Table::with_columns(&[
        "p",
        "a",
        "window |V|",
        "exact P(E)",
        "monte carlo",
        "bound e^-(1-p)",
        "holds",
    ]);
    let tracer = ctx.tracer.clone();
    for &p in &p_values {
        for &a in &anchors {
            let _cell_span = tracer.span("size-cell");
            let w = EquivalenceWindow::from_anchor(a);
            let exact =
                mori_event_probability_exact(w.a(), w.b(), p).expect("valid window parameters");
            // Monte Carlo on the big anchors is costly; sample the small ones.
            let clock = PhaseClock::start();
            let estimate = (a <= 1_000).then(|| {
                estimate_mori_event_probability(&w, p, mc_trials, ctx.seed)
                    .expect("valid estimation parameters")
            });
            let mc_ns = clock.elapsed_ns();
            let mc = estimate.as_ref().map_or("-".to_string(), |est| {
                format!("{:.4} ± {:.4}", est.estimate, est.std_error)
            });
            let bound = lemma3_bound(p);
            let holds = exact >= bound - 1e-12;
            table.row(vec![
                format!("{p:.2}"),
                a.to_string(),
                w.len().to_string(),
                format!("{exact:.4}"),
                mc,
                format!("{bound:.4}"),
                if holds { "yes".into() } else { "NO".into() },
            ]);
            ctx.writer
                .record_cell(vec![
                    ("p", JsonValue::from(p)),
                    ("a", JsonValue::from(a)),
                    ("window", JsonValue::from(w.len())),
                    (
                        "trials",
                        JsonValue::from(estimate.as_ref().map(|_| mc_trials)),
                    ),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("exact", JsonValue::from(exact)),
                    (
                        "monte_carlo",
                        JsonValue::from(estimate.as_ref().map(|e| e.estimate)),
                    ),
                    (
                        "mc_std_error",
                        JsonValue::from(estimate.as_ref().map(|e| e.std_error)),
                    ),
                    ("bound", JsonValue::from(bound)),
                    ("holds", JsonValue::from(holds)),
                ])
                .expect("write cell record");
            if estimate.is_some() {
                // Each Monte-Carlo trial grows a fresh Móri tree over the
                // window and tests the event: generation work.
                let phases = PhaseTimes {
                    generate_ns: mc_ns,
                    ..PhaseTimes::new()
                };
                ctx.writer
                    .record_perf(
                        vec![("p", JsonValue::from(p)), ("n", JsonValue::from(a))],
                        &CellObs::serial(mc_trials as u64, phases, mc_ns),
                    )
                    .expect("write perf record");
            }
        }
    }
    println!("{table}");
    println!("note: the bound is tight-ish for small p and slack for p → 1,");
    println!("where preferential attachment never reaches the fresh window.");
}
