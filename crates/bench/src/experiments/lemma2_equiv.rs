//! E5 — Lemma 2: the window `[[a+1, b]]` is equivalent conditional on
//! `E_{a,b}`.
//!
//! Exact verification by enumeration for small trees (distribution
//! literally invariant under window transpositions), plus a statistical
//! symmetry test on sampled larger trees.

use super::print_banner;
use nonsearch_analysis::Table;
use nonsearch_core::{exact_window_exchangeability, sampled_window_symmetry, EquivalenceWindow};
use nonsearch_engine::{CellObs, ExpContext, ExperimentSpec, JsonValue, PhaseClock, PhaseTimes};

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma2-equiv",
    id: "E5",
    claim: "conditional on E_{a,b}, window vertices are interchangeable",
    default_seed: 0xE5,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E5 / Lemma 2 (vertex equivalence)",
        "conditional on E_{a,b}, window vertices are interchangeable: \
         exact check on small trees, z-test on sampled trees",
    );
    if ctx.options.corpus.is_some() {
        println!("note: --corpus has no effect here — this experiment inspects");
        println!("attachment traces (construction provenance), which stored CSR");
        println!("graphs do not carry; trees are enumerated/sampled in place.\n");
    }

    println!("exact enumeration check (trees of size b ≤ 9):");
    let mut exact_table =
        Table::with_columns(&["p", "window", "event mass", "max discrepancy", "verdict"]);
    for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        for (a, b) in [(4usize, 7usize), (5, 8), (6, 9)] {
            let w = EquivalenceWindow::with_bounds(a, b);
            let check = exact_window_exchangeability(&w, p).expect("small trees enumerate");
            let ok = check.is_exchangeable(1e-12);
            exact_table.row(vec![
                format!("{p:.2}"),
                format!("[[{}..{}]]", a + 1, b),
                format!("{:.5}", check.event_mass),
                format!("{:.2e}", check.max_discrepancy),
                if ok {
                    "exchangeable".into()
                } else {
                    "BROKEN".into()
                },
            ]);
            ctx.writer
                .record_cell(vec![
                    ("check", JsonValue::from("exact")),
                    ("p", JsonValue::from(p)),
                    ("a", JsonValue::from(a)),
                    ("window", JsonValue::from(w.len())),
                    ("trials", JsonValue::Null),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("statistic", JsonValue::from(check.max_discrepancy)),
                    ("threshold", JsonValue::from(1e-12)),
                    ("event_mass", JsonValue::from(check.event_mass)),
                    ("ok", JsonValue::from(ok)),
                ])
                .expect("write cell record");
        }
    }
    println!("{exact_table}");

    println!("sampled symmetry check (father-label means must match across positions):");
    let mut sampled_table = Table::with_columns(&[
        "p",
        "anchor a",
        "window |V|",
        "accepted",
        "max |z|",
        "verdict",
    ]);
    let sample_trials = ctx.options.trial_count(5_000);
    let tracer = ctx.tracer.clone();
    for &p in &[0.3, 0.6, 0.9] {
        for &a in &[50usize, 200] {
            let _cell_span = tracer.span("size-cell");
            let w = EquivalenceWindow::from_anchor(a);
            let clock = PhaseClock::start();
            let report = sampled_window_symmetry(&w, p, sample_trials, ctx.seed)
                .expect("event has constant probability, some trials accept");
            let sample_ns = clock.elapsed_ns();
            let ok = report.max_z < 4.0;
            sampled_table.row(vec![
                format!("{p:.2}"),
                a.to_string(),
                w.len().to_string(),
                format!("{}/{}", report.accepted, report.attempted),
                format!("{:.2}", report.max_z),
                if ok {
                    "consistent".into()
                } else {
                    "suspicious".into()
                },
            ]);
            ctx.writer
                .record_cell(vec![
                    ("check", JsonValue::from("sampled")),
                    ("p", JsonValue::from(p)),
                    ("a", JsonValue::from(a)),
                    ("window", JsonValue::from(w.len())),
                    ("trials", JsonValue::from(report.attempted)),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("statistic", JsonValue::from(report.max_z)),
                    ("threshold", JsonValue::from(4.0)),
                    ("event_mass", JsonValue::Null),
                    ("ok", JsonValue::from(ok)),
                ])
                .expect("write cell record");
            // Each trial grows a Móri tree over the window: generation
            // work, like lemma3-event's Monte Carlo.
            let phases = PhaseTimes {
                generate_ns: sample_ns,
                ..PhaseTimes::new()
            };
            ctx.writer
                .record_perf(
                    vec![
                        ("check", JsonValue::from("sampled")),
                        ("p", JsonValue::from(p)),
                        ("n", JsonValue::from(a)),
                    ],
                    &CellObs::serial(report.attempted as u64, phases, sample_ns),
                )
                .expect("write perf record");
        }
    }
    println!("{sampled_table}");
    println!("(|z| is a max over O(|V|²) comparisons; values under ~4 are");
    println!("what exchangeability predicts at these sample sizes.)");
}
