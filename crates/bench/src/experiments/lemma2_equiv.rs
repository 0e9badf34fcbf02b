//! E5 — Lemma 2: the window `[[a+1, b]]` is equivalent conditional on
//! `E_{a,b}`.
//!
//! Exact verification by enumeration for small trees (distribution
//! literally invariant under window transpositions), plus a statistical
//! symmetry test on sampled larger trees.

use super::{note_corpus_ignored, print_banner};
use nonsearch_analysis::Table;
use nonsearch_core::{exact_window_exchangeability, sampled_window_symmetry, EquivalenceWindow};
use nonsearch_engine::{CellKey, ExpContext, ExperimentSpec, JsonValue};
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "lemma2-equiv",
    id: "E5",
    claim: "conditional on E_{a,b}, window vertices are interchangeable",
    default_seed: 0xE5,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E5 / Lemma 2 (vertex equivalence)",
        "conditional on E_{a,b}, window vertices are interchangeable: \
         exact check on small trees, z-test on sampled trees",
    );
    note_corpus_ignored(
        ctx,
        "this experiment inspects attachment traces (construction provenance), \
         which stored CSR graphs do not carry; trees are enumerated/sampled in place.",
    );

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
            let key = CellKey::new()
                .with("check", "exact")
                .with("p", p)
                .with("a", a)
                .with("window", w.len());
            let measures = [
                ("statistic", JsonValue::from(check.max_discrepancy)),
                ("threshold", JsonValue::from(1e-12)),
                ("event_mass", JsonValue::from(check.event_mass)),
                ("ok", JsonValue::from(ok)),
            ];
            ctx.writer.record_cell(&key, JsonValue::Null, &measures);
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
            let (report, obs) =
                sampled_window_symmetry(&w, p, sample_trials, ctx.seed, ctx.options.threads)
                    .expect("event has constant probability, some trials accept");
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
            let key = CellKey::new()
                .with("check", "sampled")
                .with("p", p)
                .with("a", a)
                .with("window", w.len());
            let measures = [
                ("statistic", JsonValue::from(report.max_z)),
                ("threshold", JsonValue::from(4.0)),
                ("event_mass", JsonValue::Null),
                ("ok", JsonValue::from(ok)),
            ];
            ctx.writer.record_cell(&key, report.attempted, &measures);
            // Perf records name the anchor `n` (every perf record has
            // one) and carry no window.
            let perf_key = CellKey::new()
                .with("check", "sampled")
                .with("p", p)
                .with("n", a);
            ctx.writer.record_perf(&perf_key, &obs);
        }
    }
    println!("{sampled_table}");
    println!("(|z| is a max over O(|V|²) comparisons; values under ~4 are");
    println!("what exchangeability predicts at these sample sizes.)");
    Ok(())
}
