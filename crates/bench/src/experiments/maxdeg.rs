//! E7 — Móri's maximum degree: the max degree of `G_t` grows like `t^p`
//! (Móri 2005), the ingredient of Theorem 1's strong-model transfer.
//!
//! Port of the legacy `exp_maxdeg` binary onto the engine: same claim
//! and table, plus deterministic parallel cells, `--corpus` graph
//! sourcing, and structured cell/perf records under `--out`.

use super::{open_corpus, print_banner, resolve_source};
use nonsearch_analysis::{fit_log_log, Table};
use nonsearch_core::{mori_max_degree_exponent, MergedMoriModel};
use nonsearch_engine::{run_lanes_observed, ExpContext, ExperimentSpec, JsonValue, TrialMeasure};
use nonsearch_generators::SeedSequence;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "maxdeg",
    id: "E7",
    claim: "max degree of the Móri tree grows like t^p — log-log slope ≈ p",
    default_seed: 0xE7,
    run,
};

fn run(ctx: &mut ExpContext) {
    print_banner(
        ctx,
        "E7 / max degree growth",
        "max degree of the Móri tree grows like t^p — log-log slope ≈ p",
    );

    let sizes = ctx.options.sweep(&[1024, 4096, 16384, 65536, 262144]);
    let trial_count = ctx.options.trial_count(8);
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx);
    let tracer = ctx.tracer.clone();

    let mut table = Table::with_columns(&["p", "t", "mean max degree", "ci95", "fitted slope"]);
    for (pi, &p) in [0.2f64, 0.5, 0.8].iter().enumerate() {
        let model = MergedMoriModel { p, m: 1 };
        let source = resolve_source(corpus.as_ref(), &model, &sizes);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rows = Vec::new();
        for (si, &t) in sizes.iter().enumerate() {
            let _cell_span = tracer.span("size-cell");
            let cell_seeds = seeds.subsequence(pi as u64).subsequence(si as u64);
            let (lanes, obs) = run_lanes_observed(
                trial_count,
                1,
                ctx.options.threads,
                &cell_seeds,
                || (),
                |(), obs, trial, trial_seeds| {
                    let graph = obs.phases.time_fetch(source.is_stored(), || {
                        source.trial_graph(t, trial, &trial_seeds)
                    });
                    let (_, d) = graph.max_degree().expect("sampled trees are non-empty");
                    vec![TrialMeasure::new(d as f64, true)]
                },
            );
            let aggregate = lanes[0];
            xs.push(t as f64);
            ys.push(aggregate.mean());
            rows.push((t, aggregate.mean(), aggregate.ci95(), obs));
        }
        let slope = fit_log_log(&xs, &ys).map(|f| f.slope);
        let theory = mori_max_degree_exponent(p);
        for (i, &(t, mean, ci, obs)) in rows.iter().enumerate() {
            let slope_cell = if i + 1 == xs.len() {
                slope.map_or("-".into(), |s| format!("{s:.3} (theory {theory:.1})"))
            } else {
                String::new()
            };
            table.row(vec![
                format!("{p:.1}"),
                t.to_string(),
                format!("{mean:.1}"),
                format!("{ci:.1}"),
                slope_cell,
            ]);
            ctx.writer
                .record_cell(vec![
                    ("model", JsonValue::from("mori")),
                    ("p", JsonValue::from(p)),
                    ("n", JsonValue::from(t)),
                    ("trials", JsonValue::from(trial_count)),
                    ("seed", JsonValue::from(ctx.seed)),
                    ("mean_max_degree", JsonValue::from(mean)),
                    ("ci95", JsonValue::from(ci)),
                    ("slope", JsonValue::from(slope)),
                    ("theory_exponent", JsonValue::from(theory)),
                ])
                .expect("write cell record");
            ctx.writer
                .record_perf(
                    vec![
                        ("model", JsonValue::from("mori")),
                        ("p", JsonValue::from(p)),
                        ("n", JsonValue::from(t)),
                    ],
                    &obs,
                )
                .expect("write perf record");
        }
    }
    println!("{table}");
    println!("for p < 1/2 the max degree stays below √t — exactly the regime");
    println!("where the strong-model lower bound Ω(n^(1/2−p−ε)) is non-trivial.");
}
