//! E9 — the contrast: diameters and average distances stay logarithmic
//! while search cost is polynomial (paper §conclusion).
//!
//! One cell per (model, n): each trial samples a graph, then measures
//! its average distance (BFS from 8 random sources) and a double-sweep
//! diameter lower bound. The BFS sweeps are charged to the search
//! phase, so `--profile` shows what the distance kernels cost.

use super::{evolving_models, note_corpus_ignored, print_banner};
use nonsearch_analysis::{average_distance, diameter_lower_bound_double_sweep, fit_linear, Table};
use nonsearch_engine::{
    run_lanes_observed, CellKey, ExpContext, ExperimentSpec, JsonValue, PhaseClock, TrialMeasure,
};
use nonsearch_generators::{rng_from_seed, SeedSequence};
use nonsearch_graph::NodeId;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "diameter",
    id: "E9",
    claim: "average distance and diameter grow like log n while search cost grows like √n",
    default_seed: 0xE9,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E9 / logarithmic distances",
        "avg distance & diameter grow like log n across the evolving models \
         — while Theorem 1/2 search cost grows like √n",
    );
    note_corpus_ignored(
        ctx,
        "each trial's graph and distance samples share the trial's root \
         stream, which stored graphs do not reproduce.",
    );

    let sizes = ctx.options.sweep(&[1024, 4096, 16384, 65536]);
    let trial_count = ctx.options.trial_count(5);
    let seeds = SeedSequence::new(ctx.seed);
    let tracer = ctx.tracer.clone();

    let mut table = Table::with_columns(&["model", "n", "avg distance", "diam ≥", "avg / log2(n)"]);
    for (mi, (name, model)) in evolving_models().iter().enumerate() {
        let mut cells = Vec::new();
        for (si, &n) in sizes.iter().enumerate() {
            let _cell_span = tracer.span("size-cell");
            let cell_seeds = seeds.subsequence(mi as u64).subsequence(si as u64);
            let (lanes, obs) = run_lanes_observed(
                trial_count,
                2,
                ctx.options.threads,
                &cell_seeds,
                || (),
                |(), obs, _, trial_seeds| {
                    let mut rng = rng_from_seed(trial_seeds.root());
                    let graph = obs
                        .phases
                        .time_fetch(false, || model.sample_graph(n, &mut rng));
                    let clock = PhaseClock::start();
                    let avg = average_distance(&graph, 8, &mut rng).expect("connected");
                    let diam = diameter_lower_bound_double_sweep(&graph, NodeId::from_label(1))
                        .expect("connected");
                    obs.phases.search_ns += clock.elapsed_ns();
                    vec![
                        TrialMeasure::new(avg, true),
                        TrialMeasure::new(diam as f64, true),
                    ]
                },
            );
            let (avg, diam) = (lanes[0], lanes[1]);
            table.row(vec![
                name.to_string(),
                n.to_string(),
                format!("{:.2} ±{:.2}", avg.mean(), avg.ci95()),
                format!("{:.1}", diam.mean()),
                format!("{:.3}", avg.mean() / (n as f64).log2()),
            ]);
            cells.push((n, avg, diam, obs));
        }
        let xs: Vec<f64> = cells.iter().map(|&(n, ..)| (n as f64).ln()).collect();
        let ys: Vec<f64> = cells.iter().map(|(_, avg, ..)| avg.mean()).collect();
        let fit = fit_linear(&xs, &ys);
        if let Some(fit) = &fit {
            println!(
                "{name}: avg distance ≈ {:.2}·ln(n) + {:.2} (R² = {:.3})",
                fit.slope, fit.intercept, fit.r_squared
            );
        }
        let slope = fit.map(|fit| fit.slope);
        for (n, avg, diam, obs) in &cells {
            let key = CellKey::new().with("model", *name).with("n", *n);
            let measures = [
                ("avg_distance", JsonValue::from(avg.mean())),
                ("ci95", JsonValue::from(avg.ci95())),
                ("diameter_lower_bound", JsonValue::from(diam.mean())),
                ("slope_per_ln_n", JsonValue::from(slope)),
            ];
            ctx.writer.record_cell(&key, trial_count, &measures);
            ctx.writer.record_perf(&key, obs);
        }
    }
    println!("\n{table}");
    println!("avg/log2(n) stabilizing to a constant = logarithmic growth; the");
    println!("same graphs cost Θ(√n) to search (E1/E3) — the paper's contrast.");
    Ok(())
}
