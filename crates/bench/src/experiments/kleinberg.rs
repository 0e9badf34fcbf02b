//! E11 — Kleinberg's navigability dichotomy: greedy routing is polylog
//! only at the critical exponent `r = 2` (2-D lattice).
//!
//! One cell per (r, side): sample the lattice, then route uniformly
//! random pairs greedily, every pair drawn from the lattice's own
//! stream. That shared stream makes a cell serial, so the lattices of
//! one `r` are the scheduler's trials, one per side. `--sizes`
//! overrides the lattice sides; hops count as requests in the perf
//! record.

use super::{note_corpus_ignored, print_banner};
use nonsearch_analysis::SampleStats;
use nonsearch_core::ScalingSeries;
use nonsearch_engine::{
    run_trials, CellKey, CellObs, CellTable, ExpContext, ExperimentSpec, JsonValue, Metrics,
    PhaseClock, PhaseTimes,
};
use nonsearch_generators::{rng_from_seed, KleinbergGrid, SeedSequence};
use nonsearch_graph::NodeId;
use nonsearch_search::greedy_route;
use rand::Rng;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "kleinberg",
    id: "E11",
    claim: "greedy routing on the 2-D small-world lattice is O(log² n) only at r = 2",
    default_seed: 0xE11,
    run,
};

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E11 / Kleinberg navigability",
        "greedy routing on the 2-D small-world lattice is O(log² n) at \
         r = 2 and polynomially slower at other exponents",
    );
    note_corpus_ignored(ctx, "Kleinberg lattices are sampled in place.");

    let sides = ctx.options.sweep(&[16, 32, 64, 128, 256]);
    let r_values = [0.0, 1.0, 2.0, 3.0];
    let routes = ctx.options.trial_count(300);
    let seeds = SeedSequence::new(ctx.seed);

    let mut series = ScalingSeries::new(r_values.len());
    let mut table = CellTable::new(&[
        ("r", "r", 1),
        ("side", "side", 0),
        ("n", "n", 0),
        ("mean_hops", "mean hops", 1),
        ("ci95", "±", 1),
        ("hops_per_log2_sq", "hops / log2²(n)", 3),
    ]);
    for (ri, &r) in r_values.iter().enumerate() {
        let mut cells = Vec::with_capacity(sides.len());
        run_trials(
            sides.len(),
            ctx.options.threads,
            &seeds.subsequence(ri as u64),
            || (),
            |(), _, si, cell_seeds| route_cell(sides[si], r, routes, &cell_seeds),
            |cell| cells.push(cell),
        );
        for (&side, (hops, _)) in sides.iter().zip(&cells) {
            series.push(ri, (side * side) as f64, hops.mean());
        }
        let exponent = series.exponent(ri);
        for (&side, (hops, obs)) in sides.iter().zip(&cells) {
            let n = side * side;
            let key = CellKey::new().with("r", r).with("side", side).with("n", n);
            let measures = [
                ("mean_hops", JsonValue::from(hops.mean())),
                ("ci95", JsonValue::from(hops.ci95_half_width())),
                (
                    "hops_per_log2_sq",
                    JsonValue::from(hops.mean() / (n as f64).log2().powi(2)),
                ),
                ("exponent", JsonValue::from(exponent)),
            ];
            table.row(&key, &measures);
            ctx.writer.record_cell(&key, routes, &measures);
            // The perf record carries no `side`.
            let perf_key = CellKey::new().with("r", r).with("n", n);
            ctx.writer.record_perf(&perf_key, obs);
        }
        if let Some(slope) = exponent {
            println!(
                "r = {r:.1}: hops ~ n^{slope:.3}  {}",
                if r == 2.0 {
                    "(navigable: ratio column flat, tiny exponent)"
                } else {
                    "(polynomial growth away from r = 2)"
                }
            );
        }
    }
    println!("\n{table}");
    println!("the r = 2 row's hops/log² column stays near-constant; r = 0, 1");
    println!("and 3 drift upward — Kleinberg's dichotomy, the positive contrast");
    println!("to the paper's negative result for scale-free graphs.");
    Ok(())
}

/// One (r, side) cell, measured serially in one trial: the lattice is
/// sampled from the cell's root stream, then `routes` greedy routes
/// between random pairs drawn from the same stream.
fn route_cell(side: usize, r: f64, routes: usize, seeds: &SeedSequence) -> (SampleStats, CellObs) {
    let cell_clock = PhaseClock::start();
    let n = side * side;
    let mut rng = rng_from_seed(seeds.root());
    let mut phases = PhaseTimes::new();
    let grid = phases.time_fetch(false, || {
        KleinbergGrid::sample(side, r, 1, &mut rng).expect("valid grid")
    });
    let clock = PhaseClock::start();
    let mut metrics = Metrics::new();
    let hops: Vec<f64> = (0..routes)
        .map(|_| {
            let s = NodeId::new(rng.gen_range(0..n));
            let t = NodeId::new(rng.gen_range(0..n));
            let out = greedy_route(&grid, s, t, 100 * n);
            assert!(out.reached, "greedy cannot get stuck on a full lattice");
            metrics.trials += 1;
            metrics.requests += out.steps as u64;
            metrics.observe_trial_requests(out.steps as u64);
            out.steps as f64
        })
        .collect();
    phases.search_ns += clock.elapsed_ns();
    let obs = CellObs {
        metrics,
        ..CellObs::serial(routes as u64, phases, cell_clock.elapsed_ns())
    };
    (SampleStats::from_slice(&hops).expect("routes ≥ 1"), obs)
}
