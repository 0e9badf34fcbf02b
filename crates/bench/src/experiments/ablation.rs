//! E13 — ablations over the search-model knobs DESIGN.md calls out:
//! oracle strength, success criterion, and start-vertex policy.

use super::{lane_measures, open_corpus, print_banner, resolve_source};
use crate::{strong_cell, weak_cell, StartPolicy, StrongKind};
use nonsearch_core::MergedMoriModel;
use nonsearch_engine::{CellKey, CellObs, CellTable, ExpContext, ExperimentSpec, LaneAggregate};
use nonsearch_generators::SeedSequence;
use nonsearch_search::{SearcherKind, SuccessCriterion};
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "ablation",
    id: "E13",
    claim: "no model knob changes the Ω(√n)-shaped cost of finding vertex n",
    default_seed: 0xE13,
    run,
};

/// One ablation knob: its name and the table its measured cells fill.
struct Knob {
    name: &'static str,
    table: CellTable,
    trials: usize,
}

impl Knob {
    fn new(name: &'static str, trials: usize) -> Knob {
        let table = CellTable::new(&[
            ("variant", name, 0),
            ("n", "n", 0),
            ("mean", "mean requests", 1),
            ("success", "success", 2),
        ]);
        Knob {
            name,
            table,
            trials,
        }
    }

    /// Adds one measured cell of `variant` to the table and to the
    /// run's cell and perf records.
    fn record(&mut self, ctx: &mut ExpContext, variant: &str, n: usize, (lane, obs): Cell) {
        let key = CellKey::new()
            .with("model", "mori")
            .with("knob", self.name)
            .with("variant", variant)
            .with("n", n);
        let measures = lane_measures(&lane);
        self.table.row(&key, &measures);
        ctx.writer.record_cell(&key, self.trials, &measures);
        ctx.writer.record_perf(&key, &obs);
    }
}

/// One measured cell: the lane aggregate and its observation.
type Cell = (LaneAggregate, CellObs);

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E13 / ablations",
        "none of the model knobs (oracle strength, success criterion, \
         start policy) changes the Ω(√n)-shaped cost of finding vertex n",
    );

    let model = MergedMoriModel { p: 0.6, m: 1 };
    let sizes = ctx.options.sweep(&[1024, 4096, 16384]);
    let trial_count = ctx.options.trial_count(10);
    let threads = ctx.options.threads;
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx)?;
    let source = resolve_source(corpus.as_ref(), &model, &sizes);
    let tracer = ctx.tracer.clone();

    // Knob 1: weak vs strong vs simulated-strong oracle.
    println!("oracle strength (high-degree strategy):");
    let mut t1 = Knob::new("oracle", trial_count);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        let weak = weak_cell(
            &*source,
            n,
            SearcherKind::HighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trial_count,
            30,
            threads,
            &seeds.subsequence(si as u64),
        );
        t1.record(ctx, "weak", n, weak);
        let sim = weak_cell(
            &*source,
            n,
            SearcherKind::SimStrongHighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trial_count,
            30,
            threads,
            &seeds.subsequence(100 + si as u64),
        );
        t1.record(ctx, "simulated-strong", n, sim);
        let strong = strong_cell(
            &*source,
            n,
            StrongKind::HighDegree,
            trial_count,
            threads,
            &seeds.subsequence(200 + si as u64),
        );
        t1.record(ctx, "strong-native", n, strong);
    }
    println!("{}", t1.table);

    // Knob 2: success criterion.
    println!("success criterion (high-degree strategy, weak oracle):");
    let mut t2 = Knob::new("criterion", trial_count);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        for (criterion, name) in [
            (SuccessCriterion::DiscoverTarget, "discover target"),
            (SuccessCriterion::ReachNeighbor, "reach neighbor"),
        ] {
            let cell = weak_cell(
                &*source,
                n,
                SearcherKind::HighDegree,
                criterion,
                StartPolicy::OldestHub,
                trial_count,
                30,
                threads,
                &seeds.subsequence(300 + si as u64),
            );
            t2.record(ctx, name, n, cell);
        }
    }
    println!("{}", t2.table);

    // Knob 3: start policy.
    println!("start vertex policy (high-degree strategy, weak oracle):");
    let mut t3 = Knob::new("start", trial_count);
    for (si, &n) in sizes.iter().enumerate() {
        let _cell_span = tracer.span("size-cell");
        for policy in [
            StartPolicy::OldestHub,
            StartPolicy::Uniform,
            StartPolicy::NearTarget,
        ] {
            let cell = weak_cell(
                &*source,
                n,
                SearcherKind::HighDegree,
                SuccessCriterion::DiscoverTarget,
                policy,
                trial_count,
                30,
                threads,
                &seeds.subsequence(400 + si as u64),
            );
            t3.record(ctx, policy.name(), n, cell);
        }
    }
    println!("{}", t3.table);
    println!("expected shape: every row grows with n at the same √n-like rate;");
    println!("neighbor criterion and strong oracle shave constants, not the");
    println!("exponent — and starting next to the target barely helps, because");
    println!("label adjacency is not graph adjacency in these models.");
    Ok(())
}
