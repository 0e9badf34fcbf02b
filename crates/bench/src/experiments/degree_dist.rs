//! E8 — scale-freeness of the models: power-law degree distributions.
//!
//! Port of the legacy `exp_degree_dist` binary onto the engine: same
//! claim, table, and CCDF sketch, plus deterministic parallel trials,
//! `--corpus` graph sourcing (models the corpus doesn't store fall back
//! to generation with a note), and structured cell/perf records under
//! `--out`. Only degrees are read: a generated trial counts them from
//! the attachment trace and builds no graph, while a stored graph
//! yields its CSR's degrees.

use super::{open_corpus, print_banner, resolve_source};
use nonsearch_analysis::{fit_power_law_mle, log_binned_histogram, Table};
use nonsearch_core::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, UniformAttachmentModel,
};
use nonsearch_corpus::Corpus;
use nonsearch_engine::{
    run_lanes_observed, CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue, PhaseClock,
    TrialMeasure,
};
use nonsearch_generators::{MoriTree, SeedSequence};
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "degree-dist",
    id: "E8",
    claim: "Móri & Cooper–Frieze graphs are scale-free (power-law degrees); \
            uniform attachment is the non-scale-free control",
    default_seed: 0xE8,
    run,
};

/// Minimum degree included in the MLE tail fit (as in the legacy
/// binary: degrees ≥ 3, past the attachment-rule floor).
const FIT_MIN_DEGREE: usize = 3;

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E8 / degree distributions",
        "Móri & Cooper–Frieze graphs are scale-free (power-law degrees); \
         uniform attachment is the non-scale-free control",
    );

    let default_n = if ctx.options.quick { 20_000 } else { 100_000 };
    let n = *ctx
        .options
        .sweep(&[default_n])
        .last()
        .expect("sweep of a non-empty default is non-empty");
    let trial_count = ctx.options.trial_count(5);
    let seeds = SeedSequence::new(ctx.seed);
    let corpus = open_corpus(ctx)?;

    let mut table = CellTable::new(&[
        ("model", "model", 0),
        ("exponent", "fitted k", 2),
        ("ci95", "ci95", 2),
        ("tail", "tail n", 0),
        ("ks", "KS", 3),
    ]);
    let mut cell = ModelCell {
        ctx,
        corpus: corpus.as_ref(),
        n,
        trial_count,
        seeds: &seeds,
        table: &mut table,
        model_idx: 0,
    };
    cell.run(&MergedMoriModel { p: 0.3, m: 1 });
    cell.run(&MergedMoriModel { p: 0.6, m: 1 });
    cell.run(&MergedMoriModel { p: 0.9, m: 1 });
    cell.run(&CooperFriezeModel::balanced(0.7));
    cell.run(&BarabasiAlbertModel { m: 2 });
    cell.run(&UniformAttachmentModel { m: 1 });
    println!("{table}");

    // CCDF sketch for one Móri run: log-binned densities. Display-only
    // (no records), sampled directly as in the legacy binary.
    let mut rng = seeds.subsequence(99).child_rng(0);
    let degrees = MoriTree::sample(n, 0.6, &mut rng).unwrap().degrees();
    println!("log-binned degree histogram, mori(p=0.6), n = {n}:");
    let mut hist_table = Table::with_columns(&["bin", "count", "density"]);
    for bin in log_binned_histogram(&degrees, 2.0) {
        hist_table.row(vec![
            format!("[{}, {})", bin.lo, bin.hi),
            bin.count.to_string(),
            format!("{:.2}", bin.density),
        ]);
    }
    println!("{hist_table}");
    println!("power-law tails (straight lines in log-log) for the attachment");
    println!("models; the uniform-attachment control decays geometrically.");
    Ok(())
}

/// One model = one cell: lanes carry (exponent, KS, tail size) per
/// trial, aggregated bit-identically for any `--threads`.
struct ModelCell<'a, 'b> {
    ctx: &'a mut ExpContext<'b>,
    corpus: Option<&'a Corpus>,
    n: usize,
    trial_count: usize,
    seeds: &'a SeedSequence,
    table: &'a mut CellTable,
    model_idx: u64,
}

impl ModelCell<'_, '_> {
    fn run<M: GraphModel + Sync>(&mut self, model: &M) {
        let mi = self.model_idx;
        self.model_idx += 1;
        let _span = self.ctx.tracer.span("model-cell");
        let source = resolve_source(self.corpus, model, &[self.n]);
        let cell_seeds = self.seeds.subsequence(mi);
        let (lanes, obs) = run_lanes_observed(
            self.trial_count,
            3,
            self.ctx.options.threads,
            &cell_seeds,
            || (),
            |(), obs, trial, trial_seeds| {
                let degrees = obs.phases.time_fetch(source.is_stored(), || {
                    source.trial_degrees(self.n, trial, &trial_seeds)
                });
                let clock = PhaseClock::start();
                let fit = fit_power_law_mle(&degrees, FIT_MIN_DEGREE);
                obs.phases.analyze_ns += clock.elapsed_ns();
                match fit {
                    Some(fit) => vec![
                        TrialMeasure::new(fit.exponent, true),
                        TrialMeasure::new(fit.ks_distance, true),
                        TrialMeasure::new(fit.tail_size as f64, true),
                    ],
                    None => vec![TrialMeasure::new(0.0, false); 3],
                }
            },
        );
        let (exponent, ks, tail) = (&lanes[0], &lanes[1], &lanes[2]);
        let key = CellKey::new().with("model", model.name()).with("n", self.n);
        let measures = [
            ("exponent", JsonValue::from(exponent.mean())),
            ("ci95", JsonValue::from(exponent.ci95())),
            ("ks", JsonValue::from(ks.mean())),
            ("tail", JsonValue::from(tail.mean())),
            ("fits", JsonValue::from(exponent.successes)),
        ];
        self.table.row(&key, &measures);
        let writer = &mut self.ctx.writer;
        writer.record_cell(&key, self.trial_count, &measures);
        writer.record_perf(&key, &obs);
    }
}
