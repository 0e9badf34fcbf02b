//! The `xp` command table: the registered experiment suite and the
//! tools.
//!
//! Each submodule is one experiment on the engine: its claim, pretty
//! tables and seed derivations, plus JSONL cell records via
//! [`ExpContext::writer`], one perf record per measured cell under
//! `--profile`, and the shared flag set (`--quick`, `--threads`,
//! `--seed`, `--out`, `--trials`, `--sizes`, …). See `EXPERIMENTS.md`
//! for the full map.

mod ablation;
mod adamic;
mod correlation;
mod degree_dist;
mod diameter;
mod kleinberg;
mod lemma1_bound;
mod lemma2_equiv;
mod lemma3_event;
mod maxdeg;
mod null_model;
mod percolation;
mod theorem1_strong;
mod theorem1_weak;
mod theorem2_cf;

use nonsearch_analysis::Table;
use nonsearch_core::{
    BarabasiAlbertModel, CertifyConfig, CooperFriezeModel, GraphModel, MergedMoriModel,
    ModelSource, ScalingSeries,
};
use nonsearch_corpus::{Corpus, LoadMode};
use nonsearch_engine::{CellObs, ExpContext, GraphSource, JsonValue, LaneAggregate, Registry};

/// Builds the `xp` command table: every experiment, the engine's tools,
/// and `corpus`, `lint` and `chaos`.
pub fn registry() -> Registry {
    let mut r = Registry::default();
    r.register(theorem1_weak::SPEC)
        .register(theorem1_strong::SPEC)
        .register(theorem2_cf::SPEC)
        .register(lemma1_bound::SPEC)
        .register(lemma2_equiv::SPEC)
        .register(lemma3_event::SPEC)
        .register(maxdeg::SPEC)
        .register(degree_dist::SPEC)
        .register(diameter::SPEC)
        .register(adamic::SPEC)
        .register(kleinberg::SPEC)
        .register(percolation::SPEC)
        .register(ablation::SPEC)
        .register(correlation::SPEC)
        .register(null_model::SPEC)
        .register_tool(nonsearch_corpus::cli::TOOL)
        .register_tool(nonsearch_lint::cli::TOOL)
        .register_tool(crate::chaos::TOOL);
    r
}

/// Opens the corpus named by `--corpus`, if any, honouring `--heal`
/// (quarantine and regenerate a corrupt stored file instead of failing
/// the load).
///
/// # Panics
///
/// Panics (aborting the run) when the flag names a missing or corrupt
/// corpus — running generate-per-trial instead would silently ignore an
/// explicit request.
pub(super) fn open_corpus(ctx: &ExpContext) -> Option<Corpus> {
    ctx.options.corpus.as_ref().map(|dir| {
        Corpus::open_healing(dir, LoadMode::Mmap, ctx.options.heal)
            .unwrap_or_else(|e| panic!("--corpus {}: {e}", dir.display()))
    })
}

/// The trial-graph source for `model` over `sizes`: the corpus when one
/// was given *and* it stores this model at these sizes, else
/// generate-per-trial (with a printed note explaining the fallback, so
/// a sweep mixing corpus-backed and generated models is visible).
pub(super) fn resolve_source<'a, M: GraphModel + Sync>(
    corpus: Option<&'a Corpus>,
    model: &'a M,
    sizes: &[usize],
) -> Box<dyn GraphSource + 'a> {
    if let Some(corpus) = corpus {
        match corpus.check_compatible(&model.name(), sizes) {
            Ok(()) => {
                let source = corpus.source();
                println!("graphs: {}", source.describe());
                return Box::new(source);
            }
            Err(e) => println!("note: generating {} instead — {e}", model.name()),
        }
    }
    Box::new(ModelSource::new(model))
}

/// The evolving models `diameter` and `correlation` contrast, with
/// their table labels.
fn evolving_models() -> Vec<(&'static str, Box<dyn GraphModel + Sync>)> {
    vec![
        (
            "mori(p=0.6,m=2)",
            Box::new(MergedMoriModel { p: 0.6, m: 2 }),
        ),
        (
            "cooper-frieze(α=0.7)",
            Box::new(CooperFriezeModel::balanced(0.7)),
        ),
        (
            "barabasi-albert(m=2)",
            Box::new(BarabasiAlbertModel { m: 2 }),
        ),
    ]
}

/// Reports a certification sweep of `model` under `config`: prints one
/// table row per (searcher, size), writes one cell record per (searcher,
/// size) — `id`, then the searcher, `n`, trials, seed, mean, ci95,
/// success and the searcher's fitted exponent — and one perf record per
/// size. Returns the sweep's series.
fn report_sweep(
    ctx: &mut ExpContext,
    model: &str,
    id: &[(&str, JsonValue)],
    config: &CertifyConfig,
    sweep: &[(Vec<LaneAggregate>, CellObs)],
) -> ScalingSeries {
    let series = ScalingSeries::of_sweep(&config.sizes, sweep);
    let mut table = Table::with_columns(&[
        "algorithm",
        "n",
        "mean requests",
        "ci95",
        "success",
        "exponent",
    ]);
    for (lane, kind) in config.searchers.iter().enumerate() {
        let exponent = series.exponent(lane);
        for (i, (&n, (lanes, _))) in config.sizes.iter().zip(sweep).enumerate() {
            let aggregate = lanes[lane];
            table.row(vec![
                kind.name().to_string(),
                n.to_string(),
                format!("{:.1}", aggregate.mean()),
                format!("{:.1}", aggregate.ci95()),
                format!("{:.2}", aggregate.success_rate()),
                if i + 1 == sweep.len() {
                    exponent.map_or("-".to_string(), |e| format!("{e:.3}"))
                } else {
                    String::new()
                },
            ]);
            let mut fields = id.to_vec();
            fields.extend([
                ("searcher", JsonValue::from(kind.name())),
                ("n", JsonValue::from(n)),
                ("trials", JsonValue::from(config.trials)),
                ("seed", JsonValue::from(config.seed)),
                ("mean", JsonValue::from(aggregate.mean())),
                ("ci95", JsonValue::from(aggregate.ci95())),
                ("success", JsonValue::from(aggregate.success_rate())),
                ("exponent", JsonValue::from(exponent)),
            ]);
            ctx.writer.record_cell(fields).expect("write cell record");
        }
    }
    println!("searchability report for {model}\n{table}");
    record_sweep_perf(ctx, id, &config.sizes, sweep);
    series
}

/// Writes the perf record of every size cell of a certification sweep
/// over `sizes`, identified by `fields` plus the cell's `n`.
fn record_sweep_perf(
    ctx: &mut ExpContext,
    fields: &[(&str, JsonValue)],
    sizes: &[usize],
    sweep: &[(Vec<LaneAggregate>, CellObs)],
) {
    for ((_, cell), &n) in sweep.iter().zip(sizes) {
        let mut id = fields.to_vec();
        id.push(("n", JsonValue::from(n)));
        ctx.writer.record_perf(id, cell).expect("write perf record");
    }
}

/// Tells a `--corpus` run that this experiment samples its graphs in
/// place; `why` finishes the sentence. An explicit flag is never
/// dropped silently.
fn note_corpus_ignored(ctx: &ExpContext, why: &str) {
    if ctx.options.corpus.is_some() {
        println!("note: --corpus has no effect here — {why}\n");
    }
}

/// The standard experiment banner, driven by the run's options.
fn print_banner(ctx: &ExpContext, id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    if ctx.options.quick {
        println!("mode: QUICK (reduced sweep; run without --quick for the full table)");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_ten_experiments() {
        let r = registry();
        let names = [
            "theorem1-weak",
            "theorem1-strong",
            "theorem2-cf",
            "lemma1-bound",
            "lemma2-equiv",
            "lemma3-event",
            "maxdeg",
            "degree-dist",
            "diameter",
            "adamic",
            "kleinberg",
            "percolation",
            "ablation",
            "correlation",
            "null-model",
        ];
        for name in names {
            assert!(r.find(name).is_some(), "{name} missing");
        }
        let experiments = r.names().filter(|n| r.find(n).is_some()).count();
        assert_eq!(experiments, names.len());
        assert_eq!(r.names().count(), names.len() + 6);
    }

    #[test]
    fn ids_and_claims_are_nonempty_and_unique() {
        let r = registry();
        let specs: Vec<_> = r.names().filter_map(|n| r.find(n)).collect();
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), specs.len());
        for spec in specs {
            assert!(!spec.claim.is_empty(), "{} has no claim", spec.name);
        }
    }
}
