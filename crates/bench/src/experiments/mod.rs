//! The `xp` command table: the registered experiment suite and the
//! tools.
//!
//! Each submodule is one experiment on the engine: its claim, pretty
//! tables and seed derivations, plus JSONL cell records via
//! [`ExpContext::writer`] and one perf record per measured cell under
//! `--profile`, both written from the cell's [`CellKey`], and the shared
//! flag set (`--quick`, `--threads`, `--seed`, `--out`, `--trials`,
//! `--sizes`, …). See `EXPERIMENTS.md` for the full map.

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

use nonsearch_core::{
    BarabasiAlbertModel, CertifyConfig, CooperFriezeModel, GraphModel, MergedMoriModel,
    ModelSource, ScalingSeries,
};
use nonsearch_corpus::{Corpus, LoadMode};
use nonsearch_engine::{
    CellKey, CellObs, CellTable, ExpContext, GraphSource, JsonValue, LaneAggregate, Registry,
};
use std::io;

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
/// # Errors
///
/// Fails the run, naming the directory, when the flag names a corpus
/// that cannot be opened (missing, corrupt or of an older format):
/// running generate-per-trial instead would silently ignore an explicit
/// request.
pub(super) fn open_corpus(ctx: &ExpContext) -> io::Result<Option<Corpus>> {
    ctx.options
        .corpus
        .as_ref()
        .map(|dir| {
            Corpus::open_healing(dir, LoadMode::Mmap, ctx.options.heal)
                .map_err(|e| io::Error::other(format!("--corpus {}: {e}", dir.display())))
        })
        .transpose()
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

/// Reports a certification sweep of `model` under `config`: one cell
/// per (searcher, size) — `id`, then the searcher and `n`; its
/// [`lane_measures`] and the searcher's fitted exponent — printed as one
/// table, and one perf record per size, keyed `id` then `n`. Returns the
/// sweep's series.
fn report_sweep(
    ctx: &mut ExpContext,
    model: &str,
    id: &CellKey,
    config: &CertifyConfig,
    sweep: &[(Vec<LaneAggregate>, CellObs)],
) -> ScalingSeries {
    let series = ScalingSeries::of_sweep(&config.sizes, sweep);
    let mut table = CellTable::new(&[
        ("searcher", "algorithm", 0),
        ("n", "n", 0),
        ("mean", "mean requests", 1),
        ("ci95", "ci95", 1),
        ("success", "success", 2),
        ("exponent", "exponent", 3),
    ]);
    for (lane, kind) in config.searchers.iter().enumerate() {
        for (&n, (lanes, _)) in config.sizes.iter().zip(sweep) {
            let key = id.clone().with("searcher", kind.name()).with("n", n);
            let mut measures = lane_measures(&lanes[lane]);
            measures.push(("exponent", JsonValue::from(series.exponent(lane))));
            table.row(&key, &measures);
            ctx.writer.record_cell(&key, config.trials, &measures);
        }
    }
    println!("searchability report for {model}\n{table}");
    for (&n, (_, obs)) in config.sizes.iter().zip(sweep) {
        ctx.writer.record_perf(&id.clone().with("n", n), obs);
    }
    series
}

/// A search lane's cell measures: `mean`, `ci95` and `success`.
fn lane_measures(lane: &LaneAggregate) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("mean", JsonValue::from(lane.mean())),
        ("ci95", JsonValue::from(lane.ci95())),
        ("success", JsonValue::from(lane.success_rate())),
    ]
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
