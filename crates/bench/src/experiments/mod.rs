//! The registered experiment suite behind `xp`.
//!
//! Each submodule is one experiment on the engine: its claim, pretty
//! tables and seed derivations, plus structured JSONL/CSV cell records
//! via [`ExpContext::writer`], one perf record per measured cell under
//! `--profile`, and the shared flag set (`--quick`, `--threads`,
//! `--seed`, `--out`, `--format`, `--trials`, `--sizes`). See
//! `EXPERIMENTS.md` for the full map.

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
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, ModelSource,
    SearchabilityReport,
};
use nonsearch_corpus::{Corpus, LoadMode};
use nonsearch_engine::{ExpContext, GraphSource, JsonValue, Registry};

/// Builds the registry of all ported experiments.
pub fn registry() -> Registry {
    let mut r = Registry::new();
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
        .add_usage_note(
            "corpus build|info|verify — persistent graph-ensemble store (xp corpus help)",
        )
        .add_usage_note(
            "bench [--quick]           — engine benchmark suite (writes BENCH_engine_suite.json)",
        )
        .add_usage_note(
            "lint [--root DIR] [--out FILE] — invariant linter (xp lint --help for the rules)",
        )
        .add_usage_note("chaos [EXPERIMENT] [flags]  — fault-injection gate (xp chaos --help)");
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

/// Writes the perf record of every size cell of a certification sweep
/// over `sizes`, identified by `fields` plus the cell's `n`.
fn record_sweep_perf(
    ctx: &mut ExpContext,
    fields: &[(&str, JsonValue)],
    sizes: &[usize],
    report: &SearchabilityReport,
) {
    for (cell, &n) in report.cells.iter().zip(sizes) {
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
        assert_eq!(r.specs().len(), names.len());
        for name in names {
            assert!(r.find(name).is_some(), "{name} missing");
        }
        assert!(r.usage().contains("corpus build|info|verify"));
    }

    #[test]
    fn ids_and_claims_are_nonempty_and_unique() {
        let r = registry();
        let mut ids: Vec<&str> = r.specs().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.specs().len());
        for spec in r.specs() {
            assert!(!spec.claim.is_empty(), "{} has no claim", spec.name);
        }
    }
}
