//! The registered experiment suite behind `xp` and the legacy binaries.
//!
//! Each submodule ports one `exp_*` binary onto the engine: same claim,
//! same pretty tables, same seed derivations — plus structured JSONL/CSV
//! cell records via [`ExpContext::writer`] and the shared flag set
//! (`--quick`, `--threads`, `--seed`, `--out`, `--format`, `--trials`,
//! `--sizes`). The remaining experiments still run as standalone
//! binaries; see `EXPERIMENTS.md` for the full map.

mod ablation;
mod degree_dist;
mod lemma1_bound;
mod lemma2_equiv;
mod lemma3_event;
mod maxdeg;
mod null_model;
mod theorem1_strong;
mod theorem1_weak;
mod theorem2_cf;

use nonsearch_core::{GraphModel, ModelSource, SearchabilityReport};
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
        .register(ablation::SPEC)
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

/// Opens the corpus named by `--corpus`, if any, honouring `--mmap`
/// (zero-copy memory-mapped loads instead of heap decodes — the served
/// graphs are byte-identical either way) and `--trust-checksums`
/// (skip the per-load payload hash; run `corpus verify` first).
///
/// # Panics
///
/// Panics (aborting the run) when the flag names a missing or corrupt
/// corpus — running generate-per-trial instead would silently ignore an
/// explicit request.
pub(super) fn open_corpus(ctx: &ExpContext) -> Option<Corpus> {
    let mode = if ctx.options.mmap {
        LoadMode::Mmap
    } else {
        LoadMode::Heap
    };
    ctx.options.corpus.as_ref().map(|dir| {
        Corpus::open_with_trust(dir, mode, ctx.options.trust_checksums)
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

/// Entry point for a legacy `exp_*` binary: dispatches `name` through
/// the registry with leniently-parsed process arguments.
pub fn run_legacy(name: &str) {
    nonsearch_engine::run_legacy(&registry(), name);
}

/// The standard experiment banner, driven by the run's own options
/// (not the process-global ones, so `xp` subcommands report correctly).
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
        assert!(r.specs().len() >= 10, "only {} registered", r.specs().len());
        for name in [
            "theorem1-weak",
            "theorem1-strong",
            "theorem2-cf",
            "lemma1-bound",
            "lemma2-equiv",
            "lemma3-event",
            "maxdeg",
            "degree-dist",
            "ablation",
            "null-model",
        ] {
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
