//! Textual model specs for `xp corpus build --model`.
//!
//! A spec is `name[:key=value,...]`, e.g. `mori:p=0.6,m=1` or `ba:m=2`.
//! Parsing produces the same [`GraphModel`] implementations the
//! experiments sweep, so a corpus can be built for any of them.

use crate::error::CorpusError;
use nonsearch_core::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, PowerLawGiantModel,
    UniformAttachmentModel,
};
use std::collections::BTreeMap;

/// The default spec — the Móri model of Theorem 1 at the parameters the
/// `theorem1-weak` and `ablation` experiments sweep in quick mode.
pub const DEFAULT_MODEL_SPEC: &str = "mori:p=0.6,m=1";

/// A boxed model that can be shared across builder worker threads.
pub type BoxedModel = Box<dyn GraphModel + Send + Sync>;

/// Parses a model spec into a sampleable model.
///
/// Supported specs (all parameters optional, shown with defaults):
///
/// * `mori:p=0.6,m=1` — merged Móri graph `G^{(m)}`
/// * `ba:m=2` — Barabási–Albert
/// * `uniform:m=1` — uniform attachment
/// * `cooper-frieze:alpha=0.7` — balanced Cooper–Frieze
/// * `power-law:k=2.5,dmin=1` — Molloy–Reed giant component
///
/// # Errors
///
/// Returns [`CorpusError::ModelSpec`] for unknown names, unknown keys,
/// or unparseable values.
pub fn parse_model(spec: &str) -> Result<BoxedModel, CorpusError> {
    let bad = |reason: String| CorpusError::ModelSpec {
        spec: spec.to_string(),
        reason,
    };
    let (name, params) = match spec.split_once(':') {
        Some((n, p)) => (n, p),
        None => (spec, ""),
    };
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in params.split(',').filter(|s| !s.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| bad(format!("parameter {pair:?} is not key=value")))?;
        kv.insert(k, v);
    }
    let model: BoxedModel = match name {
        "mori" => {
            let p = f64_param(&mut kv, "p", 0.6, spec)?;
            let m = usize_param(&mut kv, "m", 1, spec)?;
            Box::new(MergedMoriModel { p, m })
        }
        "ba" | "barabasi-albert" => {
            let m = usize_param(&mut kv, "m", 2, spec)?;
            Box::new(BarabasiAlbertModel { m })
        }
        "uniform" | "uniform-attachment" => {
            let m = usize_param(&mut kv, "m", 1, spec)?;
            Box::new(UniformAttachmentModel { m })
        }
        "cooper-frieze" => {
            let alpha = f64_param(&mut kv, "alpha", 0.7, spec)?;
            if !(alpha > 0.0 && alpha <= 1.0) {
                return Err(bad(format!("alpha={alpha} outside (0, 1]")));
            }
            Box::new(CooperFriezeModel::balanced(alpha))
        }
        "power-law" => {
            let exponent = f64_param(&mut kv, "k", 2.5, spec)?;
            let d_min = usize_param(&mut kv, "dmin", 1, spec)?;
            if exponent <= 1.0 {
                return Err(bad(format!("k={exponent} must exceed 1")));
            }
            Box::new(PowerLawGiantModel { exponent, d_min })
        }
        other => {
            return Err(bad(format!(
                "unknown model {other:?} (know mori, ba, uniform, cooper-frieze, power-law)"
            )))
        }
    };
    if let Some((k, _)) = kv.into_iter().next() {
        return Err(bad(format!("unknown parameter {k:?} for model {name:?}")));
    }
    Ok(model)
}

fn f64_param(
    kv: &mut BTreeMap<&str, &str>,
    key: &str,
    default: f64,
    spec: &str,
) -> Result<f64, CorpusError> {
    match kv.remove(key) {
        None => Ok(default),
        Some(v) => v.parse::<f64>().map_err(|e| CorpusError::ModelSpec {
            spec: spec.to_string(),
            reason: format!("parameter {key}={v:?}: {e}"),
        }),
    }
}

fn usize_param(
    kv: &mut BTreeMap<&str, &str>,
    key: &str,
    default: usize,
    spec: &str,
) -> Result<usize, CorpusError> {
    match kv.remove(key) {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|e| CorpusError::ModelSpec {
            spec: spec.to_string(),
            reason: format!("parameter {key}={v:?}: {e}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_parses_to_the_e1_quick_model() {
        let model = parse_model(DEFAULT_MODEL_SPEC).unwrap();
        assert_eq!(model.name(), "mori(p=0.6,m=1)");
    }

    #[test]
    fn all_model_families_parse() {
        for (spec, name_fragment) in [
            ("mori:p=0.3,m=2", "mori(p=0.3,m=2)"),
            ("ba:m=3", "barabasi-albert(m=3)"),
            ("barabasi-albert", "barabasi-albert(m=2)"),
            ("uniform:m=2", "uniform-attachment(m=2)"),
            ("cooper-frieze:alpha=0.5", "a=0.5"),
            ("power-law:k=2.3,dmin=2", "k=2.3"),
        ] {
            let model = parse_model(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                model.name().contains(name_fragment),
                "{spec} -> {}",
                model.name()
            );
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for spec in [
            "nope",
            "mori:p=high",
            "mori:wat=1",
            "ba:m",
            "cooper-frieze:alpha=0",
            "power-law:k=0.5",
        ] {
            let err = match parse_model(spec) {
                Err(e) => e,
                Ok(m) => panic!("{spec} unexpectedly parsed to {}", m.name()),
            };
            assert!(err.to_string().contains(spec), "{spec}: {err}");
        }
    }

    #[test]
    fn parsed_models_sample() {
        let model = parse_model("ba:m=2").unwrap();
        let g = model.sample_graph(100, &mut nonsearch_generators::rng_from_seed(1));
        assert_eq!(g.node_count(), 100);
    }
}
