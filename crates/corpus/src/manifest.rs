//! `manifest.json` — the index of a corpus directory.
//!
//! The manifest records the generator provenance (model spec, root
//! seed, sizes, trials, variant policy) and one entry per stored graph
//! (file, shape, checksum, null-model variants). Everything except the
//! trailing `"build"` object is **deterministic**: two builds with the
//! same spec produce byte-identical manifests modulo that volatile
//! footer (git describe, wall time, thread count) — the same contract
//! the engine's run records follow with their `"type":"run"` line.

use crate::error::CorpusError;
use nonsearch_engine::json::{self, JsonValue};
use std::path::Path;

/// Name of the manifest file inside a corpus directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// The `format` tag identifying corpus manifests.
pub const FORMAT_TAG: &str = "nonsearch-corpus";
/// Current manifest schema version: 2, whose checksums are XXH64.
pub const MANIFEST_VERSION: u64 = 2;

/// One rewired null-model variant of a stored graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantEntry {
    /// Path of the variant's `.nsg` file, relative to the corpus dir.
    pub file: String,
    /// XXH64 (seed 0) checksum of the whole file
    /// ([`nsg::xxh64`](crate::nsg::xxh64)).
    pub checksum: u64,
}

/// One stored graph (plus its variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEntry {
    /// Index into [`Manifest::sizes`].
    pub size_idx: usize,
    /// Requested model size (the seed-derivation key).
    pub n: usize,
    /// Trial index within the size.
    pub trial: usize,
    /// Path of the `.nsg` file, relative to the corpus dir.
    pub file: String,
    /// Actual vertex count (may differ from `n`, e.g. giant components).
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// XXH64 (seed 0) checksum of the whole file
    /// ([`nsg::xxh64`](crate::nsg::xxh64)).
    pub checksum: u64,
    /// Degree-preserving rewired variants, in variant order.
    pub variants: Vec<VariantEntry>,
}

/// The volatile build envelope (excluded from determinism comparisons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// `git describe --always --dirty` at build time.
    pub git: String,
    /// Worker threads that ran the build.
    pub threads: usize,
    /// Wall-clock build time in milliseconds.
    pub wall_ms: u64,
}

/// The parsed content of `manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Display name of the generator, e.g. `mori(p=0.6,m=1)`.
    pub model: String,
    /// Parseable spec the builder was invoked with, e.g. `mori:p=0.6,m=1`.
    pub model_spec: String,
    /// Root seed of the ensemble.
    pub seed: u64,
    /// Stored graphs per size.
    pub trials: usize,
    /// Null-model variants per graph.
    pub variants: usize,
    /// Edge-swap chain length per variant, in swaps per edge.
    pub swaps_per_edge: usize,
    /// The size sweep, in size-index order.
    pub sizes: Vec<usize>,
    /// One entry per stored graph, ordered by `(size_idx, trial)`.
    pub graphs: Vec<GraphEntry>,
    /// Volatile build envelope (`None` for hand-written manifests).
    pub build: Option<BuildInfo>,
}

impl Manifest {
    /// Serializes the manifest, optionally including the volatile
    /// `"build"` object. `to_json(false)` is the deterministic form the
    /// byte-identity tests compare.
    pub(crate) fn to_json(&self, include_build: bool) -> JsonValue {
        let graphs: Vec<JsonValue> = self
            .graphs
            .iter()
            .map(|g| {
                let variants: Vec<JsonValue> = g
                    .variants
                    .iter()
                    .map(|v| {
                        JsonValue::object(vec![
                            ("file", JsonValue::from(v.file.as_str())),
                            ("checksum", JsonValue::from(format!("{:016x}", v.checksum))),
                        ])
                    })
                    .collect();
                JsonValue::object(vec![
                    ("size_idx", JsonValue::from(g.size_idx)),
                    ("n", JsonValue::from(g.n)),
                    ("trial", JsonValue::from(g.trial)),
                    ("file", JsonValue::from(g.file.as_str())),
                    ("nodes", JsonValue::from(g.nodes)),
                    ("edges", JsonValue::from(g.edges)),
                    ("checksum", JsonValue::from(format!("{:016x}", g.checksum))),
                    ("variants", JsonValue::Array(variants)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("format", JsonValue::from(FORMAT_TAG)),
            ("version", JsonValue::from(MANIFEST_VERSION)),
            ("model", JsonValue::from(self.model.as_str())),
            ("model_spec", JsonValue::from(self.model_spec.as_str())),
            // Hex string like the checksums: the full u64 range
            // round-trips exactly (JSON integers would go lossy-float
            // above i64::MAX).
            ("seed", JsonValue::from(format!("{:016x}", self.seed))),
            ("trials", JsonValue::from(self.trials)),
            ("variants", JsonValue::from(self.variants)),
            ("swaps_per_edge", JsonValue::from(self.swaps_per_edge)),
            (
                "sizes",
                JsonValue::Array(self.sizes.iter().map(|&n| JsonValue::from(n)).collect()),
            ),
            ("graphs", JsonValue::Array(graphs)),
        ];
        if include_build {
            if let Some(build) = &self.build {
                pairs.push((
                    "build",
                    JsonValue::object(vec![
                        ("git", JsonValue::from(build.git.as_str())),
                        ("threads", JsonValue::from(build.threads)),
                        ("wall_ms", JsonValue::from(build.wall_ms)),
                    ]),
                ));
            }
        }
        JsonValue::object(pairs)
    }

    /// Parses a manifest from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Manifest`] on malformed input.
    fn from_json_text(text: &str) -> Result<Manifest, CorpusError> {
        let value =
            json::parse(text).map_err(|e| CorpusError::manifest(format!("not JSON: {e}")))?;
        let str_field = |v: &JsonValue, key: &str| -> Result<String, CorpusError> {
            v.get(key)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| CorpusError::manifest(format!("missing string field {key:?}")))
        };
        let u64_field = |v: &JsonValue, key: &str| -> Result<u64, CorpusError> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| CorpusError::manifest(format!("missing integer field {key:?}")))
        };
        // Shared by checksums and the seed — all hex-string u64 fields.
        let checksum_field = |v: &JsonValue, key: &str| -> Result<u64, CorpusError> {
            let hex = str_field(v, key)?;
            u64::from_str_radix(&hex, 16)
                .map_err(|e| CorpusError::manifest(format!("bad hex field {key:?}={hex:?}: {e}")))
        };

        if str_field(&value, "format")? != FORMAT_TAG {
            return Err(CorpusError::manifest(format!(
                "format tag is not {FORMAT_TAG:?}"
            )));
        }
        let version = u64_field(&value, "version")?;
        if version != MANIFEST_VERSION {
            return Err(CorpusError::manifest(format!(
                "unsupported manifest version {version} (reader speaks {MANIFEST_VERSION}); \
                 corpora are derived artifacts: rebuild with `xp corpus build`"
            )));
        }

        let sizes: Vec<usize> = value
            .get("sizes")
            .and_then(|x| x.as_array())
            .ok_or_else(|| CorpusError::manifest("missing array field \"sizes\""))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| CorpusError::manifest("non-integer size"))
            })
            .collect::<Result<_, _>>()?;

        let graphs: Vec<GraphEntry> = value
            .get("graphs")
            .and_then(|x| x.as_array())
            .ok_or_else(|| CorpusError::manifest("missing array field \"graphs\""))?
            .iter()
            .map(|g| {
                let variants: Vec<VariantEntry> = g
                    .get("variants")
                    .and_then(|x| x.as_array())
                    .unwrap_or(&[])
                    .iter()
                    .map(|v| {
                        Ok(VariantEntry {
                            file: str_field(v, "file")?,
                            checksum: checksum_field(v, "checksum")?,
                        })
                    })
                    .collect::<Result<_, CorpusError>>()?;
                Ok(GraphEntry {
                    size_idx: u64_field(g, "size_idx")? as usize,
                    n: u64_field(g, "n")? as usize,
                    trial: u64_field(g, "trial")? as usize,
                    file: str_field(g, "file")?,
                    nodes: u64_field(g, "nodes")? as usize,
                    edges: u64_field(g, "edges")? as usize,
                    checksum: checksum_field(g, "checksum")?,
                    variants,
                })
            })
            .collect::<Result<_, CorpusError>>()?;

        let build = value
            .get("build")
            .map(|b| -> Result<BuildInfo, CorpusError> {
                Ok(BuildInfo {
                    git: str_field(b, "git")?,
                    threads: u64_field(b, "threads")? as usize,
                    wall_ms: u64_field(b, "wall_ms")?,
                })
            });

        Ok(Manifest {
            model: str_field(&value, "model")?,
            model_spec: str_field(&value, "model_spec")?,
            seed: checksum_field(&value, "seed")?,
            trials: u64_field(&value, "trials")? as usize,
            variants: u64_field(&value, "variants")? as usize,
            swaps_per_edge: u64_field(&value, "swaps_per_edge")? as usize,
            sizes,
            graphs,
            build: build.transpose()?,
        })
    }

    /// Reads and parses `<dir>/manifest.json`.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] if unreadable, else parse errors.
    pub fn read_from(dir: &Path) -> Result<Manifest, CorpusError> {
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| CorpusError::io(&path, e))?;
        Manifest::from_json_text(&text)
    }

    /// Writes `<dir>/manifest.json` (build envelope included), with the
    /// deterministic fields first so the volatile footer stays last.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Io`] on write failure.
    pub fn write_to(&self, dir: &Path) -> Result<(), CorpusError> {
        let path = dir.join(MANIFEST_FILE);
        let text = format!("{}\n", self.to_json(true));
        std::fs::write(&path, text).map_err(|e| CorpusError::io(&path, e))
    }

    /// Total stored files (originals plus variants).
    pub fn file_count(&self) -> usize {
        self.graphs
            .iter()
            .map(|g| 1 + g.variants.len())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            model: "mori(p=0.6,m=1)".into(),
            model_spec: "mori:p=0.6,m=1".into(),
            seed: 0xE1,
            trials: 2,
            variants: 1,
            swaps_per_edge: 10,
            sizes: vec![64, 128],
            graphs: vec![GraphEntry {
                size_idx: 0,
                n: 64,
                trial: 0,
                file: "graphs/s0000_t0000.nsg".into(),
                nodes: 64,
                edges: 63,
                checksum: 0xDEADBEEF,
                variants: vec![VariantEntry {
                    file: "graphs/s0000_t0000_v00.nsg".into(),
                    checksum: 0xFEEDFACE,
                }],
            }],
            build: Some(BuildInfo {
                git: "abc1234".into(),
                threads: 4,
                wall_ms: 17,
            }),
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let m = sample_manifest();
        let text = m.to_json(true).to_string();
        let back = Manifest::from_json_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn deterministic_form_omits_build() {
        let m = sample_manifest();
        let det = m.to_json(false).to_string();
        assert!(!det.contains("build"));
        assert!(!det.contains("wall_ms"));
        let back = Manifest::from_json_text(&det).unwrap();
        assert!(back.build.is_none());
        assert_eq!(back.graphs, m.graphs);
    }

    #[test]
    fn large_seeds_roundtrip_exactly() {
        for seed in [(1u64 << 62) + 12345, u64::MAX, i64::MAX as u64 + 7] {
            let mut m = sample_manifest();
            m.seed = seed; // none representable as f64 or (for two) i64
            let back = Manifest::from_json_text(&m.to_json(true).to_string()).unwrap();
            assert_eq!(back.seed, m.seed);
        }
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(Manifest::from_json_text("{").is_err());
        assert!(Manifest::from_json_text("{}").is_err());
        assert!(Manifest::from_json_text("{\"format\":\"other\"}").is_err());
        let wrong_version = sample_manifest().to_json(true).to_string().replacen(
            "\"version\":2",
            "\"version\":99",
            1,
        );
        assert!(Manifest::from_json_text(&wrong_version).is_err());
        let bad_checksum =
            sample_manifest()
                .to_json(true)
                .to_string()
                .replacen("00000000deadbeef", "not-hex!", 1);
        assert!(Manifest::from_json_text(&bad_checksum).is_err());
    }

    #[test]
    fn file_count_includes_variants() {
        assert_eq!(sample_manifest().file_count(), 2);
    }

    #[test]
    fn dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample_manifest();
        m.write_to(&dir).unwrap();
        assert_eq!(Manifest::read_from(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }
}
