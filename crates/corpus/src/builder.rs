//! The deterministic, sharded corpus builder.
//!
//! Graph generation is the dominant cost of large-`n` Monte-Carlo
//! sweeps, so the builder shards it across the engine's worker pool
//! ([`run_ordered`]): one job per stored graph, each writing its own
//! `.nsg` file (plus rewired null-model variants) and returning the
//! manifest entry. Three properties make the output **bit-identical
//! for any `--threads` value**:
//!
//! 1. every graph's RNG stream is derived from `(seed, size_idx,
//!    trial)` alone — the same derivation the certification sweep uses,
//!    which is why a corpus built with an experiment's seed and sizes
//!    serves it the *exact* graphs it would have generated;
//! 2. each job writes only its own files, so no write interleaves; and
//! 3. [`run_ordered`] returns entries in job order, so the manifest's
//!    deterministic portion is byte-stable (the volatile `"build"`
//!    envelope is the one exception, mirroring the engine's run
//!    footer).

use crate::error::CorpusError;
use crate::manifest::{BuildInfo, GraphEntry, Manifest, VariantEntry};
use crate::model_spec::{parse_model, DEFAULT_MODEL_SPEC};
use crate::nsg;
use nonsearch_engine::{git_describe, run_ordered};
use nonsearch_generators::{degree_preserving_rewire, SeedSequence};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Subdirectory of a corpus holding the `.nsg` files.
pub const GRAPHS_DIR: &str = "graphs";

/// What to build: the ensemble's provenance parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSpec {
    /// Model spec string (see [`parse_model`]).
    pub model_spec: String,
    /// Root seed; also the seed an experiment must run with to get
    /// bit-identical corpus-backed results.
    pub seed: u64,
    /// Size sweep, in the order that defines `size_idx`.
    pub sizes: Vec<usize>,
    /// Graphs stored per size (trials are assigned round-robin, so an
    /// experiment running more trials than this reuses graphs).
    pub trials: usize,
    /// Degree-preserving rewired variants stored per graph.
    pub variants: usize,
    /// Edge-swap chain length per variant, in swaps per edge.
    pub swaps_per_edge: usize,
    /// Worker threads (0 = all cores). Never affects the output bytes.
    pub threads: usize,
}

impl Default for BuildSpec {
    /// Defaults mirror the `theorem1-weak` experiment (model, seed, and
    /// full size sweep), so a default-built corpus is the one that
    /// experiment can consume bit-identically.
    fn default() -> BuildSpec {
        BuildSpec {
            model_spec: DEFAULT_MODEL_SPEC.to_string(),
            seed: 0xE1,
            sizes: vec![512, 1024, 2048, 4096, 8192, 16384],
            trials: 12,
            variants: 1,
            swaps_per_edge: 10,
            threads: 0,
        }
    }
}

/// What a finished build wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Graphs stored (originals; variants add `variants ×` this).
    pub graphs: usize,
    /// All `.nsg` files written (originals + variants).
    pub files: usize,
    /// Total `.nsg` bytes written.
    pub bytes: u64,
    /// Wall-clock build time in milliseconds.
    pub wall_ms: u64,
    /// Path of the manifest.
    pub manifest_path: PathBuf,
}

/// Builds a corpus at `dir` according to `spec`.
///
/// Creates `dir` and `dir/graphs/` if missing, overwrites any previous
/// corpus files, and writes `manifest.json` last — so a manifest's
/// presence implies a complete corpus.
///
/// # Errors
///
/// Returns [`CorpusError`] for unparseable model specs, filesystem
/// failures, or variant rewiring on non-simple graphs.
pub fn build(dir: &Path, spec: &BuildSpec) -> Result<BuildReport, CorpusError> {
    // lint: allow(clock-env): build wall-time for the report footer only; graph bytes derive from seeds alone
    let start = Instant::now();
    let model = parse_model(&spec.model_spec)?;
    let graphs_dir = dir.join(GRAPHS_DIR);
    std::fs::create_dir_all(&graphs_dir).map_err(|e| CorpusError::io(&graphs_dir, e))?;
    // Invalidate any previous corpus *before* overwriting its files: an
    // interrupted rebuild must leave a manifest-less directory (clean
    // open failure), never a stale manifest over mixed-generation files.
    let old_manifest = dir.join(crate::manifest::MANIFEST_FILE);
    if old_manifest.exists() {
        std::fs::remove_file(&old_manifest).map_err(|e| CorpusError::io(&old_manifest, e))?;
    }

    let jobs = spec.sizes.len() * spec.trials;
    let root = SeedSequence::new(spec.seed);
    // Job seeds are re-derived from (size_idx, trial) inside the job —
    // run_ordered's own flat-index streams are ignored — so the corpus
    // reproduces exactly what a size sweep of `search_cell`s generates:
    // size `i` on subsequence `i`, trial `t` on its subsequence `t`, the
    // graph on child stream 0.
    let entries: Vec<Result<(GraphEntry, u64), CorpusError>> =
        run_ordered(jobs, spec.threads, &root, |job, _seeds| {
            let size_idx = job / spec.trials;
            let trial = job % spec.trials;
            let n = spec.sizes[size_idx];
            let trial_seeds = root.subsequence(size_idx as u64).subsequence(trial as u64);

            let mut graph_rng = trial_seeds.child_rng(0);
            let graph = model.sample_graph(n, &mut graph_rng);
            let stem = format!("s{size_idx:04}_t{trial:04}");
            let file = format!("{GRAPHS_DIR}/{stem}.nsg");
            let path = dir.join(&file);
            let checksum = nsg::write_graph_file(&path, &graph)?;
            let mut bytes = file_len(&path)?;

            let mut variants = Vec::with_capacity(spec.variants);
            let variant_seeds = trial_seeds.subsequence(1);
            for v in 0..spec.variants {
                let mut rng = variant_seeds.child_rng(v as u64);
                let (rewired, _) = degree_preserving_rewire(&graph, spec.swaps_per_edge, &mut rng)?;
                let vfile = format!("{GRAPHS_DIR}/{stem}_v{v:02}.nsg");
                let vpath = dir.join(&vfile);
                let vchecksum = nsg::write_graph_file(&vpath, &rewired)?;
                bytes += file_len(&vpath)?;
                variants.push(VariantEntry {
                    file: vfile,
                    checksum: vchecksum,
                });
            }

            Ok((
                GraphEntry {
                    size_idx,
                    n,
                    trial,
                    file,
                    nodes: graph.node_count(),
                    edges: graph.edge_count(),
                    checksum,
                    variants,
                },
                bytes,
            ))
        });

    let mut graphs = Vec::with_capacity(jobs);
    let mut total_bytes = 0u64;
    for entry in entries {
        let (entry, bytes) = entry?;
        total_bytes += bytes;
        graphs.push(entry);
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    let manifest = Manifest {
        model: model.name(),
        model_spec: spec.model_spec.clone(),
        seed: spec.seed,
        trials: spec.trials,
        variants: spec.variants,
        swaps_per_edge: spec.swaps_per_edge,
        sizes: spec.sizes.clone(),
        graphs,
        build: Some(BuildInfo {
            git: git_describe(),
            threads: spec.threads,
            wall_ms,
        }),
    };
    manifest.write_to(dir)?;

    Ok(BuildReport {
        graphs: jobs,
        files: manifest.file_count(),
        bytes: total_bytes,
        wall_ms,
        manifest_path: dir.join(crate::manifest::MANIFEST_FILE),
    })
}

fn file_len(path: &Path) -> Result<u64, CorpusError> {
    Ok(std::fs::metadata(path)
        .map_err(|e| CorpusError::io(path, e))?
        .len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MANIFEST_FILE;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("corpus_build_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_spec() -> BuildSpec {
        BuildSpec {
            model_spec: "mori:p=0.6,m=1".into(),
            seed: 7,
            sizes: vec![32, 64],
            trials: 3,
            variants: 1,
            swaps_per_edge: 4,
            threads: 1,
        }
    }

    #[test]
    fn build_writes_everything_the_manifest_promises() {
        let dir = temp_dir("promises");
        let report = build(&dir, &tiny_spec()).unwrap();
        assert_eq!(report.graphs, 6);
        assert_eq!(report.files, 12); // one variant each
        assert!(report.bytes > 0);
        assert!(report.manifest_path.ends_with(MANIFEST_FILE));

        let manifest = Manifest::read_from(&dir).unwrap();
        assert_eq!(manifest.graphs.len(), 6);
        assert_eq!(manifest.model, "mori(p=0.6,m=1)");
        for entry in &manifest.graphs {
            let g = nsg::map_graph_file(&dir.join(&entry.file)).unwrap();
            assert_eq!(g.node_count(), entry.nodes);
            assert_eq!(g.edge_count(), entry.edges);
            for v in &entry.variants {
                let null = nsg::map_graph_file(&dir.join(&v.file)).unwrap();
                assert_eq!(null.node_count(), entry.nodes);
                assert_eq!(null.edge_count(), entry.edges);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graphs_match_the_sweep_seed_derivation() {
        // The contract behind `--corpus` bit-identity: stored graph
        // (size_idx, trial) is exactly the generate-per-trial sample.
        let dir = temp_dir("derivation");
        let spec = tiny_spec();
        build(&dir, &spec).unwrap();
        let manifest = Manifest::read_from(&dir).unwrap();
        let model = parse_model(&spec.model_spec).unwrap();
        let root = SeedSequence::new(spec.seed);
        for entry in &manifest.graphs {
            let trial_seeds = root
                .subsequence(entry.size_idx as u64)
                .subsequence(entry.trial as u64);
            let expected = model.sample_graph(entry.n, &mut trial_seeds.child_rng(0));
            let stored = nsg::map_graph_file(&dir.join(&entry.file)).unwrap();
            assert_eq!(stored, expected, "s{} t{}", entry.size_idx, entry.trial);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builds_are_byte_identical_across_thread_counts() {
        let spec1 = tiny_spec();
        let spec8 = BuildSpec {
            threads: 8,
            ..spec1.clone()
        };
        let dir1 = temp_dir("t1");
        let dir8 = temp_dir("t8");
        build(&dir1, &spec1).unwrap();
        build(&dir8, &spec8).unwrap();

        let m1 = Manifest::read_from(&dir1).unwrap();
        let m8 = Manifest::read_from(&dir8).unwrap();
        // Deterministic portion identical; only the build envelope may
        // differ (it records the thread count).
        assert_eq!(m1.to_json(false).to_string(), m8.to_json(false).to_string());
        for entry in &m1.graphs {
            let a = std::fs::read(dir1.join(&entry.file)).unwrap();
            let b = std::fs::read(dir8.join(&entry.file)).unwrap();
            assert_eq!(a, b, "{}", entry.file);
            for v in &entry.variants {
                let a = std::fs::read(dir1.join(&v.file)).unwrap();
                let b = std::fs::read(dir8.join(&v.file)).unwrap();
                assert_eq!(a, b, "{}", v.file);
            }
        }
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir8).ok();
    }

    #[test]
    fn variants_preserve_degree_sequences() {
        let dir = temp_dir("variants");
        build(&dir, &tiny_spec()).unwrap();
        let manifest = Manifest::read_from(&dir).unwrap();
        let entry = &manifest.graphs[0];
        let original = nsg::map_graph_file(&dir.join(&entry.file)).unwrap();
        let rewired = nsg::map_graph_file(&dir.join(&entry.variants[0].file)).unwrap();
        assert_eq!(
            nonsearch_graph::degree_sequence(&original),
            nonsearch_graph::degree_sequence(&rewired)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_model_spec_fails_before_touching_disk() {
        let dir = temp_dir("badspec");
        let spec = BuildSpec {
            model_spec: "martian".into(),
            ..tiny_spec()
        };
        assert!(build(&dir, &spec).is_err());
        assert!(!dir.exists());
    }
}
