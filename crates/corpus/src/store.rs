//! Opening a corpus and serving its graphs as engine [`GraphSource`]s.
//!
//! [`Corpus::open`] parses the manifest and indexes graphs by requested
//! size; [`Corpus::source`] (originals) and [`Corpus::variant_source`]
//! (rewired null models) hand out [`CorpusSource`]s that assign trials
//! to stored graphs **round-robin** (`trial % stored_trials`). Loaded
//! graphs are cached behind an `Arc`, so concurrent trials on any
//! number of engine workers share one in-memory copy per file; first
//! loads are **single-flight** — one mapping per file no matter how
//! many workers race for it. Every load takes the same pipeline: the
//! file's bytes are mapped (or, where the kernel or target refuses, read
//! into an aligned heap buffer), the header is validated, the payload
//! hashed, and the CSR buffers borrowed zero-copy — so memory is bounded
//! by the page cache rather than by RAM.

use crate::error::CorpusError;
use crate::manifest::Manifest;
use crate::mmap::{LoadMode, MappedFile};
use crate::model_spec::parse_model;
use crate::nsg;
use nonsearch_engine::GraphSource;
use nonsearch_generators::{degree_preserving_rewire, SeedSequence};
use nonsearch_graph::{CsrBytes, UndirectedCsr};
// lint: allow(determinism): keyed cache lookup only; the map is never iterated, so order cannot surface
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Subdirectory of a corpus where healing parks corrupt blobs.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Attempts for the regenerate write before a heal gives up (each retry
/// backs off twice as long as the last).
const HEAL_WRITE_ATTEMPTS: u32 = 3;

/// One cache entry: the per-file lock making first loads single-flight.
/// Loaders of *different* files never contend on each other's slots.
type CacheSlot = Arc<Mutex<Option<Arc<UndirectedCsr>>>>;

struct Inner {
    dir: PathBuf,
    manifest: Manifest,
    mode: LoadMode,
    /// Quarantine + regenerate corrupt stored files (`--heal`) instead
    /// of failing the load or verify.
    heal: bool,
    /// Requested size → indices into `manifest.graphs`, trial order.
    by_n: BTreeMap<usize, Vec<usize>>,
    /// Relative file → load slot, filled on first access.
    // lint: allow(determinism): keyed cache lookup only; the map is never iterated, so order cannot surface
    cache: Mutex<HashMap<String, CacheSlot>>,
}

/// An opened corpus directory.
#[derive(Clone)]
pub struct Corpus {
    inner: Arc<Inner>,
}

/// What [`Corpus::verify`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files whose checksum and structure were validated.
    pub files: usize,
    /// Total bytes read.
    pub bytes: u64,
    /// Files regenerated from the manifest's provenance (healing only).
    pub healed: usize,
    /// Corrupt blobs moved to `quarantine/` before regeneration — can
    /// trail `healed` when the corrupt file was missing outright.
    pub quarantined: usize,
}

impl Corpus {
    /// Opens the corpus at `dir` by reading its manifest, with the
    /// default [`LoadMode::Mmap`].
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if the manifest is missing or malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, CorpusError> {
        Self::open_with(dir, LoadMode::default())
    }

    /// Opens the corpus at `dir`, taking each file's bytes as `mode`
    /// says. The served graphs are identical in either mode.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if the manifest is missing or malformed.
    pub fn open_with(dir: impl Into<PathBuf>, mode: LoadMode) -> Result<Corpus, CorpusError> {
        Self::open_healing(dir, mode, false)
    }

    /// Opens the corpus at `dir` with every policy explicit. With
    /// `heal` a corrupt stored file is **quarantined and regenerated**
    /// instead of failing the operation: the bad blob moves to
    /// `quarantine/<name>`, the graph is re-sampled from the manifest's
    /// model spec and seed derivation (the same `(seed, size_idx,
    /// trial)` streams the builder used, so the bytes come back
    /// identical), and the regenerated file is re-checked against the
    /// manifest checksum. Both [`Corpus::load`] and [`Corpus::verify`]
    /// take the heal path; a regeneration that still mismatches the
    /// manifest is reported as the original corruption would have been.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] if the manifest is missing or malformed.
    pub fn open_healing(
        dir: impl Into<PathBuf>,
        mode: LoadMode,
        heal: bool,
    ) -> Result<Corpus, CorpusError> {
        let dir = dir.into();
        let manifest = Manifest::read_from(&dir)?;
        let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, g) in manifest.graphs.iter().enumerate() {
            by_n.entry(g.n).or_default().push(i);
        }
        for indices in by_n.values_mut() {
            indices.sort_by_key(|&i| manifest.graphs[i].trial);
        }
        Ok(Corpus {
            inner: Arc::new(Inner {
                dir,
                manifest,
                mode,
                heal,
                by_n,
                // lint: allow(determinism): keyed cache lookup only; the map is never iterated, so order cannot surface
                cache: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.inner.manifest
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// `true` if the corpus stores graphs for requested size `n`.
    pub fn supports_size(&self, n: usize) -> bool {
        self.inner.by_n.contains_key(&n)
    }

    /// Checks that this corpus can back an experiment sweeping `model`
    /// over `sizes`.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Unsupported`] naming the first mismatch
    /// (wrong model, or a size the corpus does not store).
    pub fn check_compatible(&self, model: &str, sizes: &[usize]) -> Result<(), CorpusError> {
        if self.inner.manifest.model != model {
            return Err(CorpusError::Unsupported {
                reason: format!(
                    "corpus stores {:?}, experiment sweeps {model:?} \
                     (rebuild with --model or drop --corpus)",
                    self.inner.manifest.model
                ),
            });
        }
        if let Some(&n) = sizes.iter().find(|n| !self.supports_size(**n)) {
            return Err(CorpusError::Unsupported {
                reason: format!(
                    "size {n} is not in the corpus (stored sizes: {:?})",
                    self.inner.by_n.keys().collect::<Vec<_>>()
                ),
            });
        }
        Ok(())
    }

    /// Loads (and caches) one stored graph: the original of entry
    /// `graph_idx`, or — with `variant = Some(v)` — its `v`-th rewired
    /// null model.
    ///
    /// First loads are single-flight per file: concurrent callers block
    /// on that file's slot while exactly one of them maps the file,
    /// and all of them receive the same `Arc` — the "one in-memory copy
    /// per file" contract holds even under a racing first access, and a
    /// mapped file is mapped once, not once per worker. A failed load
    /// leaves the slot empty so a later call can retry.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] for unknown indices, I/O failures, or
    /// corrupt files.
    pub fn load(
        &self,
        graph_idx: usize,
        variant: Option<usize>,
    ) -> Result<Arc<UndirectedCsr>, CorpusError> {
        let entry =
            self.inner
                .manifest
                .graphs
                .get(graph_idx)
                .ok_or_else(|| CorpusError::Unsupported {
                    reason: format!(
                        "graph index {graph_idx} out of range ({} stored)",
                        self.inner.manifest.graphs.len()
                    ),
                })?;
        let file = match variant {
            None => &entry.file,
            Some(v) => {
                &entry
                    .variants
                    .get(v)
                    .ok_or_else(|| CorpusError::Unsupported {
                        reason: format!(
                            "variant {v} of {} not stored ({} variants)",
                            entry.file,
                            entry.variants.len()
                        ),
                    })?
                    .file
            }
        };
        // Take (or create) this file's slot under the map lock, then
        // release the map before any I/O: the slot lock serializes
        // loaders of *this* file only.
        let slot = {
            let mut cache = self.inner.cache.lock().expect("cache lock");
            Arc::clone(cache.entry(file.clone()).or_default())
        };
        let mut loaded = slot.lock().expect("file slot lock");
        if let Some(g) = &*loaded {
            return Ok(Arc::clone(g));
        }
        let graph = Arc::new(self.read_or_heal(file, None)?.0);
        *loaded = Some(Arc::clone(&graph));
        Ok(graph)
    }

    /// A [`GraphSource`] serving the stored originals.
    pub fn source(&self) -> CorpusSource {
        CorpusSource {
            inner: Arc::clone(&self.inner),
            variant: None,
        }
    }

    /// A [`GraphSource`] serving rewired variant `v` of every graph.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Unsupported`] if the corpus stores fewer
    /// than `v + 1` variants per graph.
    pub fn variant_source(&self, v: usize) -> Result<CorpusSource, CorpusError> {
        if v >= self.inner.manifest.variants {
            return Err(CorpusError::Unsupported {
                reason: format!(
                    "variant {v} not stored (corpus has {} per graph)",
                    self.inner.manifest.variants
                ),
            });
        }
        Ok(CorpusSource {
            inner: Arc::clone(&self.inner),
            variant: Some(v),
        })
    }

    /// Re-reads every stored file through the load pipeline, checking
    /// manifest checksums, CSR structural consistency, and the
    /// manifest's node/edge counts. On a healing corpus
    /// ([`Corpus::open_healing`], `corpus verify --heal`) each corrupt
    /// file is quarantined, regenerated, and re-verified in place, and
    /// the report counts the repairs.
    ///
    /// # Errors
    ///
    /// Returns the first violation found (non-healing), or the first
    /// violation that regeneration could not repair.
    pub fn verify(&self) -> Result<VerifyReport, CorpusError> {
        let mut report = VerifyReport {
            files: 0,
            bytes: 0,
            healed: 0,
            quarantined: 0,
        };
        for entry in &self.inner.manifest.graphs {
            let checks = std::iter::once((&entry.file, entry.checksum))
                .chain(entry.variants.iter().map(|v| (&v.file, v.checksum)));
            for (file, expected) in checks {
                let (graph, healed) = self.read_or_heal(file, Some(expected))?;
                if let Some(quarantined) = healed {
                    report.healed += 1;
                    report.quarantined += usize::from(quarantined);
                    // A graph cached before the corruption may borrow the
                    // old bytes: drop its slot so the next load reads the
                    // regenerated file.
                    self.inner
                        .cache
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(file.as_str());
                }
                let (n, m) = (graph.node_count(), graph.edge_count());
                if (n, m) != (entry.nodes, entry.edges) {
                    return Err(CorpusError::format(format!(
                        "{file}: graph is {n}v/{m}e but the manifest says {}v/{}e",
                        entry.nodes, entry.edges,
                    )));
                }
                report.files += 1;
                report.bytes += nsg::csr_layout(n, m).edge_list.end as u64;
            }
        }
        Ok(report)
    }

    /// The one per-file pipeline behind [`Corpus::load`] and
    /// [`Corpus::verify`]: open the byte region as the corpus's
    /// [`LoadMode`] says, then validate the header, hash and borrow
    /// ([`nsg::graph_from_region`]). Verify passes the manifest's
    /// whole-file checksum, which then replaces the payload hash, so
    /// every byte is still hashed once per read.
    fn read_file(
        &self,
        file: &str,
        manifest_checksum: Option<u64>,
    ) -> Result<UndirectedCsr, CorpusError> {
        let path = self.inner.dir.join(file);
        let region = Arc::new(MappedFile::open_with(&path, self.inner.mode)?);
        let Some(expected) = manifest_checksum else {
            return nsg::graph_from_region(region);
        };
        let actual = nsg::fnv1a64(region.bytes());
        if actual != expected {
            return Err(CorpusError::Checksum {
                path,
                expected,
                actual,
            });
        }
        nsg::graph_from_hashed_region(region)
    }

    /// [`Corpus::read_file`] with one heal attempt on a repairable
    /// failure when the corpus heals: regenerate the file from the
    /// manifest's provenance, then read it again. Returns the graph and,
    /// if it was healed, whether a corrupt blob went to quarantine.
    fn read_or_heal(
        &self,
        file: &str,
        manifest_checksum: Option<u64>,
    ) -> Result<(UndirectedCsr, Option<bool>), CorpusError> {
        match self.read_file(file, manifest_checksum) {
            Ok(graph) => Ok((graph, None)),
            Err(e) if self.inner.heal && healable(&e) => {
                let quarantined = self.heal_file(file)?;
                Ok((self.read_file(file, manifest_checksum)?, Some(quarantined)))
            }
            Err(e) => Err(e),
        }
    }

    /// Quarantines the corrupt stored `file` (if it still exists) and
    /// regenerates it from the manifest's provenance: the model spec is
    /// re-parsed, the graph re-sampled from the exact `(seed, size_idx,
    /// trial)` seed streams the builder derives, variants re-rewired
    /// from their recorded swap chain — so the healed bytes are
    /// **identical** to the originals and re-hash to the manifest
    /// checksum. Returns `true` if a corrupt blob was moved to
    /// `quarantine/` (false when the file was missing outright).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Unsupported`] for files the manifest does
    /// not index, [`CorpusError::Checksum`] if the regenerated bytes
    /// still mismatch the manifest (corrupt *manifest*, changed
    /// generator), and I/O errors once the bounded write retries are
    /// exhausted.
    fn heal_file(&self, file: &str) -> Result<bool, CorpusError> {
        let manifest = &self.inner.manifest;
        let mut found = None;
        'graphs: for entry in &manifest.graphs {
            if entry.file == file {
                found = Some((entry, None, entry.checksum));
                break;
            }
            for (v, variant) in entry.variants.iter().enumerate() {
                if variant.file == file {
                    found = Some((entry, Some(v), variant.checksum));
                    break 'graphs;
                }
            }
        }
        let Some((entry, variant, expected)) = found else {
            return Err(CorpusError::Unsupported {
                reason: format!("{file} is not in the manifest, so it cannot be regenerated"),
            });
        };

        let path = self.inner.dir.join(file);
        let quarantined = quarantine(&self.inner.dir, &path)?;

        // The builder's derivation, replayed for one file: stream
        // (size_idx, trial) off the manifest's root seed, child 0 for
        // the original sample, subsequence(1)/child v for variant v.
        let model = parse_model(&manifest.model_spec)?;
        let root = SeedSequence::new(manifest.seed);
        let trial_seeds = root
            .subsequence(entry.size_idx as u64)
            .subsequence(entry.trial as u64);
        let graph = model.sample_graph(entry.n, &mut trial_seeds.child_rng(0));
        let graph = match variant {
            None => graph,
            Some(v) => {
                let mut rng = trial_seeds.subsequence(1).child_rng(v as u64);
                degree_preserving_rewire(&graph, manifest.swaps_per_edge, &mut rng)?.0
            }
        };
        let actual = write_with_retry(&path, &graph)?;
        if actual != expected {
            return Err(CorpusError::Checksum {
                path,
                expected,
                actual,
            });
        }
        Ok(quarantined)
    }
}

/// `true` for failures healing can repair by regenerating the file:
/// corruption (checksum or structure) and I/O (missing or unreadable
/// blobs). Manifest and model-spec failures stay fatal — there is no
/// provenance left to regenerate from.
fn healable(e: &CorpusError) -> bool {
    matches!(
        e,
        CorpusError::Checksum { .. } | CorpusError::Format { .. } | CorpusError::Io { .. }
    )
}

/// Moves a corrupt blob into `<dir>/quarantine/<basename>`, creating
/// the directory on first use. A missing blob quarantines nothing and
/// is not an error (the corruption may have been a deletion).
fn quarantine(dir: &Path, path: &Path) -> Result<bool, CorpusError> {
    if !path.exists() {
        return Ok(false);
    }
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir).map_err(|e| CorpusError::io(&qdir, e))?;
    let name = path
        .file_name()
        .ok_or_else(|| CorpusError::format(format!("{} has no file name", path.display())))?;
    std::fs::rename(path, qdir.join(name)).map_err(|e| CorpusError::io(path, e))?;
    Ok(true)
}

/// Writes the regenerated graph with bounded retry/backoff, so a
/// transiently failing filesystem does not abort a heal that would
/// succeed a few milliseconds later. Only I/O errors retry; encoding
/// errors are deterministic and fail immediately.
fn write_with_retry(path: &Path, graph: &UndirectedCsr) -> Result<u64, CorpusError> {
    let mut backoff = Duration::from_millis(5);
    let mut last_io = None;
    for _ in 0..HEAL_WRITE_ATTEMPTS {
        match nsg::write_graph_file(path, graph) {
            Ok(checksum) => return Ok(checksum),
            Err(e @ CorpusError::Io { .. }) => {
                last_io = Some(e);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_io.expect("the retry loop only exits after recording an I/O error"))
}

/// A corpus-backed [`GraphSource`]: trial `t` at size `n` is served the
/// stored graph `t % stored_trials` of that size.
#[derive(Clone)]
pub struct CorpusSource {
    inner: Arc<Inner>,
    variant: Option<usize>,
}

impl GraphSource for CorpusSource {
    /// # Panics
    ///
    /// Panics if the corpus stores no graphs for `n` or a stored file is
    /// unreadable — experiments validate compatibility up front via
    /// [`Corpus::check_compatible`], so this only fires on corpora
    /// modified mid-run.
    fn trial_graph(&self, n: usize, trial: usize, _seeds: &SeedSequence) -> Arc<UndirectedCsr> {
        let corpus = Corpus {
            inner: Arc::clone(&self.inner),
        };
        let indices = self.inner.by_n.get(&n).unwrap_or_else(|| {
            panic!(
                "corpus {} stores no graphs of size {n}",
                self.inner.dir.display()
            )
        });
        let graph_idx = indices[trial % indices.len()];
        corpus
            .load(graph_idx, self.variant)
            .unwrap_or_else(|e| panic!("corpus {}: {e}", self.inner.dir.display()))
    }

    fn describe(&self) -> String {
        match self.variant {
            None => format!("corpus:{}", self.inner.dir.display()),
            Some(v) => format!("corpus:{}#v{v}", self.inner.dir.display()),
        }
    }

    /// Trial graphs come from stored `.nsg` files, so phase timers
    /// attribute fetch time to `load`, not `generate`.
    fn is_stored(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildSpec};

    fn built_corpus(tag: &str) -> (PathBuf, Corpus) {
        let dir = std::env::temp_dir().join(format!("corpus_store_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = BuildSpec {
            model_spec: "mori:p=0.6,m=1".into(),
            seed: 11,
            sizes: vec![32, 64],
            trials: 2,
            variants: 1,
            swaps_per_edge: 4,
            threads: 1,
        };
        build(&dir, &spec).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        (dir, corpus)
    }

    #[test]
    fn open_indexes_sizes_and_serves_round_robin() {
        let (dir, corpus) = built_corpus("roundrobin");
        assert!(corpus.supports_size(32));
        assert!(corpus.supports_size(64));
        assert!(!corpus.supports_size(128));

        let source = corpus.source();
        let seeds = SeedSequence::new(0);
        let t0 = source.trial_graph(32, 0, &seeds);
        let t1 = source.trial_graph(32, 1, &seeds);
        let t2 = source.trial_graph(32, 2, &seeds); // wraps to trial 0
        assert_ne!(t0, t1);
        assert_eq!(t0, t2);
        assert!(Arc::ptr_eq(&t0, &t2), "cache shares one instance");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn variant_source_serves_rewired_graphs() {
        let (dir, corpus) = built_corpus("variants");
        let seeds = SeedSequence::new(0);
        let original = corpus.source().trial_graph(64, 0, &seeds);
        let null = corpus.variant_source(0).unwrap().trial_graph(64, 0, &seeds);
        assert_eq!(
            nonsearch_graph::degree_sequence(&original),
            nonsearch_graph::degree_sequence(&null)
        );
        assert!(corpus.variant_source(1).is_err());
        assert!(corpus.source().describe().starts_with("corpus:"));
        assert!(corpus.variant_source(0).unwrap().describe().contains("#v0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compatibility_checks_name_the_mismatch() {
        let (dir, corpus) = built_corpus("compat");
        assert!(corpus
            .check_compatible("mori(p=0.6,m=1)", &[32, 64])
            .is_ok());
        let err = corpus
            .check_compatible("mori(p=0.2,m=1)", &[32])
            .unwrap_err();
        assert!(err.to_string().contains("p=0.2"));
        let err = corpus
            .check_compatible("mori(p=0.6,m=1)", &[32, 999])
            .unwrap_err();
        assert!(err.to_string().contains("999"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_then_catches_tampering() {
        let (dir, corpus) = built_corpus("verify");
        let report = corpus.verify().unwrap();
        assert_eq!(report.files, corpus.manifest().file_count());
        assert!(report.bytes > 0);

        // Flip one payload byte of one stored file.
        let victim = dir.join(&corpus.manifest().graphs[0].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let fresh = Corpus::open(&dir).unwrap();
        assert!(fresh.verify().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_mode_serves_identical_graphs() {
        let (dir, mapped) = built_corpus("mmap_identity");
        let heap = Corpus::open_with(&dir, LoadMode::Heap).unwrap();

        // Every original and every variant: both byte regions serve
        // `==` graphs, borrowed wherever the target allows it.
        for (idx, entry) in mapped.manifest().graphs.iter().enumerate() {
            let stored = std::iter::once(None).chain((0..entry.variants.len()).map(Some));
            for variant in stored {
                let a = heap.load(idx, variant).unwrap();
                let b = mapped.load(idx, variant).unwrap();
                assert_eq!(*a, *b, "graph {idx} variant {variant:?}");
                if nonsearch_graph::zero_copy_support().is_ok() {
                    assert!(a.is_borrowed() && b.is_borrowed());
                }
            }
        }
        let files = mapped.manifest().file_count();
        drop((heap, mapped));

        // Verify passes in both modes, and catches tampering in both.
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let report = Corpus::open_with(&dir, mode).unwrap().verify().unwrap();
            assert_eq!(report.files, files, "{mode:?}");
        }
        let victim = dir.join(&Corpus::open(&dir).unwrap().manifest().graphs[0].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let corpus = Corpus::open_with(&dir, mode).unwrap();
            assert!(corpus.verify().is_err(), "{mode:?}");
            assert!(corpus.load(0, None).is_err(), "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_load_is_single_flight() {
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let (dir, _) = built_corpus(match mode {
                LoadMode::Heap => "flight_heap",
                LoadMode::Mmap => "flight_mmap",
            });
            let corpus = Corpus::open_with(&dir, mode).unwrap();
            // Race many first loads of the same file; every caller must
            // receive the *same* Arc (one decode, one mapping) — the old
            // check-then-insert cache could hand out distinct copies.
            let barrier = std::sync::Barrier::new(8);
            let graphs: Vec<Arc<UndirectedCsr>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let corpus = corpus.clone();
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            corpus.load(0, None).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for g in &graphs[1..] {
                assert!(
                    Arc::ptr_eq(&graphs[0], g),
                    "{mode:?}: racing first loads must share one copy"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_load_leaves_the_slot_retryable() {
        let (dir, _) = built_corpus("retry");
        let corpus = Corpus::open_with(&dir, LoadMode::Heap).unwrap();
        let file = corpus.manifest().graphs[0].file.clone();
        let path = dir.join(&file);
        let good = std::fs::read(&path).unwrap();

        // Corrupt the file: the load fails cleanly…
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(corpus.load(0, None).is_err());

        // …and once repaired, the same corpus can load it (the failed
        // first flight did not wedge or poison the slot).
        std::fs::write(&path, &good).unwrap();
        assert!(corpus.load(0, None).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healing_verify_quarantines_and_regenerates_byte_identical_files() {
        let (dir, plain) = built_corpus("heal_verify");
        let victim_rel = plain.manifest().graphs[0].file.clone();
        let victim = dir.join(&victim_rel);
        let original = std::fs::read(&victim).unwrap();

        // Flip one payload bit.
        let mut corrupt = original.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        std::fs::write(&victim, &corrupt).unwrap();

        // Without healing the corruption is fatal; with healing the
        // verify repairs it and reports the repair.
        assert!(plain.verify().is_err());
        let healing = Corpus::open_healing(&dir, LoadMode::Heap, true).unwrap();
        let report = healing.verify().unwrap();
        assert_eq!(report.files, healing.manifest().file_count());
        assert_eq!(report.healed, 1);
        assert_eq!(report.quarantined, 1);

        // The regenerated bytes are identical to the originals, the
        // corrupt blob sits in quarantine, and a fresh non-healing
        // corpus passes verify against the untouched manifest.
        assert_eq!(std::fs::read(&victim).unwrap(), original);
        let basename = victim.file_name().unwrap();
        let parked = dir.join(QUARANTINE_DIR).join(basename);
        assert_eq!(std::fs::read(&parked).unwrap(), corrupt);
        let report = Corpus::open(&dir).unwrap().verify().unwrap();
        assert_eq!(report.healed, 0);
        assert_eq!(report.quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healing_verify_restores_deleted_files_without_quarantining() {
        let (dir, _) = built_corpus("heal_missing");
        let healing = Corpus::open_healing(&dir, LoadMode::Heap, true).unwrap();
        // Delete one original and one variant outright.
        let entry = healing.manifest().graphs[1].clone();
        std::fs::remove_file(dir.join(&entry.file)).unwrap();
        std::fs::remove_file(dir.join(&entry.variants[0].file)).unwrap();

        let report = healing.verify().unwrap();
        assert_eq!(report.healed, 2);
        assert_eq!(report.quarantined, 0, "nothing to park for deletions");
        assert_eq!(report.files, healing.manifest().file_count());
        assert!(Corpus::open(&dir).unwrap().verify().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healing_load_repairs_the_file_it_was_asked_for() {
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let (dir, _) = built_corpus(match mode {
                LoadMode::Heap => "heal_load_heap",
                LoadMode::Mmap => "heal_load_mmap",
            });
            let clean = Corpus::open_with(&dir, mode).unwrap();
            let victim = dir.join(&clean.manifest().graphs[0].file);
            // An owned decode, not a mapped view: the corruption below
            // rewrites the file, which a live mapping would observe.
            let expected = nsg::decode_graph(&std::fs::read(&victim).unwrap()).unwrap();

            // Truncate the stored file mid-payload.
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
            assert!(Corpus::open_with(&dir, mode)
                .unwrap()
                .load(0, None)
                .is_err());

            let healing = Corpus::open_healing(&dir, mode, true).unwrap();
            let healed = healing.load(0, None).unwrap();
            assert_eq!(*healed, expected, "{mode:?}: healed graph differs");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn healing_load_caches_the_healed_graph() {
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let (dir, clean) = built_corpus(match mode {
                LoadMode::Heap => "heal_cache_heap",
                LoadMode::Mmap => "heal_cache_mmap",
            });
            let victim = dir.join(&clean.manifest().graphs[0].file);
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

            // The heal runs while the load holds the file's cache slot;
            // the healed graph must land in that slot, not an orphan.
            let healing = Corpus::open_healing(&dir, mode, true).unwrap();
            let first = healing.load(0, None).unwrap();
            let second = healing.load(0, None).unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{mode:?}: healed load was not cached"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn healing_regenerates_variants_through_the_recorded_swap_chain() {
        let (dir, plain) = built_corpus("heal_variant");
        let vfile = plain.manifest().graphs[0].variants[0].file.clone();
        let vpath = dir.join(&vfile);
        let original = std::fs::read(&vpath).unwrap();
        std::fs::write(&vpath, b"NSG1 but not really").unwrap();

        let healing = Corpus::open_healing(&dir, LoadMode::Heap, true).unwrap();
        let report = healing.verify().unwrap();
        assert_eq!(report.healed, 1);
        assert_eq!(std::fs::read(&vpath).unwrap(), original);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn files_outside_the_manifest_cannot_be_healed() {
        let (dir, _) = built_corpus("heal_unknown");
        let healing = Corpus::open_healing(&dir, LoadMode::Heap, true).unwrap();
        let err = healing.heal_file("graphs/s9999_t9999.nsg").unwrap_err();
        assert!(err.to_string().contains("cannot be regenerated"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("corpus_none_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert!(Corpus::open(&dir).is_err());
    }
}
