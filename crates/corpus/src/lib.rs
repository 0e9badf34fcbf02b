//! `nonsearch_corpus` — the persistent graph-ensemble store.
//!
//! The paper's claims quantify over *ensembles* of random scale-free
//! graphs, yet generate-per-trial experiments pay the (dominant, for
//! large `n`) generation cost on every run and can never share samples.
//! This crate persists ensembles once and serves them to every
//! experiment:
//!
//! * [`nsg`] — a compact little-endian binary CSR format (`.nsg`) with
//!   header, versioning, and FNV-1a checksums. Every load takes one
//!   pipeline: [`MappedFile`] maps the file (or reads it into an
//!   aligned heap buffer where the kernel or target refuses), then
//!   [`nsg::graph_from_region`] validates the header, hashes the
//!   payload and *borrows* the CSR buffers zero-copy
//!   ([`UndirectedCsr::from_csr_bytes`](nonsearch_graph::UndirectedCsr::from_csr_bytes)),
//!   preserving the exact incidence-slot order, so corpora larger than
//!   RAM serve graphs at page-cache cost. [`nsg::decode_graph`], the
//!   owned decode, is the reference and the fallback on targets that
//!   cannot borrow.
//! * [`Manifest`] — `manifest.json` indexes generator params, root
//!   seed, per-graph files/checksums, and the volatile build envelope.
//! * [`build`] — the deterministic builder: generation sharded across
//!   the engine's worker pool, per-graph seed streams derived from
//!   `(seed, size_idx, trial)` exactly as the certification sweep
//!   derives them, output bit-identical for any `--threads`.
//! * [`degree_preserving_rewire`](nonsearch_generators::degree_preserving_rewire)
//!   variants — each stored graph can carry `k` rewired null models
//!   (same degree sequence, randomized wiring).
//! * [`Corpus`] / [`CorpusSource`] — the corpus-backed
//!   [`GraphSource`](nonsearch_engine::GraphSource): trials map onto
//!   stored graphs round-robin, with cached shared loads.
//! * [`cli`] — the `xp corpus build | info | verify` subcommands.
//! * Self-healing ([`Corpus::open_healing`], `corpus verify --heal`) —
//!   a corrupt stored file is quarantined to `quarantine/` and
//!   **regenerated** from the manifest's model spec and seed
//!   derivation, byte-identical to the original, then re-checked
//!   against the manifest checksum. [`LoadMode::Heap`] skips the
//!   mapping, which is how `xp chaos` proves the fallback is invisible.
//!
//! # Example
//!
//! ```
//! use nonsearch_corpus::{build, BuildSpec, Corpus};
//! use nonsearch_engine::GraphSource;
//! use nonsearch_generators::SeedSequence;
//!
//! let dir = std::env::temp_dir().join(format!("corpus_doc_{}", std::process::id()));
//! let spec = BuildSpec {
//!     sizes: vec![32],
//!     trials: 2,
//!     variants: 1,
//!     threads: 1,
//!     ..BuildSpec::default()
//! };
//! build(&dir, &spec)?;
//!
//! let corpus = Corpus::open(&dir)?;
//! assert_eq!(corpus.manifest().graphs.len(), 2);
//! let source = corpus.source();
//! let g = source.trial_graph(32, 0, &SeedSequence::new(0));
//! assert_eq!(g.node_count(), 32);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), nonsearch_corpus::CorpusError>(())
//! ```

// `unsafe` is denied crate-wide and allowed only in `mmap`, the
// hand-rolled `mmap(2)` FFI wrapper behind zero-copy graph loads.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod cli;
mod error;
mod manifest;
mod mmap;
mod model_spec;
pub mod nsg;
mod store;

pub use builder::{build, BuildReport, BuildSpec, GRAPHS_DIR};
pub use error::CorpusError;
pub use manifest::{BuildInfo, GraphEntry, Manifest, VariantEntry, MANIFEST_FILE};
pub use mmap::{LoadMode, MappedFile};
pub use model_spec::{parse_model, BoxedModel, DEFAULT_MODEL_SPEC};
pub use store::{Corpus, CorpusSource, VerifyReport, QUARANTINE_DIR};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, CorpusError>;
