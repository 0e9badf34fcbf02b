//! Random graph generators for the `nonsearch` project.
//!
//! Implements every graph model the paper uses, compares against, or
//! contrasts with:
//!
//! * [`MoriTree`] / [`MergedMori`] — the Móri model `G_t` and its merged
//!   `m`-out variant `G_t^{(m)}`, mixing preferential (by **indegree**) and
//!   uniform attachment with parameter `p`. These are the subjects of the
//!   paper's Theorem 1.
//! * [`CooperFrieze`] — the Cooper–Frieze general web-graph model
//!   (Theorem 2), rephrased with indegree as in the paper.
//! * [`BarabasiAlbert`], [`UniformAttachment`] — the classic evolving
//!   baselines.
//! * [`ConfigModel`] + [`power_law_degree_sequence`] — the "pure random
//!   graph" family of Molloy–Reed, the substrate for Adamic et al.'s
//!   high-degree search analysis.
//! * [`KleinbergGrid`] — Kleinberg's navigable small-world lattice, the
//!   positive contrast the paper's introduction is framed against.
//! * [`degree_preserving_rewire`] — the Maslov–Sneppen double-edge-swap
//!   null model: same degree sequence, randomized wiring, used to
//!   isolate what structure (beyond degrees) contributes to
//!   (non-)searchability.
//!
//! All generators are deterministic given a seed (ChaCha8 streams via
//! [`rng_from_seed`]). Evolving models record full construction
//! [`provenance`](AttachmentTrace), so that the equivalence events of the
//! paper's Lemma 2 can be checked on the generated sample. The trace is
//! also the sample's only edge store: preferential draws read it as
//! their urn, and `undirected()` hands its `(child, father)` pairs to
//! [`UndirectedCsr::from_edges`](nonsearch_graph::UndirectedCsr::from_edges).
//!
//! # Example
//!
//! ```
//! use nonsearch_generators::{rng_from_seed, MoriTree};
//!
//! let mut rng = rng_from_seed(7);
//! let tree = MoriTree::sample(100, 0.6, &mut rng)?;
//! // A Móri graph is a tree: every non-root vertex has one out-edge,
//! // recorded in label order.
//! assert_eq!(tree.trace().len(), 99);
//! assert!(tree.father_of_label(100).unwrap().label() < 100);
//! let g = tree.undirected();
//! assert_eq!((g.node_count(), g.edge_count()), (100, 99));
//! # Ok::<(), nonsearch_generators::GeneratorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barabasi_albert;
mod config_model;
mod cooper_frieze;
mod edge_swap;
mod error;
mod kleinberg;
mod mori;
mod power_law;
mod provenance;
mod seeded;
mod uniform_attachment;
mod weights;

pub use barabasi_albert::BarabasiAlbert;
pub use config_model::{ConfigModel, SimplificationPolicy};
pub use cooper_frieze::{CooperFrieze, CooperFriezeConfig, StepKind};
pub use edge_swap::{degree_preserving_rewire, SwapStats};
pub use error::GeneratorError;
pub use kleinberg::KleinbergGrid;
pub use mori::{MergedMori, MoriTree};
pub use power_law::{power_law_degree_sequence, PowerLawConfig};
pub use provenance::{AttachmentKind, AttachmentRecord, AttachmentTrace};
pub use seeded::{rng_from_seed, SeedSequence};
pub use uniform_attachment::UniformAttachment;
pub use weights::{CumulativeSampler, DiscreteDistribution};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, GeneratorError>;
