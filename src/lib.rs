//! `nonsearch` — a reproduction of *"Non-Searchability of Random
//! Scale-Free Graphs"* (Duchon, Eggemann, Hanusse; AlgoTel/PODC 2007).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — evolving directed multigraphs + static undirected views.
//! * [`generators`] — Móri, Cooper–Frieze, Barabási–Albert, configuration
//!   model, Kleinberg lattice and friends, all seed-deterministic and
//!   provenance-recording.
//! * [`search`] — the paper's weak/strong local-knowledge oracles and a
//!   suite of distributed search algorithms.
//! * [`analysis`] — statistics, power-law fitting, distances, regression.
//! * [`core`] — the paper's contribution: vertex equivalence, the event
//!   `E_{a,b}`, Lemma 1/3 machinery and searchability certification.
//! * [`engine`] — the deterministic parallel Monte-Carlo trial engine,
//!   JSON Lines run records, and the `xp` command table.
//! * [`corpus`] — the persistent graph-ensemble store: binary `.nsg`
//!   CSR files, manifest-indexed corpus directories, deterministic
//!   sharded building, degree-preserving null-model variants, and
//!   corpus-backed trial-graph sources.
//!
//! # Quickstart
//!
//! ```
//! use nonsearch::core::{theorem1_weak_bound, EquivalenceWindow};
//! use nonsearch::generators::{rng_from_seed, MoriTree};
//! use nonsearch::graph::NodeId;
//! use nonsearch::search::{run_weak, HighDegreeGreedy, SearchTask};
//!
//! // Sample a Móri tree and search for the newest vertex.
//! let mut rng = rng_from_seed(2007);
//! let tree = MoriTree::sample(4096, 0.5, &mut rng)?;
//! let graph = tree.undirected();
//! let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(4096));
//! let outcome = run_weak(&graph, &task, &mut HighDegreeGreedy::new(), &mut rng)?;
//! assert!(outcome.found);
//!
//! // The paper's lower bound says ANY weak-model algorithm pays Ω(√n).
//! let bound = theorem1_weak_bound(4096, 0.5)?;
//! assert!(outcome.requests as f64 >= bound);
//!
//! // The un-distinguishable window behind that bound:
//! let w = EquivalenceWindow::for_target(4096);
//! assert!(w.len() >= 63); // Θ(√n) equivalent vertices
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use nonsearch_analysis as analysis;
pub use nonsearch_core as core;
pub use nonsearch_corpus as corpus;
pub use nonsearch_engine as engine;
pub use nonsearch_generators as generators;
pub use nonsearch_graph as graph;
pub use nonsearch_search as search;
