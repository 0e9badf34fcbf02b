//! Local-knowledge search: the paper's weak and strong oracle models and a
//! suite of distributed search algorithms.
//!
//! # The models (paper, §1, "Modeling the searching process")
//!
//! In both models the searching process holds *"a list of already
//! discovered vertices (initially reduced to a single vertex), each with
//! its degree and a list of incident edges"*, and pays one unit per
//! request:
//!
//! * **Weak model** ([`WeakSearchState`]) — a request is a pair `(u, e)`
//!   with `u` discovered and `e` an edge incident to `u`; the answer is
//!   the identity `v` of the other endpoint together with `v`'s incident
//!   edge list.
//! * **Strong model** ([`StrongSearchState`]) — a request names a vertex
//!   `u` of known identity; the answer lists the vertices adjacent to `u`
//!   together with their respective incident edge lists.
//!
//! The measure of performance is *the number of requests made prior to
//! stopping*; the runner adjudicates success externally, so lower-bound
//! experiments never depend on an algorithm noticing its own success.
//!
//! Algorithms implement [`WeakSearcher`] or [`StrongSearcher`];
//! [`SimulatedStrong`] replays a strong algorithm in the weak model at a
//! per-request slowdown bounded by the maximum degree — the exact
//! simulation the paper uses to transfer Theorem 1 to the strong model.
//!
//! # Example
//!
//! ```
//! use nonsearch_generators::{rng_from_seed, MoriTree};
//! use nonsearch_graph::NodeId;
//! use nonsearch_search::{run_weak, BfsFlood, SearchTask};
//!
//! let mut rng = rng_from_seed(5);
//! let tree = MoriTree::sample(64, 0.5, &mut rng)?;
//! let graph = tree.undirected();
//! let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(64));
//! let outcome = run_weak(&graph, &task, &mut BfsFlood::new(), &mut rng)?;
//! assert!(outcome.found);
//! // BFS discovers everything with at most one request per edge slot.
//! assert!(outcome.requests <= 2 * graph.edge_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithms;
mod best;
mod discovered;
mod error;
mod frontier;
mod runner;
mod scratch;
mod simulate;
mod strong;
mod suite;
mod task;
mod weak;

pub use algorithms::{
    greedy_route, percolation_search, percolation_search_in, AvoidingWalk, BfsFlood, DfsWalk,
    GreedyIdProximity, GreedyRouteOutcome, HighDegreeGreedy, LookaheadWalk, OldestFirst,
    PercolationConfig, PercolationOutcome, PercolationScratch, RandomWalk, RestartingWalk,
    StrongBfs, StrongGreedyId, StrongHighDegree,
};
pub use discovered::{DiscoveredVertex, DiscoveredView, UnexploredEdges};
pub use error::SearchError;
pub use frontier::FrontierCursors;
pub use runner::{run_strong_in, run_weak, run_weak_in};
pub use scratch::{NodeSet, SearchScratch};
pub use simulate::SimulatedStrong;
pub use strong::{StrongSearchState, StrongSearcher};
pub use suite::SearcherKind;
pub use task::{SearchOutcome, SearchTask, SuccessCriterion};
pub use weak::{WeakSearchState, WeakSearcher};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, SearchError>;
