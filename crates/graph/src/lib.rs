//! Graph substrate for the `nonsearch` project.
//!
//! Every other crate in the workspace builds on one graph type,
//! [`UndirectedCsr`]: a static, cache-friendly undirected **multigraph**
//! (self-loops and parallel edges allowed) in compressed sparse row form.
//! *Searching always takes place in the corresponding unoriented graph*
//! (paper, §1), so every search oracle and every analysis routine
//! consumes this view. Evolving models (Móri, Cooper–Frieze,
//! Barabási–Albert, …) describe each edge as pointing from a newer vertex
//! to an older one; a generator writes those `(source, target)` pairs
//! once, in insertion order, and [`UndirectedCsr::from_edges`] builds the
//! CSR from them with one counting sort. The paper's merged Móri graph
//! `G_t^{(m)}` needs multi-edges and loops, which is why the view is a
//! multigraph.
//!
//! # Example
//!
//! ```
//! use nonsearch_graph::{NodeId, UndirectedCsr};
//!
//! // The 4-vertex star 2→1, 3→1, 4→1, as zero-based (source, target) pairs.
//! let view = UndirectedCsr::from_edges(4, [(1, 0), (2, 0), (3, 0)])?;
//! let center = NodeId::new(0);
//! assert_eq!(view.node_count(), 4);
//! assert_eq!(view.degree(center), 3);
//! assert_eq!(view.neighbors(center).count(), 3);
//! // Edge ids follow insertion order; endpoints keep their orientation.
//! assert_eq!(view.edge_endpoints(nonsearch_graph::EdgeId::new(1))?, (NodeId::new(2), center));
//! # Ok::<(), nonsearch_graph::GraphError>(())
//! ```

// `unsafe` is denied crate-wide and allowed only in `storage`, which
// implements the validated zero-copy casts behind borrowed CSR views
// (memory-mapped `.nsg` corpus files).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod degree;
mod error;
mod node;
mod properties;
mod storage;
mod traversal;

pub use csr::{IncidentEdges, Neighbors, RawCsrParts, UndirectedCsr};
pub use degree::{degree_sequence, DegreeStats};
pub use error::GraphError;
pub use node::{EdgeId, NodeId};
pub use properties::{GraphProperties, StructuralSummary};
pub use storage::{zero_copy_support, AlignedBytes, CsrBytes, CsrLayout, RawSlotPair};
pub use traversal::{bfs_distances, connected_components, is_connected, Bfs, ComponentLabels};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
