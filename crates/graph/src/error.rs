//! Error type for graph operations.

use crate::{EdgeId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A vertex id referred to a vertex that does not exist.
    NodeOutOfBounds {
        /// The offending vertex.
        node: NodeId,
        /// Current number of vertices.
        node_count: usize,
    },
    /// An edge id referred to an edge that does not exist.
    EdgeOutOfBounds {
        /// The offending edge.
        edge: EdgeId,
        /// Current number of edges.
        edge_count: usize,
    },
    /// Raw CSR buffers handed to
    /// [`UndirectedCsr::from_raw_parts`](crate::UndirectedCsr::from_raw_parts)
    /// were internally inconsistent.
    InvalidCsr {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, node_count } => {
                write!(
                    f,
                    "vertex {node:?} out of bounds (graph has {node_count} vertices)"
                )
            }
            GraphError::EdgeOutOfBounds { edge, edge_count } => {
                write!(
                    f,
                    "edge {edge:?} out of bounds (graph has {edge_count} edges)"
                )
            }
            GraphError::InvalidCsr { reason } => {
                write!(f, "inconsistent CSR buffers: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfBounds {
            node: NodeId::new(9),
            node_count: 5,
        };
        assert!(e.to_string().contains("v10"));
        assert!(e.to_string().contains("5 vertices"));

        let e = GraphError::EdgeOutOfBounds {
            edge: EdgeId::new(3),
            edge_count: 2,
        };
        assert!(e.to_string().contains("e3"));

        let e = GraphError::InvalidCsr {
            reason: "offsets must start at 0".into(),
        };
        assert!(e.to_string().contains("offsets must start at 0"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
