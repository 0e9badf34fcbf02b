//! Persistence: a plain record type and a plain-text edge-list
//! format (`n` on the first line, then one `u v` pair per line, zero-based).

use crate::{GraphError, Result, UndirectedCsr};
use std::io::{BufRead, BufReader, Read, Write};

/// An owned snapshot of an undirected multigraph.
///
/// `GraphRecord` is the interchange form: plain vertex and edge data that
/// converts losslessly to and from [`UndirectedCsr`] (edge order, and
/// therefore edge ids, are preserved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRecord {
    /// Number of vertices.
    pub nodes: usize,
    /// Zero-based undirected edges in id order.
    pub edges: Vec<(usize, usize)>,
}

impl GraphRecord {
    /// Snapshots `graph` into a record.
    pub fn from_graph(graph: &UndirectedCsr) -> GraphRecord {
        GraphRecord {
            nodes: graph.node_count(),
            edges: graph
                .edges()
                .map(|(_, (u, v))| (u.index(), v.index()))
                .collect(),
        }
    }

    /// Rebuilds the CSR graph from this record.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an edge references a
    /// vertex `≥ nodes`.
    pub fn to_graph(&self) -> Result<UndirectedCsr> {
        UndirectedCsr::from_edges(self.nodes, self.edges.iter().copied())
    }
}

impl From<&UndirectedCsr> for GraphRecord {
    fn from(g: &UndirectedCsr) -> Self {
        GraphRecord::from_graph(g)
    }
}

/// Writes `graph` as a plain-text edge list.
///
/// Format: first line `n`, then one `u v` pair per line (zero-based),
/// in edge-id order.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_edge_list<W: Write>(graph: &UndirectedCsr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{}", graph.node_count())?;
    for (_, (u, v)) in graph.edges() {
        writeln!(writer, "{} {}", u.index(), v.index())?;
    }
    Ok(())
}

/// Reads a graph from the plain-text edge-list format produced by
/// [`write_edge_list`]. A `&mut` reference to a reader also works.
///
/// Blank lines and lines starting with `#` are ignored.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] for malformed content; I/O errors
/// surface as `ParseEdgeList` with the underlying message.
pub fn read_edge_list<R: Read>(reader: R) -> Result<UndirectedCsr> {
    let buf = BufReader::new(reader);
    let mut nodes: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line.map_err(|e| GraphError::ParseEdgeList {
            line: lineno + 1,
            reason: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        if nodes.is_none() {
            let n = fields
                .next()
                .expect("non-empty line has a field")
                .parse::<usize>()
                .map_err(|e| GraphError::ParseEdgeList {
                    line: lineno + 1,
                    reason: format!("bad vertex count: {e}"),
                })?;
            if fields.next().is_some() {
                return Err(GraphError::ParseEdgeList {
                    line: lineno + 1,
                    reason: "header line must contain a single integer".into(),
                });
            }
            nodes = Some(n);
            continue;
        }
        let parse = |field: Option<&str>| -> Result<usize> {
            field
                .ok_or_else(|| GraphError::ParseEdgeList {
                    line: lineno + 1,
                    reason: "expected two fields".into(),
                })?
                .parse::<usize>()
                .map_err(|e| GraphError::ParseEdgeList {
                    line: lineno + 1,
                    reason: format!("bad endpoint: {e}"),
                })
        };
        let u = parse(fields.next())?;
        let v = parse(fields.next())?;
        if fields.next().is_some() {
            return Err(GraphError::ParseEdgeList {
                line: lineno + 1,
                reason: "expected exactly two fields".into(),
            });
        }
        edges.push((u, v));
    }
    let nodes = nodes.ok_or(GraphError::ParseEdgeList {
        line: 0,
        reason: "missing header line with vertex count".into(),
    })?;
    UndirectedCsr::from_edges(nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UndirectedCsr {
        UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)]).unwrap()
    }

    #[test]
    fn record_roundtrip() {
        let g = sample();
        let rec = GraphRecord::from_graph(&g);
        let back = rec.to_graph().unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn record_rejects_bad_edges() {
        let rec = GraphRecord {
            nodes: 2,
            edges: vec![(0, 5)],
        };
        assert!(rec.to_graph().is_err());
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn text_format_shape() {
        let g = UndirectedCsr::from_edges(2, [(0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "2\n0 1\n");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a graph\n\n3\n# edges follow\n0 1\n\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_inputs_error_with_line() {
        let e = read_edge_list("3\n0\n".as_bytes()).unwrap_err();
        assert!(matches!(e, GraphError::ParseEdgeList { line: 2, .. }));

        let e = read_edge_list("x\n".as_bytes()).unwrap_err();
        assert!(matches!(e, GraphError::ParseEdgeList { line: 1, .. }));

        let e = read_edge_list("3\n0 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(e, GraphError::ParseEdgeList { line: 2, .. }));

        let e = read_edge_list("".as_bytes()).unwrap_err();
        assert!(matches!(e, GraphError::ParseEdgeList { line: 0, .. }));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(read_edge_list("2\n0 7\n".as_bytes()).is_err());
    }

    fn text_roundtrip_of(g: &UndirectedCsr) -> UndirectedCsr {
        let mut buf = Vec::new();
        write_edge_list(g, &mut buf).unwrap();
        read_edge_list(buf.as_slice()).unwrap()
    }

    #[test]
    fn empty_graph_roundtrips_in_both_forms() {
        let g = UndirectedCsr::from_edges(0, []).unwrap();
        assert_eq!(text_roundtrip_of(&g), g);
        let rec = GraphRecord::from_graph(&g);
        assert_eq!(rec.nodes, 0);
        assert!(rec.edges.is_empty());
        assert_eq!(rec.to_graph().unwrap(), g);
    }

    #[test]
    fn single_isolated_node_roundtrips() {
        let g = UndirectedCsr::from_edges(1, []).unwrap();
        let back = text_roundtrip_of(&g);
        assert_eq!(back.node_count(), 1);
        assert_eq!(back.edge_count(), 0);
        assert_eq!(GraphRecord::from_graph(&g).to_graph().unwrap(), g);
    }

    #[test]
    fn roundtrip_preserves_self_loop_free_invariant() {
        use crate::GraphProperties;
        // A simple (loop-free) graph must come back loop-free; a graph
        // with a loop must come back with exactly that loop.
        let simple = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(simple.self_loop_count(), 0);
        assert_eq!(text_roundtrip_of(&simple).self_loop_count(), 0);

        let looped = sample();
        assert_eq!(looped.self_loop_count(), 1);
        assert_eq!(text_roundtrip_of(&looped).self_loop_count(), 1);
    }

    #[test]
    fn max_degree_star_roundtrips_with_hub_intact() {
        let hub_degree = 40;
        let g =
            UndirectedCsr::from_edges(hub_degree + 1, (1..=hub_degree).map(|i| (0, i))).unwrap();
        let back = text_roundtrip_of(&g);
        assert_eq!(back, g);
        let (hub, d) = back.max_degree().unwrap();
        assert_eq!(hub.index(), 0);
        assert_eq!(d, hub_degree);
    }

    #[test]
    fn serialize_errors_are_std_errors_with_displays() {
        // Both failure paths of this module surface as GraphError, which
        // must satisfy the same Error + Display contract as graph::error.
        let parse_err = read_edge_list("3\n0\n".as_bytes()).unwrap_err();
        let rec_err = GraphRecord {
            nodes: 1,
            edges: vec![(0, 3)],
        }
        .to_graph()
        .unwrap_err();
        for e in [parse_err, rec_err] {
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(!boxed.to_string().is_empty());
        }
    }
}
