//! Aligned plain-text tables for experiment output.

use std::fmt;

/// A simple column-aligned text table.
///
/// Experiment binaries print one table per paper artifact; keeping the
/// formatting here means every experiment reports rows the same way.
///
/// # Example
///
/// ```
/// use nonsearch_analysis::Table;
///
/// let mut t = Table::new(vec!["n".into(), "requests".into()]);
/// t.row(vec!["1024".into(), "53.1".into()]);
/// t.row(vec!["4096".into(), "108.9".into()]);
/// let text = t.to_string();
/// assert!(text.contains("requests"));
/// assert!(text.lines().count() >= 4); // header, rule, two rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from `&str` headers.
    pub fn with_columns(headers: &[&str]) -> Table {
        Table::new(headers.iter().map(|s| s.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::with_columns(&["model", "n", "cost"]);
        t.row(vec!["mori".into(), "1024".into(), "51.2".into()]);
        t.row(vec!["cooper-frieze".into(), "1024".into(), "63.0".into()]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal display width.
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w));
    }

    #[test]
    fn empty_table_has_header_and_rule() {
        let t = Table::with_columns(&["a"]);
        assert!(t.is_empty());
        assert_eq!(t.to_string().lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn wrong_arity_panics() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn len_counts_rows() {
        let mut t = Table::with_columns(&["x"]);
        t.row(vec!["1".into()]).row(vec!["2".into()]);
        assert_eq!(t.len(), 2);
    }
}
