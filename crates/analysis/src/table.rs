//! Aligned text tables for experiment output.

use std::fmt;

/// A simple column-aligned table with a header row.
///
/// # Example
///
/// ```
/// use congames_analysis::Table;
/// let mut t = Table::new(vec!["n", "rounds"]);
/// t.row(vec!["128".into(), "42".into()]);
/// t.row(vec!["256".into(), "47".into()]);
/// let text = t.to_string();
/// assert!(text.contains("rounds"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<&str>) -> Self {
        assert!(!header.is_empty(), "tables need at least one column");
        Table { header: header.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width must match the header");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    /// Render as aligned plain text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (c, width)) in cells.iter().zip(&w).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:<width$}", c, width = width)?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
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
    fn aligned_text_render() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "10000".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset everywhere.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
