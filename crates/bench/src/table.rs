//! Plain-text table rendering for experiment reports.

use std::fmt;

/// A simple aligned text table with a title and a caption.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    caption: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column header.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            caption: String::new(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets a caption printed under the table.
    pub fn set_caption(&mut self, caption: &str) {
        self.caption = caption.to_string();
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The rows added so far.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as Markdown (`tables --markdown`).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.caption.is_empty() {
            out.push_str(&format!("\n{}\n", self.caption));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} ")?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            line(f, row)?;
        }
        if !self.caption.is_empty() {
            writeln!(f, "{}", self.caption)?;
        }
        Ok(())
    }
}

/// Formats a float with 1 decimal place.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimal places.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("demo", &["n", "cost"]);
        t.push_row(vec!["2".into(), "16".into()]);
        t.push_row(vec!["16".into(), "1024".into()]);
        t.set_caption("a caption");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1024"));
        assert!(s.contains("a caption"));
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
    }
}
