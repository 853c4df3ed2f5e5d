//! Plain-text table rendering for experiment output.
//!
//! Every experiment binary prints its results as an aligned text table plus
//! an optional CSV block, so runs can be eyeballed, diffed, and pasted into
//! EXPERIMENTS.md without extra tooling.

/// A column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        out.push_str(&format!("{}\n", "-".repeat(total)));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Renders as CSV (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a probability with 4 decimals.
pub fn prob(p: f64) -> String {
    format!("{p:.4}")
}

/// Formats a probability interval (no comma — cells must stay CSV-safe).
pub fn interval(lo: f64, hi: f64) -> String {
    format!("[{lo:.4}..{hi:.4}]")
}

/// Formats a scientific-notation value.
pub fn sci(v: f64) -> String {
    format!("{v:.2e}")
}

/// Truncates `s` to `max` characters, marking a cut with `…`.
pub fn clip(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let head: String = s.chars().take(max).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["n", "rate"]);
        t.row(vec!["10".into(), "0.37".into()]);
        t.row(vec!["100000".into(), "0.01".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("|      n | rate |"));
        assert!(s.contains("| 100000 | 0.01 |"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn csv_form() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "# demo\na,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        Table::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(prob(0.12345), "0.1235");
        assert_eq!(interval(0.1, 0.2), "[0.1000..0.2000]");
        assert_eq!(sci(0.000123), "1.23e-4");
    }
}
