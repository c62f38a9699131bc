//! The `rcbench` harness: one binary ([`cli`]) whose subcommands
//! regenerate every table and figure of the paper's evaluation and run
//! the subsystem scenarios, plus the report formatting they share.
//!
//! A figure entry prints an aligned text table ([`Report`]) with the
//! paper's reported values alongside and writes the same text to
//! `results/<name>.txt`.

pub mod cli;
pub mod json;

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Report {
    title: String,
    lines: Vec<String>,
}

impl Report {
    /// Creates a report with a title block.
    pub fn new(title: &str) -> Self {
        Report {
            title: title.to_string(),
            lines: Vec::new(),
        }
    }

    /// Adds one preformatted line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Adds a blank line.
    pub fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bar = "=".repeat(self.title.len());
        let _ = writeln!(out, "{}\n{}", self.title, bar);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }
}

/// Formats a measured-vs-paper pair with the ratio.
pub fn vs(measured: f64, paper: f64, unit: &str) -> String {
    if paper == 0.0 {
        return format!("{measured:.1}{unit} (paper: n/a)");
    }
    format!(
        "{measured:.1}{unit} (paper {paper:.1}{unit}, ratio {:.2})",
        measured / paper
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_title_and_lines() {
        let mut r = Report::new("Table 1");
        r.line("a | b");
        r.blank();
        r.line("c");
        let s = r.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("a | b"));
        assert!(s.ends_with("c\n"));
    }

    #[test]
    fn vs_formats_ratio() {
        let s = vs(300.0, 150.0, "us");
        assert!(s.contains("ratio 2.00"), "{s}");
        assert!(vs(1.0, 0.0, "x").contains("n/a"));
    }
}
