//! Minimal text-table rendering for experiment output: the aligned
//! [`TextTable`], the Figure 7 and lifetime CSV exports, and the
//! [`lint_summary`] table, which renders the lint counts of the
//! [`crate::design_space`] pass.

use printed_pdk::Technology;
use std::fmt;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// CSV export for plotting pipelines: one row per design point of
/// Figure 7.
pub fn figure7_csv(points: &[crate::figures::DesignPoint]) -> String {
    let mut out =
        String::from("core,pipeline,datawidth,bars,gates,dffs,fmax_hz,area_cm2,power_mw\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            p.name,
            p.pipeline_stages,
            p.datawidth,
            p.bars,
            p.gate_count,
            p.sequential,
            p.fmax.as_hertz(),
            p.area.as_cm2(),
            p.power.as_milliwatts()
        ));
    }
    out
}

/// CSV export for the lifetime curves of Figures 4/5.
pub fn lifetime_csv(curves: &[crate::lifetime::LifetimeCurve]) -> String {
    let mut out = String::from("cpu,battery,duty,lifetime_hours\n");
    for curve in curves {
        for &(duty, t) in &curve.samples {
            out.push_str(&format!("{},{},{},{}\n", curve.cpu, curve.battery, duty, t.as_hours()));
        }
    }
    out
}

/// Design-rule-check summary: every design point of the Figure 7 sweep
/// plus all four baseline cores, linted against the given technology's
/// cell library. One row per design with its diagnostic counts — the
/// evaluation's evidence that everything it costs out is DRC-clean. A
/// sweep core generation refuses shows its failing counts with no gate
/// count. The counts come from the process's one
/// [`crate::design_space`] pass.
pub fn lint_summary(technology: Technology) -> TextTable {
    let _span = printed_obs::span!("eval.lint_summary");
    let mut table = TextTable::new(
        format!("Lint summary ({technology:?})"),
        &["design", "gates", "errors", "warnings", "infos"],
    );
    for row in &crate::design_space::rows(technology).lint {
        table.row(vec![
            row.design.clone(),
            row.gates.to_string(),
            row.errors.to_string(),
            row.warnings.to_string(),
            row.infos.to_string(),
        ]);
    }
    table
}

/// Formats a float with engineering-friendly precision.
pub fn eng(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else if value.abs() >= 0.1 {
        format!("{value:.2}")
    } else {
        format!("{value:.3e}")
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("longer"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("Bad", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_exports_have_matching_columns() {
        use printed_pdk::Technology;
        let points = crate::figures::figure7(Technology::Egfet);
        let csv = figure7_csv(&points);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), points.len());
        for line in body {
            assert_eq!(line.split(',').count(), header_cols);
        }

        let curves = crate::lifetime::lifetime_figure(Technology::Egfet);
        let csv = lifetime_csv(&curves);
        assert!(csv.lines().count() > 16 * 10, "all sweep samples exported");
    }

    #[test]
    fn lint_summary_covers_every_design_and_reports_zero_errors() {
        for technology in [Technology::Egfet, Technology::CntTft] {
            let table = lint_summary(technology);
            // 24 sweep points + 4 baselines.
            assert_eq!(table.len(), 28);
            let rendered = table.to_string();
            for line in rendered.lines().skip(3) {
                let cols: Vec<&str> = line.split_whitespace().collect();
                assert_eq!(cols[2], "0", "nonzero error count in row: {line}");
            }
            assert!(rendered.contains("light8080"));
            assert!(rendered.contains("p1_8_2"));
        }
    }

    #[test]
    fn eng_formats_ranges() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(12345.6), "12346");
        assert_eq!(eng(42.42), "42.4");
        assert_eq!(eng(1.234), "1.23");
        assert_eq!(eng(0.00123), "1.230e-3");
    }
}
