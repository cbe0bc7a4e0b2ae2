//! Result tables: one row per benchmark, one column per configuration.

use crate::Measurement;

/// How cell values should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Fixed-point with one decimal (slowdowns).
    Fixed1,
    /// Scientific notation (the log-scale rate figures).
    Scientific,
    /// Signed percentage (Figure 10).
    Percent,
}

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table title.
    pub title: String,
    /// What the cells mean (y-axis label).
    pub metric: String,
    /// Column labels (configurations).
    pub columns: Vec<String>,
    /// Row label → cells (one per column).
    pub rows: Vec<(String, Vec<f64>)>,
    /// Cell formatting.
    pub format: Format,
}

impl Table {
    /// Assembles a table from a figure's cells, benchmark-major as a sweep
    /// returns them, using `metric` per cell: a row per benchmark, a
    /// column per configuration.
    pub(crate) fn from_measurements(
        title: &str,
        metric_name: &str,
        measurements: &[Measurement],
        format: Format,
        metric: impl Fn(&Measurement) -> f64,
    ) -> Table {
        let rows: Vec<&[Measurement]> = measurements.chunk_by(|a, b| a.bench == b.bench).collect();
        let labels = |row: &[Measurement]| row.iter().map(|m| m.config.clone()).collect();
        Table {
            title: title.to_string(),
            metric: metric_name.to_string(),
            columns: rows.first().map_or_else(Vec::new, |row| labels(row)),
            rows: rows
                .iter()
                .map(|row| (row[0].bench.clone(), row.iter().map(&metric).collect()))
                .collect(),
            format,
        }
    }

    fn fmt_cell(&self, v: f64) -> String {
        if v.is_nan() {
            return "-".to_string();
        }
        match self.format {
            Format::Fixed1 => format!("{v:.1}"),
            Format::Scientific => format!("{v:.2e}"),
            Format::Percent => format!("{v:+.1}%"),
        }
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("   ({})\n", self.metric));
        let w0 = self
            .rows
            .iter()
            .map(|(b, _)| b.len())
            .chain([9])
            .max()
            .unwrap();
        let widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(9)).collect();
        out.push_str(&format!("{:w0$}", "benchmark", w0 = w0));
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}", w = w));
        }
        out.push('\n');
        for (bench, cells) in &self.rows {
            out.push_str(&format!("{bench:w0$}", w0 = w0));
            for (v, w) in cells.iter().zip(&widths) {
                out.push_str(&format!("  {:>w$}", self.fmt_cell(*v), w = w));
            }
            out.push('\n');
        }
        out
    }

    /// [`Table::render`], or [`Table::to_csv`] with `csv`.
    pub fn text(&self, csv: bool) -> String {
        if csv {
            self.to_csv()
        } else {
            self.render()
        }
    }

    /// Renders as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("benchmark");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (bench, cells) in &self.rows {
            out.push_str(bench);
            for v in cells {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table {
            title: "t".into(),
            metric: "m".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                ("gzip".into(), vec![1.5, 2.25]),
                ("mcf".into(), vec![3.0, f64::NAN]),
            ],
            format: Format::Fixed1,
        }
    }

    #[test]
    fn render_contains_all_cells() {
        let t = table();
        let s = t.render();
        assert!(s.contains("1.5") && s.contains("2.2") && s.contains("3.0"));
        assert!(s.contains('-'), "NaN renders as dash");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let t = table();
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("benchmark,a,b"));
    }

    #[test]
    fn formats() {
        let mut t = table();
        t.format = Format::Scientific;
        assert!(t.render().contains("e0") || t.render().contains("e-"));
        t.format = Format::Percent;
        assert!(t.render().contains('%'));
    }
}
