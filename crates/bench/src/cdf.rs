//! Series / CDF handling for the figure harness.
//!
//! Every figure in the paper's evaluation is either a CDF of per-node
//! download times (Figs 4–12, 14, 15) or a per-block series (Fig 13). This
//! module holds the small amount of shared plumbing: turning completion-time
//! vectors into CDFs, computing the summary statistics quoted in the text
//! (median/percentile improvements, slowest-node speed-ups), and printing
//! figures as aligned text tables or JSON for external plotting.

use netsim::probe::quantile_index;
use serde::{Serialize, Value};

/// One labelled curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's legend where applicable).
    pub label: String,
    /// `(x, y)` points. For CDFs, x = download time (s), y = fraction of nodes.
    pub points: Vec<(f64, f64)>,
    /// Which constructor built the series: [`Series::cdf`] or [`Series::xy`].
    cdf: bool,
}

/// `label` and `points` only: how a series is summarised in text is not part
/// of the figure's JSON.
impl Serialize for Series {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("label".to_string(), self.label.to_value()),
            ("points".to_string(), self.points.to_value()),
        ])
    }
}

impl Series {
    /// Builds a CDF series from unsorted completion times.
    pub fn cdf(label: impl Into<String>, times: &[f64]) -> Self {
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len().max(1) as f64;
        let points = sorted
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, (i + 1) as f64 / n))
            .collect();
        Series {
            label: label.into(),
            points,
            cdf: true,
        }
    }

    /// Builds a curve: y over time, block number or load.
    pub fn xy(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
            cdf: false,
        }
    }

    /// True for a CDF, whose x values are what the text table and `lab
    /// sweep`'s "slowest" summarise; false for a curve, summarised by y.
    pub fn is_cdf(&self) -> bool {
        self.cdf
    }

    /// Largest x value (the slowest node for CDFs).
    pub fn max_x(&self) -> f64 {
        self.points.iter().map(|(x, _)| *x).fold(f64::NAN, f64::max)
    }

    /// The four numbers of the series' row in a text table: p10 / median /
    /// p90 / slowest of a CDF's x values, min / median / max / last of a
    /// curve's y values.
    fn summary(&self) -> [f64; 4] {
        if self.cdf {
            let q = |fraction| self.quantile(fraction);
            return [q(0.10), q(0.50), q(0.90), self.max_x()];
        }
        // The y values as a distribution of their own.
        let ys: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        let spread = Series::cdf("", &ys);
        let last = ys.last().copied().unwrap_or(f64::NAN);
        let q = |fraction| spread.quantile(fraction);
        [q(0.0), q(0.5), spread.max_x(), last]
    }

    /// The x value at which the CDF reaches `fraction` (e.g. 0.5 = median).
    pub fn quantile(&self, fraction: f64) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        self.points[quantile_index(self.points.len(), fraction)].0
    }
}

/// A complete figure: several series plus identifying metadata.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Which paper figure this reproduces (e.g. "Figure 4").
    pub id: String,
    /// Human-readable description of the setup.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Free-form notes: derived headline numbers, paper comparisons, caveats.
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: "download time (s)".into(),
            y_label: "fraction of nodes".into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a headline note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the figure as text: a summary table, then the notes (every
    /// point is in [`Figure::to_json`]). A CDF's row is quantiles of x; a
    /// curve's row is statistics of y. Rows keep series order, under a header
    /// naming the columns wherever the kind of series changes.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let mut headed = None;
        for s in &self.series {
            if headed != Some(s.cdf) {
                headed = Some(s.cdf);
                let [name, a, b, c, d] = if s.cdf {
                    ["series", "p10", "median", "p90", "slowest"]
                } else {
                    ["curve (y values)", "min", "median", "max", "last"]
                };
                let _ = writeln!(out, "{name:<44} {a:>10} {b:>10} {c:>10} {d:>10}");
            }
            let [a, b, c, d] = s.summary();
            let digits = if s.cdf { 1 } else { 3 };
            let _ = writeln!(
                out,
                "{:<44} {a:>10.digits$} {b:>10.digits$} {c:>10.digits$} {d:>10.digits$}",
                s.label
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Serialises the figure to JSON (for external plotting).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figures are always serialisable")
    }
}

/// Relative improvement of `ours` over `theirs` at a given CDF quantile,
/// expressed the way the paper quotes it ("faster by X%"): the fraction of
/// `theirs` saved by `ours`.
pub fn improvement_at(ours: &Series, theirs: &Series, fraction: f64) -> f64 {
    let a = ours.quantile(fraction);
    let b = theirs.quantile(fraction);
    if b <= 0.0 {
        return 0.0;
    }
    (b - a) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_sorted_and_normalised() {
        let s = Series::cdf("x", &[3.0, 1.0, 2.0, 4.0]);
        let xs: Vec<f64> = s.points.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.points.last().unwrap().1, 1.0);
        assert_eq!(s.points.first().unwrap().1, 0.25);
        assert_eq!(s.max_x(), 4.0);
    }

    #[test]
    fn quantiles_pick_expected_elements() {
        let s = Series::cdf(
            "x",
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
        );
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 10.0);
    }

    #[test]
    fn improvement_matches_paper_style_quote() {
        let ours = Series::cdf("ours", &[75.0; 10]);
        let theirs = Series::cdf("theirs", &[100.0; 10]);
        let imp = improvement_at(&ours, &theirs, 0.5);
        assert!((imp - 0.25).abs() < 1e-12, "75 vs 100 is 25% faster");
    }

    #[test]
    fn render_text_contains_labels_and_notes() {
        let mut f = Figure::new("Figure 0", "smoke test");
        f.push(Series::cdf("alpha", &[1.0, 2.0]));
        f.note("hello");
        let text = f.render_text();
        assert!(text.contains("Figure 0"));
        assert!(text.contains("alpha"));
        assert!(text.contains("note: hello"));
        let json = f.to_json();
        assert!(json.contains("\"alpha\""));
    }

    #[test]
    fn a_cdf_row_is_quantiles_of_x_and_a_curve_row_statistics_of_y() {
        let mut f = Figure::new("Figure 0", "one of each");
        f.push(Series::cdf("alpha", &[30.0, 10.0, 20.0, 40.0]));
        // Every x is 1000x its y: an x in the row would show.
        let curve = [(3000.0, 3.0), (1000.0, 1.0), (4000.0, 4.0), (2000.0, 2.0)];
        f.push(Series::xy("beta", curve.to_vec()));
        let text = f.render_text();
        let lines: Vec<&str> = text.lines().collect();
        let row = |name: &str, cols: [&str; 4]| {
            let [a, b, c, d] = cols;
            format!("{name:<44} {a:>10} {b:>10} {c:>10} {d:>10}")
        };
        assert_eq!(
            lines[1..],
            [
                row("series", ["p10", "median", "p90", "slowest"]),
                row("alpha", ["10.0", "20.0", "40.0", "40.0"]),
                row("curve (y values)", ["min", "median", "max", "last"]),
                row("beta", ["1.000", "2.000", "4.000", "2.000"]),
            ]
        );
    }

    #[test]
    fn the_kind_of_a_series_stays_out_of_its_json() {
        let mut f = Figure::new("Figure 0", "keys");
        f.push(Series::cdf("alpha", &[1.0]));
        f.push(Series::xy("beta", vec![(1.0, 2.0)]));
        assert!(f.series[0].is_cdf() && !f.series[1].is_cdf());
        let Value::Object(figure) = f.to_value() else {
            panic!("a figure is an object");
        };
        let keys = |fields: &[(String, Value)]| -> Vec<String> {
            fields.iter().map(|(key, _)| key.clone()).collect()
        };
        assert_eq!(
            keys(&figure),
            ["id", "title", "x_label", "y_label", "series", "notes"]
        );
        let Some((_, Value::Array(series))) = figure.iter().find(|(key, _)| key == "series") else {
            panic!("series is an array");
        };
        for s in series {
            let Value::Object(fields) = s else {
                panic!("a series is an object");
            };
            assert_eq!(keys(fields), ["label", "points"]);
        }
    }
}
