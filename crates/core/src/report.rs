//! Structured experiment reports with paper-style rendering.

use crate::metrics::CellMetrics;
use dlbench_json::{JsonValue, ToJson};

/// A named data series (loss curves, per-digit success rates).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label.
    pub name: String,
    /// `(x, y)` points; `x` is an iteration, digit index, or target
    /// class depending on the experiment.
    pub points: Vec<(f64, f64)>,
}

impl ToJson for Series {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), self.name.as_str().into()),
            (
                "points".into(),
                JsonValue::Array(
                    self.points
                        .iter()
                        .map(|&(x, y)| JsonValue::Array(vec![x.into(), y.into()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The result of regenerating one paper table or figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentReport {
    /// Registry id, e.g. `"fig_5"`.
    pub id: String,
    /// Paper-style title.
    pub title: String,
    /// Metric rows (empty for purely series-shaped figures).
    pub rows: Vec<CellMetrics>,
    /// Data series (empty for purely tabular experiments).
    pub series: Vec<Series>,
    /// Free-form key/value lines (Table I metadata, attack parameters,
    /// crafting times…).
    pub facts: Vec<(String, String)>,
    /// Caveats and shape notes.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self { id: id.into(), title: title.into(), ..Default::default() }
    }

    /// Renders the report as aligned plain text (`dlbench run` prints
    /// this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for (k, v) in &self.facts {
            out.push_str(&format!("  {k}: {v}\n"));
        }
        if !self.rows.is_empty() {
            out.push_str(&format!(
                "  {:<40} {:>4}  {:>12}  {:>9}  {:>8}\n",
                "configuration", "dev", "train (s)", "test (s)", "acc (%)"
            ));
            for row in &self.rows {
                out.push_str(&format!(
                    "  {:<40} {:>4}  {:>12.2}  {:>9.2}  {:>8.2}{}\n",
                    row.label,
                    row.device,
                    row.train_time_s,
                    row.test_time_s,
                    row.accuracy_pct,
                    if row.converged { "" } else { "  [diverged]" }
                ));
            }
        }
        for series in &self.series {
            out.push_str(&format!("  series: {}\n", series.name));
            let ys: Vec<String> =
                series.points.iter().map(|&(x, y)| format!("({x:.0}, {y:.3})")).collect();
            // Wrap long series at 8 points per line.
            for chunk in ys.chunks(8) {
                out.push_str(&format!("    {}\n", chunk.join(" ")));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Renders the metric rows as horizontal log-scale bar charts (one
    /// block per metric), echoing the paper's bar-figure presentation.
    pub fn render_bars(&self) -> String {
        if self.rows.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        type MetricFn = fn(&crate::metrics::CellMetrics) -> f64;
        let metrics: [(&str, MetricFn); 3] = [
            ("training time (s, log scale)", |r| r.train_time_s),
            ("testing time (s, log scale)", |r| r.test_time_s),
            ("accuracy (%)", |r| r.accuracy_pct as f64),
        ];
        for (title, value) in metrics {
            out.push_str(&format!(
                "  {title}
"
            ));
            let values: Vec<f64> = self.rows.iter().map(|r| value(r).max(1e-9)).collect();
            let logs: Vec<f64> = values.iter().map(|v| v.log10()).collect();
            let lo = logs.iter().cloned().fold(f64::INFINITY, f64::min).min(0.0);
            let hi = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let span = (hi - lo).max(1e-9);
            const WIDTH: usize = 40;
            for (row, (&v, &l)) in self.rows.iter().zip(values.iter().zip(&logs)) {
                let filled = (((l - lo) / span) * WIDTH as f64).round() as usize;
                out.push_str(&format!(
                    "    {:<28} |{:<width$}| {:.2}\n",
                    truncate_label(&row.label, 28),
                    "#".repeat(filled.min(WIDTH)),
                    v,
                    width = WIDTH
                ));
            }
        }
        out
    }

    /// Serializes the report to pretty JSON (two-space indentation,
    /// fields in declaration order — the serde_json layout earlier
    /// revisions produced, kept stable for downstream tooling).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// The report as a [`JsonValue`] tree.
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("id".into(), self.id.as_str().into()),
            ("title".into(), self.title.as_str().into()),
            ("rows".into(), self.rows.to_json()),
            ("series".into(), self.series.to_json()),
            (
                "facts".into(),
                JsonValue::Array(
                    self.facts
                        .iter()
                        .map(|(k, v)| JsonValue::Array(vec![k.as_str().into(), v.as_str().into()]))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                JsonValue::Array(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
        ])
    }
}

/// Truncates a label to `max` characters with an ellipsis.
fn truncate_label(label: &str, max: usize) -> String {
    if label.len() <= max {
        label.to_string()
    } else {
        format!("{}..", &label[..max.saturating_sub(2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport::new("fig_x", "Sample");
        r.rows.push(CellMetrics {
            label: "TF".into(),
            device: "GPU".into(),
            train_time_s: 68.51,
            test_time_s: 0.26,
            accuracy_pct: 99.22,
            converged: true,
            wall_train_s: 10.0,
        });
        r.series.push(Series { name: "loss".into(), points: vec![(0.0, 2.3), (100.0, 0.5)] });
        r.facts.push(("epsilon".into(), "0.001".into()));
        r.notes.push("shape only".into());
        r
    }

    #[test]
    fn render_contains_all_sections() {
        let text = sample_report().render();
        assert!(text.contains("fig_x"));
        assert!(text.contains("99.22"));
        assert!(text.contains("series: loss"));
        assert!(text.contains("epsilon: 0.001"));
        assert!(text.contains("note: shape only"));
    }

    #[test]
    fn json_roundtrip_has_fields() {
        let json = sample_report().to_json();
        assert!(json.contains("\"id\": \"fig_x\""));
        assert!(json.contains("\"accuracy_pct\""));
    }

    #[test]
    fn bars_render_every_row() {
        let bars = sample_report().render_bars();
        assert!(bars.contains("training time"));
        assert!(bars.contains("accuracy"));
        assert!(bars.contains('#'));
        assert!(bars.contains("TF"));
    }

    #[test]
    fn bars_empty_for_seriesonly_reports() {
        let mut r = ExperimentReport::new("fig_y", "series only");
        r.series.push(Series { name: "s".into(), points: vec![(0.0, 1.0)] });
        assert!(r.render_bars().is_empty());
    }

    #[test]
    fn labels_truncated() {
        assert_eq!(truncate_label("short", 10), "short");
        assert_eq!(truncate_label("averyverylonglabelindeed", 10), "averyver..");
    }
}
