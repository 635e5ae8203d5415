//! The paper's metric groups for one benchmark cell.

use dlbench_json::{JsonValue, ToJson};

/// Metrics for one *(framework, setting, dataset, device)* cell — one
/// bar in the paper's Figures 1–4 and 6–7, one row fragment in Tables
/// VI/VII.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Row label (framework and/or setting, paper style).
    pub label: String,
    /// Device label (`"CPU"`/`"GPU"`).
    pub device: String,
    /// Simulated training time for the full paper schedule, seconds.
    pub train_time_s: f64,
    /// Simulated testing time for the paper's test pass, seconds.
    pub test_time_s: f64,
    /// Measured accuracy, percent.
    pub accuracy_pct: f32,
    /// Whether training converged (the paper's Caffe-on-CIFAR cells
    /// famously do not).
    pub converged: bool,
    /// Wall-clock seconds this reproduction spent training the scaled
    /// configuration (not a paper metric; reported for transparency).
    pub wall_train_s: f64,
}

impl CellMetrics {
    /// One-line paper-style summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<32} [{}] train {:>10.2}s  test {:>7.2}s  acc {:>6.2}%{}",
            self.label,
            self.device,
            self.train_time_s,
            self.test_time_s,
            self.accuracy_pct,
            if self.converged { "" } else { "  (DID NOT CONVERGE)" }
        )
    }
}

impl ToJson for CellMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".into(), self.label.as_str().into()),
            ("device".into(), self.device.as_str().into()),
            ("train_time_s".into(), self.train_time_s.into()),
            ("test_time_s".into(), self.test_time_s.into()),
            ("accuracy_pct".into(), self.accuracy_pct.into()),
            ("converged".into(), self.converged.into()),
            ("wall_train_s".into(), self.wall_train_s.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_flags_divergence() {
        let m = CellMetrics {
            label: "Caffe (Caffe-MNIST) on CIFAR-10".into(),
            device: "GPU".into(),
            train_time_s: 115.3,
            test_time_s: 0.64,
            accuracy_pct: 11.03,
            converged: false,
            wall_train_s: 12.0,
        };
        let s = m.summary();
        assert!(s.contains("DID NOT CONVERGE"));
        assert!(s.contains("11.03"));
    }
}
