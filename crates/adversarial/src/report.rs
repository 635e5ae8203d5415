//! Attack result aggregation and crafting-cost accounting.

use dlbench_nn::LayerCost;
use dlbench_simtime::CostModel;

/// Source-class → adversarial-class tally for untargeted attacks
/// (paper Figure 8's per-digit success bars).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionRates {
    num_classes: usize,
    /// `counts[source][adversarial_pred]` over attacked samples.
    counts: Vec<Vec<usize>>,
    /// Attacked samples per source class.
    attempts: Vec<usize>,
}

impl ConfusionRates {
    /// Creates an empty tally.
    pub fn new(num_classes: usize) -> Self {
        Self {
            num_classes,
            counts: vec![vec![0; num_classes]; num_classes],
            attempts: vec![0; num_classes],
        }
    }

    /// Records one attack: the sample's true class and the model's
    /// prediction on the crafted example.
    pub fn record(&mut self, source: usize, adversarial_pred: usize) {
        self.attempts[source] += 1;
        self.counts[source][adversarial_pred] += 1;
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Attacked samples of a source class.
    pub fn attempts(&self, source: usize) -> usize {
        self.attempts[source]
    }

    /// Total attacked samples.
    pub fn total_attempts(&self) -> usize {
        self.attempts.iter().sum()
    }

    /// Untargeted success rate for one source class: the fraction of its
    /// attacked samples whose prediction changed.
    pub fn success_rate(&self, source: usize) -> f32 {
        let n = self.attempts[source];
        if n == 0 {
            return 0.0;
        }
        let flipped: usize =
            (0..self.num_classes).filter(|&t| t != source).map(|t| self.counts[source][t]).sum();
        flipped as f32 / n as f32
    }

    /// Per-source success rates (the 10 bars of Figure 8a/8b).
    pub fn success_rates(&self) -> Vec<f32> {
        (0..self.num_classes).map(|s| self.success_rate(s)).collect()
    }

    /// Mean success rate over classes with at least one attempt.
    pub fn mean_success_rate(&self) -> f32 {
        let active: Vec<f32> = (0..self.num_classes)
            .filter(|&s| self.attempts[s] > 0)
            .map(|s| self.success_rate(s))
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f32>() / active.len() as f32
        }
    }
}

/// Simulated crafting-time model for targeted attacks (paper Table
/// VIII): each JSMA iteration costs one forward pass plus `num_classes`
/// backward passes on a single sample, charged through the framework's
/// execution profile.
#[derive(Debug, Clone)]
pub struct CraftingCostModel {
    cost_model: CostModel,
    single_sample_cost: LayerCost,
    num_classes: usize,
}

impl CraftingCostModel {
    /// Creates the model from a device/profile cost model and the cost
    /// of one single-sample forward+backward pass.
    pub fn new(cost_model: CostModel, single_sample_cost: LayerCost, num_classes: usize) -> Self {
        Self { cost_model, single_sample_cost, num_classes }
    }

    /// Simulated seconds for one saliency-map iteration.
    pub fn seconds_per_iteration(&self) -> f64 {
        let c = &self.single_sample_cost;
        let n = self.num_classes as u64;
        // 1 forward + n backward passes, all forward-latency shaped.
        let jacobian_cost = LayerCost {
            fwd_flops: c.fwd_flops + n * c.bwd_flops,
            bwd_flops: 0,
            params: c.params,
            activations: c.activations * (n + 1),
            fwd_kernels: c.fwd_kernels + self.num_classes as u32 * c.bwd_kernels,
            bwd_kernels: 0,
        };
        self.cost_model.inference_seconds(&jacobian_cost)
    }

    /// Simulated seconds to craft with the given mean iterations per
    /// attempt and number of attempts.
    pub fn crafting_seconds(&self, mean_iterations: f64, attempts: usize) -> f64 {
        self.seconds_per_iteration() * mean_iterations * attempts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_simtime::{devices, profiles};

    #[test]
    fn confusion_rates_tally() {
        let mut r = ConfusionRates::new(3);
        r.record(0, 1); // flipped
        r.record(0, 0); // survived
        r.record(0, 2); // flipped
        r.record(1, 1); // survived
        assert_eq!(r.attempts(0), 3);
        assert!((r.success_rate(0) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(r.success_rate(1), 0.0);
        assert_eq!(r.success_rate(2), 0.0);
        assert_eq!(r.total_attempts(), 4);
        // Mean over classes with attempts only (classes 0 and 1).
        assert!((r.mean_success_rate() - (2.0 / 3.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn crafting_cost_scales_with_iterations() {
        let cost = LayerCost {
            fwd_flops: 5_000_000,
            bwd_flops: 10_000_000,
            params: 100_000,
            activations: 50_000,
            fwd_kernels: 10,
            bwd_kernels: 14,
        };
        let m = CraftingCostModel::new(
            CostModel::new(devices::gtx_1080_ti(), profiles::tensorflow()),
            cost,
            10,
        );
        let per_iter = m.seconds_per_iteration();
        assert!(per_iter > 0.0);
        let t10 = m.crafting_seconds(10.0, 100);
        let t20 = m.crafting_seconds(20.0, 100);
        assert!((t20 - 2.0 * t10).abs() < 1e-9);
    }

    #[test]
    fn fewer_feature_maps_craft_faster() {
        // Table VIII's observation: smaller nets (fewer feature maps)
        // yield faster crafting, whatever the framework.
        let big = LayerCost {
            fwd_flops: 50_000_000,
            bwd_flops: 100_000_000,
            params: 3_000_000,
            activations: 500_000,
            fwd_kernels: 12,
            bwd_kernels: 18,
        };
        let small = LayerCost { fwd_flops: 10_000_000, bwd_flops: 20_000_000, ..big };
        let model = CostModel::new(devices::gtx_1080_ti(), profiles::caffe());
        let mb = CraftingCostModel::new(model.clone(), big, 10);
        let ms = CraftingCostModel::new(model, small, 10);
        assert!(ms.seconds_per_iteration() < mb.seconds_per_iteration());
    }
}
