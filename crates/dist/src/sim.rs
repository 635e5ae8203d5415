//! Simulated-time accounting for distributed steps.
//!
//! Following the paper's timing methodology (and Deep500's separation
//! of *benchmark metric* from *implementation*), the real computation
//! runs at reduced scale while time is charged for the **paper-scale**
//! schedule: each worker's per-step compute is priced from the cell's
//! paper-scale network at the worker's share of the paper batch, and
//! each step's gradient exchange is priced by the collective's classic
//! cost formula on the host framework's link profile. The in-process
//! channels that actually move gradients are the simulation's
//! transport, not the thing being measured.

use crate::collective::Strategy;
use dlbench_data::DatasetKind;
use dlbench_frameworks::trainer::{PAPER_TEST_SAMPLES, TEST_BATCH};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind};
use dlbench_nn::{LayerCost, Network};
use dlbench_simtime::{devices, CostModel, LinkProfile};

/// Simulated paper-scale times for one device, split into the
/// compute/communication/wait components of the distributed step.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSim {
    /// Device label (`"CPU"` / `"GPU"`).
    pub device: String,
    /// Mean per-worker forward/backward time, summed over the schedule
    /// (the useful work on the critical path of a balanced step).
    pub compute_seconds: f64,
    /// Gradient-exchange time charged by the collective's cost model.
    pub comm_seconds: f64,
    /// Idle time waiting for the slowest worker (max − mean compute):
    /// zero when perfectly balanced, inflated by stragglers.
    pub straggler_wait_seconds: f64,
    /// Total simulated training time (compute + wait + comm).
    pub train_seconds: f64,
    /// Simulated paper test pass (10,000 images, batch 100) on one
    /// worker.
    pub test_seconds: f64,
}

/// Aggregate communication accounting for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommTotals {
    /// Bytes on the wire across all executed steps (actual, unscaled).
    pub total_bytes: u64,
    /// Mean bytes on the wire per step.
    pub bytes_per_step: u64,
}

/// Accumulates per-step simulated times over a distributed run.
pub(crate) struct SimTracker {
    devices: Vec<(String, CostModel)>,
    /// The cell's paper-scale network: every sub-batch is priced on it.
    paper_net: Network,
    paper_input: (usize, usize, usize),
    paper_batch: usize,
    link: LinkProfile,
    grad_bytes: u64,
    test_cost: LayerCost,
    compute: Vec<f64>,
    comm: Vec<f64>,
    wait: Vec<f64>,
    total_bytes: u64,
    steps: usize,
}

impl SimTracker {
    pub fn new(host: FrameworkKind, setting: &DefaultSetting, dataset: DatasetKind) -> Self {
        let native = setting.tuned_for.native_size();
        let paper_input = (dataset.channels(), native, native);
        let paper_net = trainer::effective_arch(host, setting).paper_network(paper_input);
        let paper_batch = setting.training().batch_size;
        let (c, h, w) = paper_input;
        // Wire volume: one full fp32 gradient/parameter image.
        let grad_bytes = paper_net.cost(&[paper_batch, c, h, w]).params * 4;
        // Paper test pass on one replica, as in the single-node trainer.
        let test_cost = paper_net.cost(&[TEST_BATCH, c, h, w]).forward_only();
        let profile = host.execution_profile();
        SimTracker {
            devices: vec![
                ("CPU".to_string(), CostModel::new(devices::xeon_e5_1620(), profile.clone())),
                ("GPU".to_string(), CostModel::new(devices::gtx_1080_ti(), profile)),
            ],
            paper_net,
            paper_input,
            paper_batch,
            link: host.link_profile(),
            grad_bytes,
            test_cost,
            compute: vec![0.0; 2],
            comm: vec![0.0; 2],
            wait: vec![0.0; 2],
            total_bytes: 0,
            steps: 0,
        }
    }

    /// One worker's simulated compute for its share of a step, on
    /// device index `device` (0 = CPU reference, 1 = GPU).
    fn worker_compute(&self, device: usize, samples: usize, batch_len: usize) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let pb = ((self.paper_batch * samples) as f64 / batch_len as f64).round().max(1.0) as usize;
        let (c, h, w) = self.paper_input;
        let cost = self.paper_net.cost(&[pb, c, h, w]);
        self.devices[device].1.train_iteration_seconds_batched(&cost, pb)
    }

    /// Per-sample simulated seconds on the CPU reference device,
    /// including the injected slowdown — what the straggler detector
    /// observes.
    pub fn per_sample_reference(&self, samples: usize, batch_len: usize, factor: f64) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        self.worker_compute(0, samples, batch_len) * factor / samples as f64
    }

    /// Records one executed step: `loads` is `(samples, slowdown
    /// factor)` per live worker, `world` the live-worker count.
    pub fn record_step(
        &mut self,
        loads: &[(usize, f64)],
        batch_len: usize,
        world: usize,
        strategy: Strategy,
    ) {
        let comm = strategy.comm_cost(&self.link, self.grad_bytes, world);
        self.total_bytes += comm.bytes;
        for d in 0..self.devices.len() {
            let mut max = 0.0f64;
            let mut sum = 0.0f64;
            for &(samples, factor) in loads {
                let secs = self.worker_compute(d, samples, batch_len) * factor;
                max = max.max(secs);
                sum += secs;
            }
            let mean = if loads.is_empty() { 0.0 } else { sum / loads.len() as f64 };
            self.compute[d] += mean;
            self.wait[d] += max - mean;
            self.comm[d] += comm.seconds;
        }
        self.steps += 1;
    }

    /// Scales the accumulated step costs to the paper's iteration
    /// budget and closes the books.
    pub fn finish(self, paper_iterations: usize) -> (Vec<DistSim>, CommTotals) {
        let steps = self.steps.max(1);
        let scale = paper_iterations as f64 / steps as f64;
        let test_batches = PAPER_TEST_SAMPLES.div_ceil(TEST_BATCH);
        let sims = self
            .devices
            .iter()
            .enumerate()
            .map(|(d, (label, model))| {
                let compute = self.compute[d] * scale;
                let comm = self.comm[d] * scale;
                let wait = self.wait[d] * scale;
                DistSim {
                    device: label.clone(),
                    compute_seconds: compute,
                    comm_seconds: comm,
                    straggler_wait_seconds: wait,
                    train_seconds: compute + wait + comm,
                    test_seconds: test_batches as f64
                        * model.inference_seconds_batched(&self.test_cost, TEST_BATCH),
                }
            })
            .collect();
        let totals = CommTotals {
            total_bytes: self.total_bytes,
            bytes_per_step: self.total_bytes / steps as u64,
        };
        (sims, totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_frameworks::DefaultSetting;

    fn tracker() -> SimTracker {
        let setting = DefaultSetting::new(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        SimTracker::new(FrameworkKind::TensorFlow, &setting, DatasetKind::Mnist)
    }

    #[test]
    fn balanced_step_has_no_wait() {
        let mut t = tracker();
        t.record_step(&[(8, 1.0), (8, 1.0)], 16, 2, Strategy::ParameterServer);
        let (sims, totals) = t.finish(100);
        for s in &sims {
            assert!(s.straggler_wait_seconds.abs() < 1e-12, "{:?}", s);
            assert!(s.compute_seconds > 0.0);
            assert!(s.comm_seconds > 0.0);
            assert!(s.test_seconds > 0.0);
            assert!(
                (s.train_seconds - (s.compute_seconds + s.comm_seconds + s.straggler_wait_seconds))
                    .abs()
                    < 1e-9
            );
        }
        assert!(totals.total_bytes > 0);
        assert_eq!(totals.bytes_per_step, totals.total_bytes);
    }

    #[test]
    fn straggler_shows_up_as_wait_not_compute() {
        let mut balanced = tracker();
        let mut skewed = tracker();
        balanced.record_step(&[(8, 1.0), (8, 1.0)], 16, 2, Strategy::ParameterServer);
        skewed.record_step(&[(8, 1.0), (8, 4.0)], 16, 2, Strategy::ParameterServer);
        let (b, _) = balanced.finish(10);
        let (s, _) = skewed.finish(10);
        assert!(s[0].straggler_wait_seconds > b[0].straggler_wait_seconds);
        assert!(s[0].train_seconds > b[0].train_seconds);
    }

    #[test]
    fn per_sample_reference_scales_with_factor() {
        let t = tracker();
        let base = t.per_sample_reference(8, 16, 1.0);
        let slow = t.per_sample_reference(8, 16, 3.0);
        assert!(base > 0.0);
        assert!((slow / base - 3.0).abs() < 1e-9);
        assert_eq!(t.per_sample_reference(0, 16, 1.0), 0.0);
    }

    #[test]
    fn ring_moves_fewer_bytes_than_ps_at_scale() {
        let mut ps_t = tracker();
        let mut ring_t = tracker();
        let loads: Vec<(usize, f64)> = (0..8).map(|_| (2usize, 1.0)).collect();
        ps_t.record_step(&loads, 16, 8, Strategy::ParameterServer);
        ring_t.record_step(&loads, 16, 8, Strategy::Ring);
        let (_, a) = ps_t.finish(1);
        let (_, b) = ring_t.finish(1);
        assert!(b.total_bytes < a.total_bytes, "ring {} vs ps {}", b.total_bytes, a.total_bytes);
    }
}
