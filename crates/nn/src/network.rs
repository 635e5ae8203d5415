//! Sequential network container.

use crate::layer::{Layer, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::Tensor;
use std::ops::Range;

/// A sequential stack of layers with forward/backward orchestration and
/// aggregate cost accounting.
///
/// A pass can also be split at any layer boundary
/// ([`Network::forward_prefix`], [`Network::forward_from`],
/// [`Network::backward_from`]); the gradient attacks split a token
/// model past its embedding this way. Split passes run the same traced
/// loops as full ones.
///
/// All reference architectures in the paper (Tables IV and V) are
/// sequential, so a `Vec<Box<dyn Layer>>` container is sufficient and
/// keeps the substrate auditable.
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), layers: Vec::new() }
    }

    /// The network's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack. The post-training
    /// quantization pass in `dlbench-quant` uses this (together with
    /// [`crate::AsAny`]) to replace quantizable layers with int8 layers
    /// in place, and to read every layer's parameters when it writes a
    /// version-2 checkpoint.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs all layers forward, returning the final output (logits).
    ///
    /// Each layer runs under a trace span named after the layer,
    /// carrying the forward-FLOP estimate from the same [`LayerCost`]
    /// arithmetic the simtime cost model charges (computed only while
    /// tracing is armed).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_range(0..self.layers.len(), input, train)
    }

    /// Runs only the first `end` layers forward (the `[0, end)` prefix),
    /// returning that prefix's output: the activation entering layer
    /// `end`. Gradient attacks on a token model perturb the embedding
    /// activations this yields.
    pub fn forward_prefix(&mut self, end: usize, input: &Tensor, train: bool) -> Tensor {
        self.forward_range(0..end, input, train)
    }

    /// Runs the layers from `start` onward forward (the `[start, len)`
    /// suffix), treating `input` as the activation entering layer
    /// `start`. Together with [`Network::forward_prefix`] this splits a
    /// forward pass at any layer boundary.
    pub fn forward_from(&mut self, start: usize, input: &Tensor, train: bool) -> Tensor {
        self.forward_range(start..self.layers.len(), input, train)
    }

    /// Runs the layers in `range` forward, each under the span
    /// [`Network::forward`] describes.
    fn forward_range(&mut self, range: Range<usize>, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers[range] {
            let flops = if dlbench_trace::enabled() { layer.cost(x.shape()).fwd_flops } else { 0 };
            let _span =
                dlbench_trace::span_flops(dlbench_trace::Category::Layer, layer.name(), flops);
            x = layer.forward(&x, train);
        }
        x
    }

    /// Propagates a gradient from the output back to the input,
    /// accumulating parameter gradients along the way, and returns the
    /// gradient w.r.t. the network input (used by adversarial attacks).
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_from(0, grad_output)
    }

    /// Propagates a gradient backward through the `[start, len)` suffix
    /// only, returning the gradient w.r.t. the activation entering
    /// layer `start` (parameter gradients accumulate as usual). The
    /// suffix must have been run forward last — via
    /// [`Network::forward_from`] or a full [`Network::forward`].
    pub fn backward_from(&mut self, start: usize, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers[start..].iter_mut().rev() {
            // Backward spans carry no FLOP payload: the layer's input
            // shape (which the estimate needs) is not visible here, and
            // the kernel spans inside carry their own counts.
            let _span = dlbench_trace::enabled().then(|| {
                dlbench_trace::span_owned(
                    dlbench_trace::Category::Layer,
                    format!("{}.bwd", layer.name()),
                )
            });
            g = layer.backward(&g);
        }
        g
    }

    /// Re-seeds every stochastic layer (dropout) from `seed`, offset by
    /// layer position so stacked stochastic layers draw distinct
    /// streams. Deterministic layers ignore it. See [`Layer::reseed`].
    pub fn reseed(&mut self, seed: u64) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.reseed(seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Mutable handles over every parameter in the network, in layer
    /// order (the optimizer's view).
    pub fn params(&mut self) -> Vec<ParamSet<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Total number of learnable scalars.
    pub fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Output shape for a given input shape, derived layer by layer.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    /// Aggregate cost of one forward+backward pass over a batch with the
    /// given input shape.
    pub fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let mut shape = input_shape.to_vec();
        let mut total = LayerCost::default();
        for layer in &self.layers {
            total = total.merge(layer.cost(&shape));
            shape = layer.output_shape(&shape);
        }
        total
    }

    /// One-line-per-layer architecture description (used to render the
    /// paper's Tables IV/V).
    pub fn describe(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.summary()).collect()
    }

    /// Snapshot of all parameter tensors (for checkpointing in tests and
    /// the retraining experiments).
    pub fn snapshot(&mut self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("layers", &self.describe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Flatten, Initializer, Linear, MaxPool2d, Relu, SoftmaxCrossEntropy};
    use dlbench_tensor::SeededRng;

    fn tiny_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("tiny");
        net.push(Conv2d::new(1, 4, 3, 1, 1, Initializer::Xavier, rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2, false));
        net.push(Flatten::new());
        net.push(Linear::new(4 * 4 * 4, 10, Initializer::Xavier, rng));
        net
    }

    #[test]
    fn forward_shape_matches_output_shape() {
        let mut rng = SeededRng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), net.output_shape(x.shape()).as_slice());
        assert_eq!(y.shape(), &[3, 10]);
    }

    #[test]
    fn end_to_end_input_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [3usize];
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = net.forward(&x, false);
        loss.forward(&logits, &labels);
        net.zero_grads();
        let gx = net.backward(&loss.backward());

        let eps = 1e-2f32;
        for &idx in &[0usize, 17, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let mut tmp = SoftmaxCrossEntropy::new();
            let (lp, _) = tmp.forward(&net.forward(&xp, false), &labels);
            let (lm, _) = tmp.forward(&net.forward(&xm, false), &labels);
            let num = (lp - lm) / (2.0 * eps);
            // Max-pool argmax switches can make finite differences
            // locally nonsmooth; tolerance is loose but catches sign and
            // scale errors.
            assert!((num - gx.data()[idx]).abs() < 5e-2, "gx[{idx}]: {num} vs {}", gx.data()[idx]);
        }
    }

    #[test]
    fn training_step_reduces_loss() {
        let mut rng = SeededRng::new(3);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[8, 1, 8, 8], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let mut loss = SoftmaxCrossEntropy::new();
        let (l0, _) = loss.forward(&net.forward(&x, true), &labels);
        // 20 plain gradient-descent steps.
        for _ in 0..20 {
            let logits = net.forward(&x, true);
            loss.forward(&logits, &labels);
            net.zero_grads();
            net.backward(&loss.backward());
            for p in net.params() {
                p.value.axpy(-0.5, p.grad).unwrap();
            }
        }
        let (l1, _) = loss.forward(&net.forward(&x, false), &labels);
        assert!(l1 < l0 * 0.5, "loss should halve: {l0} -> {l1}");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut rng = SeededRng::new(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let before = net.forward(&x, false);
        let snap = net.snapshot();
        // Perturb all params.
        for p in net.params() {
            p.value.map_inplace(|v| v + 1.0);
        }
        assert_ne!(net.forward(&x, false), before);
        for (p, s) in net.params().into_iter().zip(snap) {
            *p.value = s;
        }
        assert_eq!(net.forward(&x, false), before);
    }

    #[test]
    fn cost_aggregates_layers() {
        let mut rng = SeededRng::new(5);
        let net = tiny_net(&mut rng);
        let c = net.cost(&[1, 1, 8, 8]);
        assert!(c.fwd_flops > 0);
        assert!(c.params > 0);
        assert_eq!(c.params, 4 * 9 + 4 + (64 * 10 + 10));
        assert!(c.fwd_kernels >= 4);
    }

    #[test]
    fn num_params_counts_scalars() {
        let mut rng = SeededRng::new(6);
        let mut net = tiny_net(&mut rng);
        assert_eq!(net.num_params(), 4 * 9 + 4 + 64 * 10 + 10);
    }

    #[test]
    fn split_forward_backward_matches_whole_network() {
        let mut rng = SeededRng::new(8);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let whole = net.forward(&x, false);
        let mut g = Tensor::zeros(&[2, 10]);
        g.data_mut()[3] = 1.0;
        g.data_mut()[14] = -2.0;
        net.zero_grads();
        let gx_whole = net.backward(&g);

        for split in 0..=net.len() {
            let mid = net.forward_prefix(split, &x, false);
            let out = net.forward_from(split, &mid, false);
            assert_eq!(out, whole, "split at {split}");
        }
        // Suffix backward at split 0 is the whole backward.
        net.forward(&x, false);
        net.zero_grads();
        assert_eq!(net.backward_from(0, &g), gx_whole);
        // Backward through a strict suffix returns the gradient at the
        // split boundary, matching a finite shape check.
        let mid = net.forward_prefix(2, &x, false);
        net.forward_from(2, &mid, false);
        net.zero_grads();
        let g_mid = net.backward_from(2, &g);
        assert_eq!(g_mid.shape(), mid.shape());
    }

    #[test]
    fn multiple_backward_after_one_forward_are_consistent() {
        // The Jacobian computation in the adversarial crate relies on
        // backward being repeatable after a single forward.
        let mut rng = SeededRng::new(7);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 0.0, 1.0, &mut rng);
        net.forward(&x, false);
        let mut g = Tensor::zeros(&[1, 10]);
        g.data_mut()[3] = 1.0;
        let g1 = net.backward(&g);
        let g2 = net.backward(&g);
        assert_eq!(g1, g2);
    }
}
