//! Sequential network container.

use crate::layer::{Layer, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::Tensor;
use std::ops::Range;

/// A sequential stack of layers with forward/backward orchestration and
/// aggregate cost accounting.
///
/// Backward comes in two halves, by what the caller reads:
/// [`Network::backward`] accumulates the parameter gradients for
/// training, and [`Network::input_grad`] returns an activation gradient
/// for the gradient attacks. Neither computes what only the other's
/// caller needs (see [`Layer`] for the per-layer halves).
///
/// A pass can also be split at any layer boundary
/// ([`Network::forward_prefix`], [`Network::forward_from`],
/// [`Network::input_grad`]); the gradient attacks split a token model
/// past its embedding this way. Split passes run the same traced loops
/// as full ones.
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

    /// Backpropagates `grad_output` (the loss gradient at the logits)
    /// for training: accumulates every parameter gradient and computes
    /// nothing else. Trainers, distributed workers and the gradient
    /// checks call this.
    ///
    /// No caller reads the gradient at the network input, so the walk
    /// stops at the first layer with parameters, which runs
    /// [`Layer::accumulate_grads`] (a first convolution skips its
    /// data-gradient kernel, a first `Linear` its `gY·W` GEMM); the
    /// parameter-free layers before it do not run at all. A network
    /// without parameters runs every layer's backward, so an
    /// inference-only (int8) layer still refuses the call.
    ///
    /// Each layer runs under a `<layer>.bwd` trace span. Backward spans
    /// carry no FLOP payload: the layer's input shape (which the
    /// estimate needs) is not visible here, and the kernel spans inside
    /// carry their own counts.
    pub fn backward(&mut self, grad_output: &Tensor) {
        let first = self.layers.iter_mut().position(|l| !l.params().is_empty()).unwrap_or(0);
        let mut g = grad_output.clone();
        for (i, layer) in self.layers[first..].iter_mut().enumerate().rev() {
            let _span = backward_span(layer.as_ref());
            if i == 0 {
                layer.accumulate_grads(&g);
            } else {
                g = layer.backward(&g);
            }
        }
    }

    /// Propagates `grad_output` backward through the `[split, len)`
    /// suffix and returns the gradient w.r.t. the activation entering
    /// layer `split`, computing no parameter gradient (each layer runs
    /// [`Layer::input_grad`], under the span [`Network::backward`]
    /// describes). The gradient attacks call this: `split` is 0 for a
    /// pixel model and past the embedding for a token model. The suffix
    /// must have been run forward last — via [`Network::forward_from`]
    /// or a full [`Network::forward`].
    pub fn input_grad(&mut self, split: usize, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers[split..].iter_mut().rev() {
            let _span = backward_span(layer.as_ref());
            g = layer.input_grad(&g);
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

/// The `<layer>.bwd` Layer span of one backward step (none while
/// tracing is off, so the name is never formatted then).
fn backward_span(layer: &dyn Layer) -> Option<dlbench_trace::SpanGuard> {
    dlbench_trace::enabled().then(|| {
        dlbench_trace::span_owned(dlbench_trace::Category::Layer, format!("{}.bwd", layer.name()))
    })
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
    use crate::{
        Conv1dBank, Conv2d, Dropout, Embedding, Flatten, Initializer, Linear, MaxPool2d, Relu,
        SoftmaxCrossEntropy, Tanh,
    };
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
        let gx = net.input_grad(0, &loss.backward());

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
        let gx_whole = net.input_grad(0, &g);

        for split in 0..=net.len() {
            let mid = net.forward_prefix(split, &x, false);
            let out = net.forward_from(split, &mid, false);
            assert_eq!(out, whole, "split at {split}");
        }
        // A split pass's input gradient at 0 is the whole pass's.
        let mid = net.forward_prefix(0, &x, false);
        net.forward_from(0, &mid, false);
        assert_eq!(net.input_grad(0, &g), gx_whole);
        // Backward through a strict suffix returns the gradient at the
        // split boundary, matching a finite shape check.
        let mid = net.forward_prefix(2, &x, false);
        net.forward_from(2, &mid, false);
        let g_mid = net.input_grad(2, &g);
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
        let g1 = net.input_grad(0, &g);
        let g2 = net.input_grad(0, &g);
        assert_eq!(g1, g2);
    }

    /// The nets the backward halves are pinned on, each with an input
    /// batch: one starting with a conv, one whose first layer has no
    /// parameters (a Flatten ahead of a Linear, with a Dropout inside),
    /// one starting with a Linear, and a token model (an Embedding
    /// ahead of a Conv1dBank).
    fn split_nets(rng: &mut SeededRng) -> Vec<(Network, Tensor)> {
        let conv = (tiny_net(rng), Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, rng));
        let mut flat = Network::new("flatten-first");
        flat.push(Flatten::new());
        flat.push(Linear::new(16, 8, Initializer::Xavier, rng));
        flat.push(Relu::new());
        flat.push(Dropout::new(0.5, rng.fork(1)));
        flat.push(Linear::new(8, 5, Initializer::Xavier, rng));
        let flat = (flat, Tensor::randn(&[3, 1, 4, 4], 0.0, 1.0, rng));
        let mut dense = Network::new("linear-first");
        dense.push(Linear::new(6, 8, Initializer::Xavier, rng));
        dense.push(Tanh::new());
        dense.push(Linear::new(8, 4, Initializer::Xavier, rng));
        let dense = (dense, Tensor::randn(&[3, 6], 0.0, 1.0, rng));
        let mut text = Network::new("embedding-first");
        text.push(Embedding::new(10, 4, Initializer::Xavier, rng));
        text.push(Conv1dBank::new(3, &[2, 3], 4, Initializer::Xavier, rng));
        text.push(Relu::new());
        text.push(Linear::new(6, 2, Initializer::Xavier, rng));
        let ids: Vec<f32> = (0..12).map(|i| ((i * 7) % 10) as f32).collect();
        let text = (text, Tensor::from_vec(&[2, 1, 6, 1], ids).unwrap());
        vec![conv, flat, dense, text]
    }

    /// Runs `net` forward in training mode (Dropout draws its mask)
    /// and returns a random gradient at the logits.
    fn forward_with_grad(net: &mut Network, x: &Tensor, rng: &mut SeededRng) -> Tensor {
        let logits = net.forward(x, true);
        Tensor::randn(logits.shape(), 0.0, 1.0, rng)
    }

    /// Every layer's full [`Layer::backward`], output to input, from
    /// zeroed parameter gradients: the gradient entering each layer
    /// (index `i` is layer `i`'s input gradient, index `len` is `g`)
    /// and the bits of every parameter gradient afterwards.
    fn full_chain(net: &mut Network, g: &Tensor) -> (Vec<Tensor>, Vec<Vec<u32>>) {
        net.zero_grads();
        let mut grads = vec![g.clone()];
        for layer in net.layers_mut().iter_mut().rev() {
            let next = layer.backward(grads.last().unwrap());
            grads.push(next);
        }
        grads.reverse();
        (grads, grad_bits(net))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn grad_bits(net: &mut Network) -> Vec<Vec<u32>> {
        net.params().iter().map(|p| bits(p.grad)).collect()
    }

    #[test]
    fn backward_accumulates_the_full_chains_parameter_gradients() {
        let mut rng = SeededRng::new(9);
        for (mut net, x) in split_nets(&mut rng) {
            let g = forward_with_grad(&mut net, &x, &mut rng);
            let (_, want) = full_chain(&mut net, &g);
            net.zero_grads();
            net.backward(&g);
            assert_eq!(grad_bits(&mut net), want, "{}", net.name());
        }
    }

    #[test]
    fn input_grad_returns_the_full_chains_gradient_at_every_split() {
        let mut rng = SeededRng::new(10);
        for (mut net, x) in split_nets(&mut rng) {
            let g = forward_with_grad(&mut net, &x, &mut rng);
            let (want, _) = full_chain(&mut net, &g);
            for (split, want) in want.iter().enumerate() {
                let got = net.input_grad(split, &g);
                assert_eq!(bits(&got), bits(want), "{} at {split}", net.name());
            }
        }
    }

    #[test]
    fn input_grad_leaves_parameter_gradients_as_they_were() {
        let mut rng = SeededRng::new(11);
        for (mut net, x) in split_nets(&mut rng) {
            let g = forward_with_grad(&mut net, &x, &mut rng);
            for p in net.params() {
                p.grad.fill(0.375);
            }
            let sentinel = grad_bits(&mut net);
            for split in 0..=net.len() {
                net.input_grad(split, &g);
                assert_eq!(grad_bits(&mut net), sentinel, "{} at {split}", net.name());
            }
        }
    }
}
