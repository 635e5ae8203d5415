//! Sentence-CNN building blocks: 1-D convolution over embedded token
//! sequences, max-over-time pooling, and the parallel-width bank that
//! assembles them (Kim-style sentence CNN).

use crate::conv::{conv_backward, conv_forward, Grads};
use crate::init::Initializer;
use crate::layer::{Layer, ParamKind, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::{Conv2dGeometry, SeededRng, Tensor};

/// A 1-D convolution over `[N, 1, L, E]` embedded sequences: `filters`
/// kernels of shape `[width, E]` slide over the L axis with stride 1
/// and no padding, producing `[N, filters, L - width + 1, 1]`.
///
/// The lowering is the 2-D fused convolution with a non-square
/// `width x E` kernel whose horizontal extent covers the whole
/// embedding axis (`out_w == 1`): forward and backward are the very
/// batch routines of [`crate::Conv2d`], so this layer inherits its
/// fused kernels, the buffer arena and the fixed-reduction determinism
/// contract unchanged. Weight layout is `[filters, 1, width, E]`.
pub struct Conv1d {
    filters: usize,
    width: usize,
    embed_dim: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a 1-D convolution with `filters` kernels of the given
    /// window `width` over `embed_dim`-dimensional embeddings.
    pub fn new(
        filters: usize,
        width: usize,
        embed_dim: usize,
        init: Initializer,
        rng: &mut SeededRng,
    ) -> Self {
        let fan_in = width * embed_dim;
        let fan_out = filters * width;
        let weight = init.sample_weights(&[filters, 1, width, embed_dim], fan_in, fan_out, rng);
        let bias = init.sample_bias(&[filters], fan_in, rng);
        Self {
            filters,
            width,
            embed_dim,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Number of filters (output channels).
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Kernel window width (tokens covered per application).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Embedding dimension the kernels span.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Immutable access to the `[filters, 1, width, embed_dim]` weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the per-filter biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Runs [`conv_backward`] against the cached forward for the
    /// gradients `grads` asks for.
    fn grads(&mut self, grad_out: &Tensor, grads: Grads) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let geo = self.geometry(input.shape()[2]);
        let want = [input.shape()[0], self.filters, geo.out_plane(), 1];
        assert_eq!(grad_out.shape(), &want, "grad shape mismatch");
        conv_backward(
            &geo,
            &self.weight,
            input,
            grad_out,
            grads,
            &mut self.grad_weight,
            &mut self.grad_bias,
        )
    }

    /// The 2-D geometry this layer lowers onto for sequence length `l`:
    /// the one place its output length and cost come from.
    pub fn geometry(&self, l: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: l,
            in_w: self.embed_dim,
            kernel_h: self.width,
            kernel_w: self.embed_dim,
            stride: 1,
            pad: 0,
        }
    }
}

impl Layer for Conv1d {
    fn name(&self) -> &'static str {
        "conv1d"
    }

    fn summary(&self) -> String {
        format!("w{} x{} over E={}", self.width, self.filters, self.embed_dim)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv1d expects [N, 1, L, E]");
        let (c, l, e) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, 1, "Conv1d expects a single input channel");
        assert_eq!(e, self.embed_dim, "embedding-dimension mismatch");
        assert!(l >= self.width, "sequence shorter than kernel window");
        let out = conv_forward(&self.geometry(l), &self.weight, &self.bias, input, "conv1d_fused");
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.grads(grad_out, Grads::Both).expect("input gradient asked for")
    }

    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        self.grads(grad_out, Grads::Params);
    }

    fn input_grad(&mut self, grad_out: &Tensor) -> Tensor {
        self.grads(grad_out, Grads::Input).expect("input gradient asked for")
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                kind: ParamKind::Weight,
                value: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamSet { kind: ParamKind::Bias, value: &mut self.bias, grad: &mut self.grad_bias },
        ]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(input_shape[2]);
        vec![input_shape[0], self.filters, geo.out_h(), geo.out_w()]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::conv(input_shape[0], &self.geometry(input_shape[2]), self.filters)
    }
}

/// Max-over-time pooling: `[N, F, T, 1]` feature maps collapse to
/// `[N, F]` by taking each filter's maximum over the time axis (the
/// sentence-CNN's translation-invariant readout).
///
/// Ties keep the earliest time step (strict `>` comparison), so the
/// argmax — and the backward scatter — is deterministic.
pub struct MaxOverTime {
    cached_argmax: Vec<usize>,
    cached_in_shape: Vec<usize>,
}

impl MaxOverTime {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self { cached_argmax: Vec::new(), cached_in_shape: Vec::new() }
    }
}

impl Default for MaxOverTime {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for MaxOverTime {
    fn name(&self) -> &'static str {
        "max_over_time"
    }

    fn summary(&self) -> String {
        "max-over-time".to_string()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "MaxOverTime expects [N, F, T, 1]");
        let (n, f, t, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(w, 1, "MaxOverTime expects a unit trailing axis");
        assert!(t > 0, "empty time axis");
        let mut out = Tensor::zeros(&[n, f]);
        self.cached_argmax.clear();
        self.cached_argmax.reserve(n * f);
        let data = input.data();
        for nf in 0..n * f {
            let base = nf * t;
            let mut best = data[base];
            let mut best_idx = base;
            for (j, &v) in data[base..base + t].iter().enumerate().skip(1) {
                if v > best {
                    best = v;
                    best_idx = base + j;
                }
            }
            out.data_mut()[nf] = best;
            self.cached_argmax.push(best_idx);
        }
        self.cached_in_shape = input.shape().to_vec();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.cached_in_shape.is_empty(), "backward before forward");
        let (n, f) = (self.cached_in_shape[0], self.cached_in_shape[1]);
        assert_eq!(grad_out.shape(), &[n, f], "grad shape mismatch");
        let mut grad_in = Tensor::zeros(&self.cached_in_shape);
        let gin = grad_in.data_mut();
        for (nf, &src) in self.cached_argmax.iter().enumerate() {
            gin[src] += grad_out.data()[nf];
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        Vec::new()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[1]]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::max_over_time(input_shape[0], input_shape[1], input_shape[2])
    }
}

/// The sentence-CNN feature extractor: parallel [`Conv1d`] branches
/// with distinct window widths (canonically 3/4/5), each followed by
/// [`MaxOverTime`], with the pooled features concatenated into
/// `[N, widths.len() * filters]`.
///
/// [`crate::Network`] is strictly sequential, so the parallel branches
/// live inside this composite layer. Backward splits the incoming
/// gradient into per-branch column blocks and sums the branch input
/// gradients in ascending branch order — a fixed reduction chain, so
/// bits never depend on scheduling.
pub struct Conv1dBank {
    branches: Vec<(Conv1d, MaxOverTime)>,
    filters: usize,
}

impl Conv1dBank {
    /// Creates a bank with one branch per entry of `widths`, each with
    /// `filters` kernels over `embed_dim`-dimensional embeddings.
    pub fn new(
        filters: usize,
        widths: &[usize],
        embed_dim: usize,
        init: Initializer,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(!widths.is_empty(), "Conv1dBank needs at least one branch");
        let branches = widths
            .iter()
            .map(|&w| (Conv1d::new(filters, w, embed_dim, init, rng), MaxOverTime::new()))
            .collect();
        Self { branches, filters }
    }

    /// Filters per branch.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Branch window widths, in branch order.
    pub fn widths(&self) -> Vec<usize> {
        self.branches.iter().map(|(c, _)| c.width()).collect()
    }

    /// Total pooled feature count (`widths.len() * filters`).
    pub fn out_features(&self) -> usize {
        self.branches.len() * self.filters
    }

    /// Immutable access to the branch convolutions, in branch order.
    pub fn convs(&self) -> Vec<&Conv1d> {
        self.branches.iter().map(|(c, _)| c).collect()
    }

    /// Each branch's backward for the gradients `grads` asks for; the
    /// input gradient, when asked for, is the sum of the branches'.
    fn grads(&mut self, grad_out: &Tensor, grads: Grads) -> Option<Tensor> {
        let total = self.out_features();
        let n = grad_out.shape()[0];
        assert_eq!(grad_out.shape(), &[n, total], "grad shape mismatch");
        let f = self.filters;
        let mut grad_in: Option<Tensor> = None;
        for (b, (conv, pool)) in self.branches.iter_mut().enumerate() {
            let mut g = Tensor::zeros(&[n, f]);
            for s in 0..n {
                g.data_mut()[s * f..(s + 1) * f]
                    .copy_from_slice(&grad_out.data()[s * total + b * f..s * total + (b + 1) * f]);
            }
            let Some(gi) = conv.grads(&pool.backward(&g), grads) else { continue };
            grad_in = Some(match grad_in {
                // Branches accumulate in ascending branch order: a
                // fixed chain, so the sum is reproducible bit for bit.
                Some(acc) => acc.add(&gi).expect("branch grads share the input shape"),
                None => gi,
            });
        }
        grad_in
    }
}

impl Layer for Conv1dBank {
    fn name(&self) -> &'static str {
        "conv1d_bank"
    }

    fn summary(&self) -> String {
        let widths: Vec<String> =
            self.branches.iter().map(|(c, _)| c.width().to_string()).collect();
        format!("bank w[{}] x{}", widths.join(","), self.filters)
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let n = input.shape()[0];
        let f = self.filters;
        let total = self.out_features();
        let mut out = Tensor::zeros(&[n, total]);
        for (b, (conv, pool)) in self.branches.iter_mut().enumerate() {
            let pooled = pool.forward(&conv.forward(input, train), train);
            for s in 0..n {
                out.data_mut()[s * total + b * f..s * total + (b + 1) * f]
                    .copy_from_slice(&pooled.data()[s * f..(s + 1) * f]);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.grads(grad_out, Grads::Both).expect("input gradient asked for")
    }

    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        self.grads(grad_out, Grads::Params);
    }

    fn input_grad(&mut self, grad_out: &Tensor) -> Tensor {
        self.grads(grad_out, Grads::Input).expect("input gradient asked for")
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        self.branches.iter_mut().flat_map(|(c, _)| c.params()).collect()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features()]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let mut total = LayerCost::default();
        for (conv, pool) in &self.branches {
            let c = conv.cost(input_shape);
            let pooled = pool.cost(&conv.output_shape(input_shape));
            total = total.merge(c).merge(pooled);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv1d_matches_manual_window_sums() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv1d::new(1, 2, 2, Initializer::Xavier, &mut rng);
        conv.weight = Tensor::ones(&[1, 1, 2, 2]);
        conv.bias = Tensor::zeros(&[1]);
        // L=3, E=2: positions [1,2], [3,4], [5,6].
        let x = Tensor::from_vec(&[1, 1, 3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 1]);
        // Window 0: 1+2+3+4 = 10; window 1: 3+4+5+6 = 18.
        assert_eq!(y.data(), &[10.0, 18.0]);
    }

    #[test]
    fn conv1d_gradients_match_finite_difference() {
        let mut rng = SeededRng::new(2);
        let mut conv = Conv1d::new(3, 3, 4, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 1, 7, 4], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let r = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
        conv.zero_grads();
        let gx = conv.backward(&r);

        let eps = 1e-2f32;
        for &idx in &[0usize, 11, 27, 55] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = conv.forward(&xp, true).mul(&r).unwrap().sum();
            let lm = conv.forward(&xm, true).mul(&r).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 2e-2, "gx[{idx}]: {num} vs {}", gx.data()[idx]);
        }

        conv.forward(&x, true);
        conv.zero_grads();
        conv.backward(&r);
        let gw = conv.grad_weight.clone();
        for &idx in &[0usize, 9, 23] {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x, true).mul(&r).unwrap().sum();
            conv.weight.data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x, true).mul(&r).unwrap().sum();
            conv.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 2e-2, "gw[{idx}]: {num} vs {}", gw.data()[idx]);
        }
    }

    #[test]
    fn max_over_time_picks_earliest_max_and_routes_gradient() {
        let mut pool = MaxOverTime::new();
        let x = Tensor::from_vec(&[1, 2, 3, 1], vec![1.0, 5.0, 5.0, 2.0, 2.0, 0.0]).unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[5.0, 2.0]);
        let g = Tensor::from_vec(&[1, 2], vec![10.0, 20.0]).unwrap();
        let gin = pool.backward(&g);
        // Filter 0 ties at t=1/t=2 → earliest wins; filter 1 ties at
        // t=0/t=1 → earliest wins.
        assert_eq!(gin.data(), &[0.0, 10.0, 0.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn bank_concatenates_branch_features() {
        let mut rng = SeededRng::new(4);
        let mut bank = Conv1dBank::new(2, &[2, 3], 3, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 1, 6, 3], 0.0, 1.0, &mut rng);
        let y = bank.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4]);
        assert_eq!(y.shape(), bank.output_shape(x.shape()).as_slice());
        // First two features come from the width-2 branch alone.
        let mut rng2 = SeededRng::new(4);
        let mut solo = Conv1dBank::new(2, &[2], 3, Initializer::Xavier, &mut rng2);
        let ys = solo.forward(&x, false);
        assert_eq!(&y.data()[0..2], &ys.data()[0..2]);
    }

    #[test]
    fn bank_end_to_end_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(5);
        let mut bank = Conv1dBank::new(2, &[2, 3], 3, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[1, 1, 6, 3], 0.0, 1.0, &mut rng);
        let y = bank.forward(&x, true);
        let r = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
        bank.zero_grads();
        let gx = bank.backward(&r);

        let eps = 1e-2f32;
        let numeric = |bank: &mut Conv1dBank, x: &Tensor, idx: usize, eps: f32| {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = bank.forward(&xp, true).mul(&r).unwrap().sum();
            let lm = bank.forward(&xm, true).mul(&r).unwrap().sum();
            (lp - lm) / (2.0 * eps)
        };
        let mut checked = 0;
        for idx in 0..x.len() {
            let num1 = numeric(&mut bank, &x, idx, eps);
            let num2 = numeric(&mut bank, &x, idx, eps / 2.0);
            // Two step sizes disagreeing flags a max-over-time argmax
            // switch between the probes; those sites are nonsmooth and
            // finite differences are meaningless there.
            if (num1 - num2).abs() > 1e-2 {
                continue;
            }
            assert!(
                (num1 - gx.data()[idx]).abs() < 5e-2,
                "gx[{idx}]: {num1} vs {}",
                gx.data()[idx]
            );
            checked += 1;
        }
        assert!(checked > x.len() / 2, "too many kink skips: {checked}/{}", x.len());
        // Params exist for each branch: 2 branches x (weight + bias).
        assert_eq!(bank.params().len(), 4);
    }

    #[test]
    fn bank_cost_sums_branches() {
        let mut rng = SeededRng::new(6);
        let bank = Conv1dBank::new(4, &[3, 4, 5], 8, Initializer::Xavier, &mut rng);
        let c = bank.cost(&[2, 1, 16, 8]);
        assert!(c.fwd_flops > 0);
        assert_eq!(
            c.params,
            (4 * 3 * 8 + 4) as u64 + (4 * 4 * 8 + 4) as u64 + (4 * 5 * 8 + 4) as u64
        );
    }
}
