//! 2-D convolution layer (fused im2col + GEMM lowering).

use crate::init::Initializer;
use crate::layer::{Layer, ParamKind, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::{
    arena, conv_backward_data, conv_backward_filter, conv_forward_fused, gemm, im2col, par,
    Conv2dGeometry, ConvBackward, PackedConvWeight, Tensor,
};

/// A 2-D convolution over `[N, C, H, W]` inputs with square kernels,
/// uniform stride and symmetric zero padding.
///
/// Forward and backward run the fused kernels of
/// [`dlbench_tensor::conv_forward_fused`] and
/// [`dlbench_tensor::conv_backward_data`]/[`conv_backward_filter`](dlbench_tensor::conv_backward_filter):
/// weights are packed once per call and patch values are read straight
/// from the image, never materializing the column matrix. The results
/// are bitwise identical to the materialized lowering (the forward's is
/// kept as [`Conv2d::forward_materialized`]; the transparency tests in
/// `tests/tests/kernels.rs` pin both directions). Weight layout matches
/// Caffe: `[out_c, in_c, kh, kw]`.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with the given geometry and
    /// initializer.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Initializer,
        rng: &mut dlbench_tensor::SeededRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight =
            init.sample_weights(&[out_channels, in_channels, kernel, kernel], fan_in, fan_out, rng);
        let bias = init.sample_bias(&[out_channels], fan_in, rng);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Number of output channels (feature maps).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Immutable access to the kernel weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the per-channel biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Square kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Uniform stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// The convolution this layer runs over an `in_h × in_w` input
    /// plane: the one place its output size and cost come from.
    pub fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h,
            in_w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Runs [`conv_backward`] against the cached forward for the
    /// gradients `grads` asks for.
    fn grads(&mut self, grad_out: &Tensor, grads: Grads) -> Option<Tensor> {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let geo = self.geometry(input.shape()[2], input.shape()[3]);
        let want = [input.shape()[0], self.out_channels, geo.out_h(), geo.out_w()];
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

    /// Reference forward through the materialized im2col + GEMM
    /// lowering. Kept as the transparency oracle for the fused kernel:
    /// `forward` must produce bitwise-identical output (see
    /// `tests/tests/kernels.rs`). Does not cache the input.
    pub fn forward_materialized(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "channel mismatch");
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let sample_out = self.out_channels * plane;

        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let out_channels = self.out_channels;
        let weight = self.weight.data();
        let bias = self.bias.data();
        let in_data = input.data();
        let per_sample = |first: usize, out_chunk: &mut [f32]| {
            let mut cols = arena::take(patch * plane);
            for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
                let s = first + si;
                im2col(&geo, &in_data[s * sample_in..(s + 1) * sample_in], &mut cols);
                for oc in 0..out_channels {
                    out_s[oc * plane..(oc + 1) * plane].fill(bias[oc]);
                }
                gemm(out_channels, patch, plane, weight, &cols, out_s);
            }
        };
        if n * out_channels * patch * plane < par::PAR_MIN_WORK {
            per_sample(0, out.data_mut());
        } else {
            par::par_row_chunks_mut(out.data_mut(), sample_out, per_sample);
        }
        out
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn summary(&self) -> String {
        format!(
            "{k}x{k}, {i}->{o} (stride {s}, pad {p})",
            k = self.kernel,
            i = self.in_channels,
            o = self.out_channels,
            s = self.stride,
            p = self.pad
        )
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W]");
        let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "channel mismatch");
        let geo = self.geometry(h, w);
        let out = conv_forward(&geo, &self.weight, &self.bias, input, "conv_fused");
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
        let geo = self.geometry(input_shape[2], input_shape[3]);
        vec![input_shape[0], self.out_channels, geo.out_h(), geo.out_w()]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let geo = self.geometry(input_shape[2], input_shape[3]);
        LayerCost::conv(input_shape[0], &geo, self.out_channels)
    }
}

/// Convolution forward over a batch (`[N, …]` samples of geometry
/// `geo`) through the fused kernel: returns `[N, out_c, out_h, out_w]`
/// with each output plane seeded from its bias. Shared by [`Conv2d`] and
/// [`crate::Conv1d`]; `span` names the Kernel span carrying the batch's
/// FLOPs.
pub(crate) fn conv_forward(
    geo: &Conv2dGeometry,
    weight: &Tensor,
    bias: &Tensor,
    input: &Tensor,
    span: &'static str,
) -> Tensor {
    let n = input.shape()[0];
    let (out_channels, patch, plane) = (weight.shape()[0], geo.patch_len(), geo.out_plane());
    let sample_in = geo.in_channels * geo.in_h * geo.in_w;
    let sample_out = out_channels * plane;
    let mut out = Tensor::zeros(&[n, out_channels, geo.out_h(), geo.out_w()]);
    // One Kernel span on the caller thread for the whole fused batch,
    // carrying the joined FLOP count so `dlbench profile` reports
    // achieved GFLOP/s for the fused kernel.
    let work = n * out_channels * patch * plane;
    let _span = dlbench_trace::span_flops(dlbench_trace::Category::Kernel, span, 2 * work as u64);
    // Weights pack once per call and are shared read-only across
    // samples and workers. Samples are independent, so the batch
    // parallelizes over disjoint per-sample output rows, and the
    // per-sample math is exactly the serial kernel — bitwise, at any
    // thread count.
    let packed = PackedConvWeight::pack(geo, out_channels, weight.data());
    let (bias, in_data) = (bias.data(), input.data());
    let per_sample = |first: usize, out_chunk: &mut [f32]| {
        for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
            let s = first + si;
            // out[oc, plane] = W[oc, patch] @ cols[patch, plane] + bias
            for (plane_out, &b) in out_s.chunks_mut(plane).zip(bias) {
                plane_out.fill(b);
            }
            conv_forward_fused(&packed, &in_data[s * sample_in..(s + 1) * sample_in], out_s);
        }
    };
    if work < par::PAR_MIN_WORK {
        per_sample(0, out.data_mut());
    } else {
        par::par_row_chunks_mut(out.data_mut(), sample_out, per_sample);
    }
    out
}

/// The gradients one backward call computes: each [`Layer`] backward
/// method asks for one of these.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grads {
    /// Parameter and input gradients ([`Layer::backward`]).
    Both,
    /// Parameter gradients only ([`Layer::accumulate_grads`]).
    Params,
    /// The input gradient only ([`Layer::input_grad`]).
    Input,
}

impl Grads {
    /// Whether the input gradient is computed.
    pub(crate) fn input(self) -> bool {
        self != Grads::Params
    }

    /// Whether the parameter gradients are accumulated.
    pub(crate) fn params(self) -> bool {
        self != Grads::Input
    }
}

/// Convolution backward over a batch through the fused kernels: returns
/// the input gradient when `grads` asks for it, and adds the weight and
/// bias gradients into `grad_weight`/`grad_bias` when it asks for
/// those. Shared by [`Conv2d`] and [`crate::Conv1d`].
///
/// Input gradients of different samples are disjoint, so the batch
/// splits over samples directly, and each run of samples (the whole
/// batch on the serial path, a worker's chunk on the parallel one) is
/// one `conv_backward_data` call, which computes groups of samples
/// together. Weight/bias gradients accumulate *across* samples: each
/// sample's partial is formed from zero in a staging row and the rows
/// are added in ascending sample order — the same additions, in the same
/// order, at any thread count, hence bit-identical. (The serial path
/// stages too: folding sample `s` straight into `grad_weight` would
/// interleave its terms with the running total instead of adding one
/// per-sample partial.) A gradient that is not asked for costs nothing:
/// no `conv_backward_data` call without the input gradient, no
/// `conv_backward_filter`, bias sums or staging rows without the
/// parameter gradients; each one computed has the same bits as in
/// [`Grads::Both`].
pub(crate) fn conv_backward(
    geo: &Conv2dGeometry,
    weight: &Tensor,
    input: &Tensor,
    grad_out: &Tensor,
    grads: Grads,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let n = input.shape()[0];
    let (out_channels, patch, plane) = (weight.shape()[0], geo.patch_len(), geo.out_plane());
    let sample_in = geo.in_channels * geo.in_h * geo.in_w;
    let sample_out = out_channels * plane;
    let backward = ConvBackward::new(geo, out_channels, weight.data());
    let (in_data, gout) = (input.data(), grad_out.data());
    // One staging row per sample: the weight partial, then the bias's.
    let row_len = out_channels * patch + out_channels;
    // The input gradients of samples `first..`, one row of `gin` each.
    let data = |first: usize, gin: &mut [f32]| {
        let count = gin.len() / sample_in;
        conv_backward_data(&backward, &gout[first * sample_out..][..count * sample_out], gin);
    };
    // The parameter partials of samples `first..`, one row of `rows` each.
    let params = |first: usize, rows: &mut [f32]| {
        for (si, row) in rows.chunks_exact_mut(row_len).enumerate() {
            let s = first + si;
            let gout_s = &gout[s * sample_out..(s + 1) * sample_out];
            let (w_part, b_part) = row.split_at_mut(out_channels * patch);
            conv_backward_filter(
                &backward,
                &in_data[s * sample_in..(s + 1) * sample_in],
                gout_s,
                w_part,
            );
            for (b, g) in b_part.iter_mut().zip(gout_s.chunks(plane)) {
                *b = g.iter().sum::<f32>();
            }
        }
    };
    let mut add_partial = |row: &[f32]| {
        let (w_part, b_part) = row.split_at(out_channels * patch);
        for (dst, src) in grad_weight.data_mut().iter_mut().zip(w_part) {
            *dst += src;
        }
        for (dst, src) in grad_bias.data_mut().iter_mut().zip(b_part) {
            *dst += src;
        }
    };
    let mut grad_in = grads.input().then(|| Tensor::zeros(input.shape()));
    let gin = grad_in.as_mut().map_or(&mut [][..], Tensor::data_mut);
    if n * out_channels * patch * plane < par::PAR_MIN_WORK
        || par::is_worker()
        || par::threads() == 1
    {
        if grads.input() {
            data(0, gin);
        }
        if grads.params() {
            let mut row = arena::take(row_len);
            for s in 0..n {
                params(s, &mut row);
                add_partial(&row);
            }
        }
    } else {
        let mut rows = arena::take(if grads.params() { n * row_len } else { 0 });
        match grads {
            Grads::Both => {
                par::par_row_chunks2_mut(gin, sample_in, &mut rows, row_len, |first, gin, rows| {
                    data(first, gin);
                    params(first, rows);
                })
            }
            Grads::Input => par::par_row_chunks_mut(gin, sample_in, data),
            Grads::Params => par::par_row_chunks_mut(&mut rows, row_len, params),
        }
        rows.chunks(row_len).for_each(&mut add_partial);
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_tensor::SeededRng;

    fn finite_diff_check(pad: usize, stride: usize) {
        let mut rng = SeededRng::new(7);
        let mut conv = Conv2d::new(2, 3, 3, stride, pad, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        // Loss = sum(y * r) for fixed random r, so dL/dy = r.
        let r = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
        conv.zero_grads();
        let gx = conv.backward(&r);

        let eps = 1e-2f32;
        // Check input gradient at a few positions.
        for &idx in &[0usize, 13, 49, 99] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = conv.forward(&xp, true);
            let ym = conv.forward(&xm, true);
            let num = (yp.mul(&r).unwrap().sum() - ym.mul(&r).unwrap().sum()) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!((num - ana).abs() < 2e-2, "input grad idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference_nopad() {
        finite_diff_check(0, 1);
    }

    #[test]
    fn input_gradient_matches_finite_difference_padded_strided() {
        finite_diff_check(1, 2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let r = Tensor::ones(y.shape());
        conv.zero_grads();
        conv.backward(&r);
        let analytic = conv.grad_weight.clone();
        let bias_analytic = conv.grad_bias.clone();

        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 17] {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x, true).sum();
            conv.weight.data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x, true).sum();
            conv.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 2e-2,
                "weight grad idx {idx}: {num} vs {}",
                analytic.data()[idx]
            );
        }
        // Bias gradient: d(sum(y))/d(bias_oc) = number of output sites.
        let sites = 4.0 * 4.0;
        for oc in 0..2 {
            assert!((bias_analytic.data()[oc] - sites).abs() < 1e-3);
        }
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(3, 8, 5, 1, 2, Initializer::Xavier, &mut rng);
        let x = Tensor::zeros(&[4, 3, 32, 32]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), conv.output_shape(x.shape()).as_slice());
        assert_eq!(y.shape(), &[4, 8, 32, 32]);
    }

    #[test]
    fn known_convolution_value() {
        let mut rng = SeededRng::new(10);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, Initializer::Xavier, &mut rng);
        conv.weight = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        conv.bias = Tensor::from_vec(&[1], vec![0.5]).unwrap();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, false);
        // 1*1 + 4*1 + 0.5 = 5.5
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn cost_scales_with_batch() {
        let mut rng = SeededRng::new(11);
        let conv = Conv2d::new(1, 4, 3, 1, 1, Initializer::Xavier, &mut rng);
        let c1 = conv.cost(&[1, 1, 8, 8]);
        let c2 = conv.cost(&[2, 1, 8, 8]);
        assert_eq!(c2.fwd_flops, 2 * c1.fwd_flops);
        assert_eq!(c1.params, c2.params);
    }
}
