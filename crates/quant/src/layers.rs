//! Quantized kernels: the forward paths, shapes and costs behind each
//! [`crate::Int8Layer`].

use crate::qtensor::QTensor;
use dlbench_nn::{token_row, Conv1dBank, Conv2d, Embedding, LayerCost, Linear};
use dlbench_tensor::{
    conv_forward_fused_i8, gemm_i8, par, quantize_i8, Conv2dGeometry, PackedConvWeight, Tensor,
};
use dlbench_trace::{span, span_flops, Category};

/// Per-output-channel sums of the quantized weights — the constant in
/// the affine zero-point correction
/// `y = s_x·s_w·(acc − z_x·wsum)` (exact in i32).
fn weight_sums(rows: usize, cols: usize, data: &[i8]) -> Vec<i32> {
    // `data` is row-major [rows, cols]; a Linear's transposed weight
    // sums down columns, a Conv2d's patch matrix sums along rows, so
    // the caller picks the orientation via (rows, cols).
    let mut sums = vec![0i32; cols];
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v as i32;
        }
    }
    sums
}

/// A quantized fully connected layer: symmetric int8 weights
/// (pre-transposed to `[in, out]` so a single plain [`gemm_i8`] serves
/// both quantized layer kinds), affine int8 input quantization, i32
/// accumulation, fp32 requantized output.
#[derive(Debug, Clone)]
pub(crate) struct QLinear {
    in_features: usize,
    out_features: usize,
    /// Weights, transposed to `[in, out]`, symmetric (`zero_point` 0).
    weight_t: QTensor,
    /// Per-output-column sums of `weight_t` (zero-point correction).
    wsum: Vec<i32>,
    bias: Vec<f32>,
    /// Input (activation) quantizer, calibrated offline.
    act_scale: f32,
    act_zero_point: i8,
}

impl QLinear {
    /// Quantizes a trained fp32 layer, given its calibrated input
    /// quantizer.
    pub(crate) fn from_fp32(layer: &Linear, act_scale: f32, act_zero_point: i8) -> Self {
        let (inf, outf) = (layer.in_features(), layer.out_features());
        // Transpose [out, in] → [in, out] so the forward GEMM is
        // `x[n, in] @ w_t[in, out]` with unit-stride inner loops.
        let w = layer.weight().data();
        let mut w_t = vec![0.0f32; w.len()];
        for o in 0..outf {
            for i in 0..inf {
                w_t[i * outf + o] = w[o * inf + i];
            }
        }
        let weight_t = QTensor::quantize_symmetric(&[inf, outf], &w_t);
        Self::from_parts(weight_t, layer.bias().data().to_vec(), act_scale, act_zero_point)
    }

    /// Assembles the layer from already-quantized parts (the
    /// checkpoint-load path — stored weights are reused bit-for-bit,
    /// never re-quantized).
    ///
    /// # Panics
    ///
    /// Panics if `weight_t` is not rank 2 or the bias length disagrees
    /// with its output dimension.
    pub(crate) fn from_parts(
        weight_t: QTensor,
        bias: Vec<f32>,
        act_scale: f32,
        act_zero_point: i8,
    ) -> Self {
        assert_eq!(weight_t.shape().len(), 2, "QLinear weight must be [in, out]");
        let (inf, outf) = (weight_t.shape()[0], weight_t.shape()[1]);
        assert_eq!(bias.len(), outf, "QLinear bias length mismatch");
        let wsum = weight_sums(inf, outf, weight_t.data());
        Self {
            in_features: inf,
            out_features: outf,
            weight_t,
            wsum,
            bias,
            act_scale,
            act_zero_point,
        }
    }

    /// The quantized, transposed weight matrix.
    pub(crate) fn weight_t(&self) -> &QTensor {
        &self.weight_t
    }

    /// The fp32 biases.
    pub(crate) fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Output shape for an `[n, in]` input shape.
    pub(crate) fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features]
    }

    /// The forward cost of the fp32 `Linear` this layer replaces.
    pub(crate) fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::linear(input_shape[0], self.in_features, self.out_features).forward_only()
    }

    /// Quantized forward over `[n, in]` inputs.
    pub(crate) fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 2, "QLinear expects [N, in]");
        let n = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_features, "QLinear feature mismatch");
        let _s = span(Category::Kernel, "qlinear");
        let mut xq = vec![0i8; input.len()];
        quantize_i8(input.data(), self.act_scale, self.act_zero_point, &mut xq);
        let mut acc = vec![0i32; n * self.out_features];
        gemm_i8(n, self.in_features, self.out_features, &xq, self.weight_t.data(), &mut acc);
        let mut out = Tensor::zeros(&[n, self.out_features]);
        requantize_rows(
            &acc,
            &self.wsum,
            &self.bias,
            self.act_scale * self.weight_t.scale,
            self.act_zero_point as i32,
            out.data_mut(),
        );
        out
    }
}

/// Dequantizes i32 accumulators back to fp32:
/// `out = s·(acc − z_x·wsum[col]) + bias[col]`, where `acc` holds rows
/// of `wsum.len()` columns. The zero-point correction stays in exact
/// i32 arithmetic; only the final scale touches floats, with a fixed
/// per-element operation order.
fn requantize_rows(acc: &[i32], wsum: &[i32], bias: &[f32], s: f32, zx: i32, out: &mut [f32]) {
    let cols = wsum.len();
    for (acc_row, out_row) in acc.chunks(cols).zip(out.chunks_mut(cols)) {
        for c in 0..cols {
            out_row[c] = s * (acc_row[c] - zx * wsum[c]) as f32 + bias[c];
        }
    }
}

/// [`dlbench_tensor::im2col`] over int8 values: unrolls one quantized
/// image (`[C, H, W]`) into a `[patch_len, out_h·out_w]` patch matrix,
/// filling padded taps with the activation `zero_point` — which is
/// exactly what fp32 zero padding quantizes to, so the lowering
/// commutes with quantization.
///
/// The quantized layers never materialize this matrix (they run
/// [`conv_forward_fused_i8`]); it is kept as the reference lowering the
/// fused forward is tested against.
pub fn im2col_i8(geo: &Conv2dGeometry, zero_point: i8, input: &[i8], cols: &mut [i8]) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    debug_assert_eq!(input.len(), geo.in_channels * geo.in_h * geo.in_w);
    debug_assert_eq!(cols.len(), geo.patch_len() * oh * ow);
    let mut row = 0usize;
    for c in 0..geo.in_channels {
        let plane = &input[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
        for kh in 0..geo.kernel_h {
            for kw in 0..geo.kernel_w {
                let out_row = &mut cols[row * oh * ow..(row + 1) * oh * ow];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * geo.stride + kh) as isize - geo.pad as isize;
                    if iy < 0 || iy >= geo.in_h as isize {
                        for _ in 0..ow {
                            out_row[idx] = zero_point;
                            idx += 1;
                        }
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * geo.stride + kw) as isize - geo.pad as isize;
                        out_row[idx] = if ix < 0 || ix >= geo.in_w as isize {
                            zero_point
                        } else {
                            plane[iy * geo.in_w + ix as usize]
                        };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// A quantized 2-D convolution: symmetric int8 weights flattened to
/// the `[out_channels, patch_len]` GEMM layout, affine int8 input
/// quantization, the fused int8 im2col+GEMM forward with zero-point
/// padding, i32 accumulation and fp32 requantized output.
#[derive(Debug, Clone)]
pub struct QConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Weights flattened to `[out_channels, patch_len]`, symmetric.
    weight: QTensor,
    /// Per-output-channel sums of `weight` (zero-point correction).
    wsum: Vec<i32>,
    bias: Vec<f32>,
    act_scale: f32,
    act_zero_point: i8,
}

impl QConv2d {
    /// Quantizes a trained fp32 layer, given its calibrated input
    /// quantizer.
    pub fn from_fp32(layer: &Conv2d, act_scale: f32, act_zero_point: i8) -> Self {
        let (ic, oc, k) = (layer.in_channels(), layer.out_channels(), layer.kernel());
        let patch = ic * k * k;
        // The fp32 weight is [oc, ic, kh, kw]; flattening rows to
        // patch_len matches the (c, kh, kw) im2col row order exactly.
        let weight = QTensor::quantize_symmetric(&[oc, patch], layer.weight().data());
        Self::from_parts(
            weight,
            layer.bias().data().to_vec(),
            ic,
            k,
            layer.stride(),
            layer.pad(),
            act_scale,
            act_zero_point,
        )
    }

    /// Assembles the layer from already-quantized parts (the
    /// checkpoint-load path).
    ///
    /// # Panics
    ///
    /// Panics if the weight shape disagrees with the declared geometry
    /// or the bias length disagrees with the output channel count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        weight: QTensor,
        bias: Vec<f32>,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        act_scale: f32,
        act_zero_point: i8,
    ) -> Self {
        assert_eq!(weight.shape().len(), 2, "QConv2d weight must be [oc, patch]");
        let (oc, patch) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(patch, in_channels * kernel * kernel, "QConv2d patch length mismatch");
        assert_eq!(bias.len(), oc, "QConv2d bias length mismatch");
        // The patch matrix sums along rows: wsum[oc] = Σ_patch w[oc, ·].
        let mut wsum = vec![0i32; oc];
        for (o, s) in wsum.iter_mut().enumerate() {
            *s = weight.data()[o * patch..(o + 1) * patch].iter().map(|&v| v as i32).sum();
        }
        Self {
            in_channels,
            out_channels: oc,
            kernel,
            stride,
            pad,
            weight,
            wsum,
            bias,
            act_scale,
            act_zero_point,
        }
    }

    /// The quantized `[out_channels, patch_len]` weight matrix.
    pub fn weight(&self) -> &QTensor {
        &self.weight
    }

    /// The fp32 biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The convolution over one `h × w` input plane.
    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Output shape for an `[N, C, H, W]` input shape.
    pub(crate) fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(input_shape[2], input_shape[3]);
        vec![input_shape[0], self.out_channels, geo.out_h(), geo.out_w()]
    }

    /// The forward cost of the fp32 `Conv2d` this layer replaces.
    pub(crate) fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let geo = self.geometry(input_shape[2], input_shape[3]);
        LayerCost::conv(input_shape[0], &geo, self.out_channels).forward_only()
    }

    /// Quantized forward over `[N, C, H, W]` inputs.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "QConv2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "QConv2d channel mismatch");
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let out_channels = self.out_channels;
        let sample_out = out_channels * plane;
        let _s = span(Category::Kernel, "qconv2d");

        // Per-tensor activation quantization: one parameter set for the
        // whole batch, so batching cannot change any sample's bits.
        let mut xq = vec![0i8; input.len()];
        quantize_i8(input.data(), self.act_scale, self.act_zero_point, &mut xq);

        let work = n * out_channels * patch * plane;
        let _k = span_flops(Category::Kernel, "qconv_fused", 2 * work as u64);
        // Weights pack once per call and are shared read-only across
        // samples and workers; samples are independent, so the batch
        // parallelizes over disjoint per-sample output rows.
        let packed = PackedConvWeight::pack(&geo, out_channels, self.weight.data());
        let s = self.act_scale * self.weight.scale;
        let zx = self.act_zero_point as i32;
        let per_sample = |first: usize, out_chunk: &mut [f32]| {
            let mut acc = vec![0i32; sample_out];
            for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
                let x = &xq[(first + si) * sample_in..(first + si + 1) * sample_in];
                acc.fill(0);
                conv_forward_fused_i8(&packed, x, self.act_zero_point, &mut acc);
                for oc in 0..out_channels {
                    let corr = zx * self.wsum[oc];
                    let b = self.bias[oc];
                    let acc_plane = &acc[oc * plane..(oc + 1) * plane];
                    let out_plane = &mut out_s[oc * plane..(oc + 1) * plane];
                    for (o, &a) in out_plane.iter_mut().zip(acc_plane) {
                        *o = s * (a - corr) as f32 + b;
                    }
                }
            }
        };
        let mut out = Tensor::zeros(&[n, out_channels, oh, ow]);
        if work < par::PAR_MIN_WORK {
            per_sample(0, out.data_mut());
        } else {
            par::par_row_chunks_mut(out.data_mut(), sample_out, per_sample);
        }
        out
    }
}

/// A quantized token-embedding table: symmetric int8 rows, dequantized
/// on lookup.
///
/// The layer's input is token ids, not activations, so there is no
/// input quantizer — the lookup maps each id to a table row exactly as
/// the fp32 layer does (round, clamp, non-finite → row 0) and
/// dequantizes the gathered row (`scale · q`, zero point 0). Output
/// bits depend only on the stored table, so batching and thread count
/// cannot change them.
#[derive(Debug, Clone)]
pub(crate) struct QEmbedding {
    vocab: usize,
    dim: usize,
    /// The `[vocab, dim]` table, symmetric (`zero_point` 0).
    table: QTensor,
}

impl QEmbedding {
    /// Quantizes a trained fp32 embedding table.
    pub(crate) fn from_fp32(layer: &Embedding) -> Self {
        let table =
            QTensor::quantize_symmetric(&[layer.vocab(), layer.dim()], layer.table().data());
        Self::from_parts(table)
    }

    /// Assembles the layer from an already-quantized table (the
    /// checkpoint-load path — stored rows are reused bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics if `table` is not rank 2 or is empty.
    pub(crate) fn from_parts(table: QTensor) -> Self {
        assert_eq!(table.shape().len(), 2, "QEmbedding table must be [vocab, dim]");
        let (vocab, dim) = (table.shape()[0], table.shape()[1]);
        assert!(vocab > 0 && dim > 0, "QEmbedding table must be non-empty");
        Self { vocab, dim, table }
    }

    /// The quantized `[vocab, dim]` table.
    pub(crate) fn table(&self) -> &QTensor {
        &self.table
    }

    /// Output shape for an `[N, 1, L, 1]` input shape.
    pub(crate) fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], 1, input_shape[2], self.dim]
    }

    /// The forward cost of the fp32 `Embedding` this layer replaces.
    pub(crate) fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::embedding(input_shape[0], input_shape[2], self.vocab, self.dim).forward_only()
    }

    /// Quantized lookup over `[N, 1, L, 1]` token ids, producing
    /// `[N, 1, L, dim]` dequantized activations.
    pub(crate) fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "QEmbedding expects [N, 1, L, 1] token ids");
        let (n, c, l, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!((c, w), (1, 1), "QEmbedding expects one token id per position");
        let _s = span(Category::Kernel, "qembedding");
        let dim = self.dim;
        let s = self.table.scale;
        let table = self.table.data();
        let mut out = Tensor::zeros(&[n, 1, l, dim]);
        for (pos, &v) in input.data().iter().enumerate() {
            let row = token_row(v, self.vocab);
            let src = &table[row * dim..(row + 1) * dim];
            let dst = &mut out.data_mut()[pos * dim..(pos + 1) * dim];
            for (d, &q) in dst.iter_mut().zip(src) {
                *d = s * q as f32;
            }
        }
        out
    }
}

/// One quantized branch of a [`QConv1dBank`]: symmetric int8 weights in
/// the `[filters, width·embed_dim]` GEMM layout plus the zero-point
/// correction sums.
#[derive(Debug, Clone)]
struct QConv1dBranch {
    width: usize,
    weight: QTensor,
    wsum: Vec<i32>,
    bias: Vec<f32>,
}

/// A quantized sentence-CNN feature bank: per-branch symmetric int8
/// conv weights run through the fused int8 forward exactly like
/// [`QConv2d`], one shared affine input quantizer (all branches read the
/// same embedded sequence), fp32 requantization, then fp32
/// max-over-time pooling and branch-order concatenation to
/// `[N, widths.len() · filters]`.
///
/// Max-over-time keeps the fp32 layer's tie rule (strict `>`, earliest
/// time step wins), and the activation quantizer is per-tensor, so the
/// output is bit-identical across batch partitions and thread counts.
#[derive(Debug, Clone)]
pub struct QConv1dBank {
    filters: usize,
    embed_dim: usize,
    branches: Vec<QConv1dBranch>,
    act_scale: f32,
    act_zero_point: i8,
}

impl QConv1dBank {
    /// Quantizes a trained fp32 bank, given its calibrated input
    /// quantizer.
    pub fn from_fp32(bank: &Conv1dBank, act_scale: f32, act_zero_point: i8) -> Self {
        let convs = bank.convs();
        let embed_dim = convs[0].embed_dim();
        let branches = convs
            .iter()
            .map(|c| {
                // The fp32 weight is [filters, 1, width, E]; flattening
                // rows to width·E matches the (c, kh, kw) im2col row
                // order with a single input channel.
                let patch = c.width() * embed_dim;
                let weight = QTensor::quantize_symmetric(&[c.filters(), patch], c.weight().data());
                (weight, c.bias().data().to_vec())
            })
            .collect::<Vec<_>>();
        Self::from_parts(bank.filters(), embed_dim, branches, act_scale, act_zero_point)
    }

    /// Assembles the bank from already-quantized branch parts
    /// `(weight, bias)` in branch order (the checkpoint-load path).
    ///
    /// # Panics
    ///
    /// Panics if any branch weight is not `[filters, width·embed_dim]`
    /// shaped or a bias length disagrees with `filters`.
    pub(crate) fn from_parts(
        filters: usize,
        embed_dim: usize,
        branches: Vec<(QTensor, Vec<f32>)>,
        act_scale: f32,
        act_zero_point: i8,
    ) -> Self {
        assert!(!branches.is_empty(), "QConv1dBank needs at least one branch");
        let branches = branches
            .into_iter()
            .map(|(weight, bias)| {
                assert_eq!(weight.shape().len(), 2, "branch weight must be [filters, patch]");
                let (f, patch) = (weight.shape()[0], weight.shape()[1]);
                assert_eq!(f, filters, "branch filter count mismatch");
                assert_eq!(patch % embed_dim, 0, "branch patch not a width multiple");
                assert_eq!(bias.len(), filters, "branch bias length mismatch");
                let mut wsum = vec![0i32; f];
                for (o, s) in wsum.iter_mut().enumerate() {
                    *s = weight.data()[o * patch..(o + 1) * patch].iter().map(|&v| v as i32).sum();
                }
                QConv1dBranch { width: patch / embed_dim, weight, wsum, bias }
            })
            .collect();
        Self { filters, embed_dim, branches, act_scale, act_zero_point }
    }

    /// Total pooled feature count (`widths.len() · filters`).
    fn out_features(&self) -> usize {
        self.branches.len() * self.filters
    }

    /// Per-branch `(weight, bias)` views, in branch order.
    pub fn branch_parts(&self) -> Vec<(&QTensor, &[f32])> {
        self.branches.iter().map(|b| (&b.weight, b.bias.as_slice())).collect()
    }

    /// Output shape for an `[N, 1, L, E]` input shape.
    pub(crate) fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features()]
    }

    /// The 2-D geometry a branch of kernel `width` lowers onto for
    /// sequence length `l`, as the fp32 `Conv1d` lowers it.
    fn geometry(&self, width: usize, l: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: l,
            in_w: self.embed_dim,
            kernel_h: width,
            kernel_w: self.embed_dim,
            stride: 1,
            pad: 0,
        }
    }

    /// The forward cost of the fp32 `Conv1dBank` this layer replaces:
    /// per branch, its `Conv1d` and its max-over-time pooling.
    pub(crate) fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let (n, f) = (input_shape[0], self.filters);
        let total = self.branches.iter().fold(LayerCost::default(), |total, b| {
            let geo = self.geometry(b.width, input_shape[2]);
            let pool = LayerCost::max_over_time(n, f, geo.out_plane());
            total.merge(LayerCost::conv(n, &geo, f)).merge(pool)
        });
        total.forward_only()
    }

    /// Quantized forward over `[N, 1, L, E]` embedded sequences,
    /// producing pooled `[N, widths.len() · filters]` features.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "QConv1dBank expects [N, 1, L, E]");
        let (n, c, l, e) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, 1, "QConv1dBank expects a single input channel");
        assert_eq!(e, self.embed_dim, "embedding-dimension mismatch");
        let _s = span(Category::Kernel, "qconv1d_bank");

        // One per-tensor quantization of the shared input: every branch
        // sees the same int8 sequence, and batching cannot change bits.
        let mut xq = vec![0i8; input.len()];
        quantize_i8(input.data(), self.act_scale, self.act_zero_point, &mut xq);

        let f = self.filters;
        let total = self.out_features();
        let sample_in = l * e;
        let zx = self.act_zero_point as i32;
        // Per branch: its geometry and its weights, packed once per call
        // and shared read-only across samples and workers.
        let plans: Vec<(&QConv1dBranch, Conv2dGeometry, PackedConvWeight<i8>)> = self
            .branches
            .iter()
            .map(|branch| {
                assert!(l >= branch.width, "sequence shorter than kernel window");
                let geo = self.geometry(branch.width, l);
                (branch, geo, PackedConvWeight::pack(&geo, f, branch.weight.data()))
            })
            .collect();
        let work: usize = plans.iter().map(|(_, g, _)| n * f * g.patch_len() * g.out_plane()).sum();
        let _k = span_flops(Category::Kernel, "qconv_fused", 2 * work as u64);
        let per_sample = |first: usize, out_chunk: &mut [f32]| {
            let mut acc = Vec::new();
            for (si, out_row) in out_chunk.chunks_mut(total).enumerate() {
                let x = &xq[(first + si) * sample_in..(first + si + 1) * sample_in];
                for (b, (branch, geo, packed)) in plans.iter().enumerate() {
                    let plane = geo.out_plane();
                    acc.clear();
                    acc.resize(f * plane, 0i32);
                    conv_forward_fused_i8(packed, x, self.act_zero_point, &mut acc);
                    let s = self.act_scale * branch.weight.scale;
                    for (oc, o) in out_row[b * f..(b + 1) * f].iter_mut().enumerate() {
                        let corr = zx * branch.wsum[oc];
                        let bias = branch.bias[oc];
                        let acc_plane = &acc[oc * plane..(oc + 1) * plane];
                        // Requantize then max-over-time with the fp32 tie
                        // rule (strict >, earliest wins). Requantization is
                        // monotone in the i32 accumulator, but ties must be
                        // broken on the fp32 values to match the fallback.
                        let mut best = s * (acc_plane[0] - corr) as f32 + bias;
                        for &a in &acc_plane[1..] {
                            let v = s * (a - corr) as f32 + bias;
                            if v > best {
                                best = v;
                            }
                        }
                        *o = best;
                    }
                }
            }
        };
        let mut out = Tensor::zeros(&[n, total]);
        if work < par::PAR_MIN_WORK {
            per_sample(0, out.data_mut());
        } else {
            par::par_row_chunks_mut(out.data_mut(), total, per_sample);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Initializer, Layer};
    use dlbench_tensor::SeededRng;

    #[test]
    fn qlinear_tracks_fp32_within_quantization_error() {
        let mut rng = SeededRng::new(21);
        let mut lin = Linear::new(16, 8, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[4, 16], 0.0, 1.0, &mut rng);
        let y32 = lin.forward(&x, false);
        // Calibrate the input quantizer directly from the batch range.
        let (lo, hi) = x.data().iter().fold((0.0f32, 0.0f32), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = (hi - lo) / 255.0;
        let zp = (-128.0 - lo / scale).round() as i8;
        let q = QLinear::from_fp32(&lin, scale, zp);
        let y8 = q.forward(&x);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.15, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qconv_tracks_fp32_within_quantization_error_with_padding() {
        let mut rng = SeededRng::new(22);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y32 = conv.forward(&x, false);
        let (lo, hi) = x.data().iter().fold((0.0f32, 0.0f32), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = (hi - lo) / 255.0;
        let zp = (-128.0 - lo / scale).round() as i8;
        let q = QConv2d::from_fp32(&conv, scale, zp);
        let y8 = q.forward(&x);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.2, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qembedding_tracks_fp32_within_half_lsb_and_clamps_hostile_ids() {
        let mut rng = SeededRng::new(24);
        let mut emb = Embedding::new(12, 6, Initializer::Xavier, &mut rng);
        let q = QEmbedding::from_fp32(&emb);
        let x = Tensor::from_vec(&[1, 1, 6, 1], vec![0.0, 5.0, 11.0, -3.0, 1e9, f32::NAN]).unwrap();
        let y32 = emb.forward(&x, false);
        let y8 = q.forward(&x);
        assert_eq!(y8.shape(), y32.shape());
        // A pure table lookup: the only error is weight rounding.
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() <= q.table().scale * 0.5 + 1e-6, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qconv1d_bank_tracks_fp32_and_is_batch_invariant() {
        let mut rng = SeededRng::new(25);
        let mut bank = Conv1dBank::new(3, &[2, 3], 4, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[3, 1, 9, 4], 0.0, 1.0, &mut rng);
        let y32 = bank.forward(&x, false);
        let (lo, hi) = x.data().iter().fold((0.0f32, 0.0f32), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = (hi - lo) / 255.0;
        let zp = (-128.0 - lo / scale).round() as i8;
        let q = QConv1dBank::from_fp32(&bank, scale, zp);
        assert_eq!(q.output_shape(x.shape()), vec![3, 6]);
        let y8 = q.forward(&x);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.25, "fp32 {a} vs int8 {b}");
        }
        // Batched forward is bitwise the per-sample forward.
        let sample = 9 * 4;
        for s in 0..3 {
            let xs =
                Tensor::from_vec(&[1, 1, 9, 4], x.data()[s * sample..(s + 1) * sample].to_vec())
                    .unwrap();
            let ys = q.forward(&xs);
            let row = &y8.data()[s * 6..(s + 1) * 6];
            assert!(row.iter().zip(ys.data()).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn batched_forward_is_bitwise_single_sample_forward() {
        let mut rng = SeededRng::new(23);
        let conv = Conv2d::new(1, 2, 3, 1, 1, Initializer::Xavier, &mut rng);
        let q = QConv2d::from_fp32(&conv, 0.02, -5);
        let x = Tensor::randn(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let batched = q.forward(&x);
        let sample = x.shape()[1] * x.shape()[2] * x.shape()[3];
        for s in 0..3 {
            let xs =
                Tensor::from_vec(&[1, 1, 8, 8], x.data()[s * sample..(s + 1) * sample].to_vec())
                    .unwrap();
            let ys = q.forward(&xs);
            let out_s = batched.len() / 3;
            let b = &batched.data()[s * out_s..(s + 1) * out_s];
            assert!(b.iter().zip(ys.data()).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }
}
