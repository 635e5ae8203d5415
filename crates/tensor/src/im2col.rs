//! `im2col`/`col2im` lowering for convolution layers.
//!
//! Convolution forward passes are computed as a GEMM over an unrolled
//! patch matrix; the backward pass to inputs uses the adjoint `col2im`
//! scatter. This mirrors how Caffe (explicitly) and the cuDNN-backed
//! frameworks (implicitly) lower convolutions, and it is the layout the
//! cost model charges for.

use std::ops::Range;

/// Geometry of a 2-D convolution: input plane size, kernel, stride and
/// symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Symmetric zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height after convolving.
    ///
    /// A kernel taller than the padded input (`kernel_h > in_h + 2·pad`)
    /// still yields one output row: the count saturates at 1, and the
    /// taps that overhang the padded input read zero, as padding does
    /// (pinned by `overhanging_kernel_reads_zero_past_the_image`).
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad).saturating_sub(self.kernel_h) / self.stride + 1
    }

    /// Output width after convolving. Like [`Self::out_h`], a kernel
    /// wider than the padded input gives one output column whose
    /// overhanging taps read zero.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad).saturating_sub(self.kernel_w) / self.stride + 1
    }

    /// Rows of the patch matrix (`C * kh * kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the patch matrix (`out_h * out_w`).
    pub fn out_plane(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// The output positions `o < out` along one axis at which kernel tap
/// `tap` reads inside an input of `len` elements: input index
/// `o·stride + tap − pad` lies in `[0, len)`. Every other position
/// reads padding (or, past an overhanging kernel's reach, zero).
fn tap_range(len: usize, out: usize, tap: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = (len + pad).saturating_sub(tap).div_ceil(stride).min(out);
    lo.min(hi)..hi
}

/// Visits the patch-matrix rows of one image in order: for each tap
/// `(c, kh, kw)` and each output row `oy` whose input row `iy` is inside
/// the image, calls `f(row, oy, xs, src)` with the valid output-column
/// range `xs` (computed once per tap) and the offset in `[C, H, W]` of
/// input pixel `(c, iy, xs.start·stride + kw − pad)`.
fn for_each_tap_row(geo: &Conv2dGeometry, mut f: impl FnMut(usize, usize, Range<usize>, usize)) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let mut row = 0;
    for c in 0..geo.in_channels {
        for kh in 0..geo.kernel_h {
            let ys = tap_range(geo.in_h, oh, kh, geo.stride, geo.pad);
            for kw in 0..geo.kernel_w {
                let xs = tap_range(geo.in_w, ow, kw, geo.stride, geo.pad);
                if !xs.is_empty() {
                    for oy in ys.clone() {
                        let iy = oy * geo.stride + kh - geo.pad;
                        let ix = xs.start * geo.stride + kw - geo.pad;
                        f(row, oy, xs.clone(), (c * geo.in_h + iy) * geo.in_w + ix);
                    }
                }
                row += 1;
            }
        }
    }
}

/// Unrolls one image (`[C, H, W]` in `input`) into a patch matrix of
/// shape `[patch_len, out_h*out_w]` stored row-major in `cols`.
///
/// # Panics
///
/// Panics (debug assertions) if slice lengths disagree with `geo`.
pub fn im2col(geo: &Conv2dGeometry, input: &[f32], cols: &mut [f32]) {
    let _span = dlbench_trace::span(dlbench_trace::Category::Kernel, "im2col");
    let (plane, ow) = (geo.out_plane(), geo.out_w());
    debug_assert_eq!(input.len(), geo.in_channels * geo.in_h * geo.in_w);
    debug_assert_eq!(cols.len(), geo.patch_len() * plane);
    // Padding first, then one copy per valid stretch of an image row.
    cols.fill(0.0);
    for_each_tap_row(geo, |row, oy, xs, src| {
        let dst = &mut cols[row * plane + oy * ow..][xs.clone()];
        for (d, &v) in dst.iter_mut().zip(input[src..].iter().step_by(geo.stride)) {
            *d = v;
        }
    });
}

/// Adjoint of [`im2col`]: scatters the patch-matrix gradient `cols` back
/// into an image gradient `grad` (`[C, H, W]`), accumulating overlaps in
/// ascending patch-row order.
///
/// `grad` must be zeroed by the caller if a pure gradient (rather than
/// accumulation) is desired.
pub fn col2im(geo: &Conv2dGeometry, cols: &[f32], grad: &mut [f32]) {
    let _span = dlbench_trace::span(dlbench_trace::Category::Kernel, "col2im");
    let (plane, ow) = (geo.out_plane(), geo.out_w());
    debug_assert_eq!(grad.len(), geo.in_channels * geo.in_h * geo.in_w);
    debug_assert_eq!(cols.len(), geo.patch_len() * plane);
    for_each_tap_row(geo, |row, oy, xs, dst| {
        let src = &cols[row * plane + oy * ow..][xs];
        for (g, &v) in grad[dst..].iter_mut().step_by(geo.stride).zip(src) {
            *g += v;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn output_dims_match_lenet_expectations() {
        // Caffe LeNet on 28x28: conv5 no pad -> 24, TF SAME pad=2 -> 28.
        assert_eq!(geo(1, 28, 28, 5, 1, 0).out_h(), 24);
        assert_eq!(geo(1, 28, 28, 5, 1, 2).out_h(), 28);
        assert_eq!(geo(3, 32, 32, 5, 1, 2).out_w(), 32);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, no pad: patch matrix equals the image itself.
        let g = geo(1, 3, 3, 1, 1, 0);
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut cols = vec![0.0f32; g.patch_len() * g.out_plane()];
        im2col(&g, &input, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_known_patch() {
        let g = geo(1, 3, 3, 2, 1, 0);
        let input: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut cols = vec![0.0f32; g.patch_len() * g.out_plane()];
        im2col(&g, &input, &mut cols);
        // rows are kernel taps, columns are the 4 output positions.
        assert_eq!(&cols[0..4], &[1.0, 2.0, 4.0, 5.0]); // top-left tap
        assert_eq!(&cols[12..16], &[5.0, 6.0, 8.0, 9.0]); // bottom-right tap
    }

    #[test]
    fn padding_zero_fills() {
        let g = geo(1, 2, 2, 3, 1, 1);
        let input = [1.0f32, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0f32; g.patch_len() * g.out_plane()];
        im2col(&g, &input, &mut cols);
        // First tap (kh=0,kw=0) at output (0,0) reads input(-1,-1) = 0.
        assert_eq!(cols[0], 0.0);
        // Center tap (kh=1,kw=1) reproduces the image.
        let center = 4 * g.out_plane();
        assert_eq!(&cols[center..center + 4], &input);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        use crate::SeededRng;
        let g = geo(2, 5, 5, 3, 2, 1);
        let mut rng = SeededRng::new(5);
        let x: Vec<f32> =
            (0..g.in_channels * g.in_h * g.in_w).map(|_| rng.normal(0.0, 1.0)).collect();
        let y: Vec<f32> =
            (0..g.patch_len() * g.out_plane()).map(|_| rng.normal(0.0, 1.0)).collect();
        let mut cols = vec![0.0f32; y.len()];
        im2col(&g, &x, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut grad = vec![0.0f32; x.len()];
        col2im(&g, &y, &mut grad);
        let rhs: f32 = x.iter().zip(&grad).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// A 5×5 kernel over a 4×4 input with no padding overhangs it: one
    /// output site, whose taps in the fifth row or column read zero.
    /// `im2col`, `col2im` and the fused kernels agree on it.
    #[test]
    fn overhanging_kernel_reads_zero_past_the_image() {
        use crate::{
            conv_backward_data, conv_backward_filter, conv_forward_fused, ConvBackward,
            PackedConvWeight,
        };
        let g = geo(2, 4, 4, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w(), g.out_plane()), (1, 1, 1));
        let x: Vec<f32> = (1..=32).map(|v| v as f32).collect();
        let mut cols = vec![f32::NAN; g.patch_len()];
        im2col(&g, &x, &mut cols);
        for (r, &v) in cols.iter().enumerate() {
            let (c, kh, kw) = (r / 25, r % 25 / 5, r % 5);
            let want = if kh < 4 && kw < 4 { x[c * 16 + kh * 4 + kw] } else { 0.0 };
            assert_eq!(v, want, "tap ({c}, {kh}, {kw})");
        }

        // col2im drops the overhanging taps' gradient.
        let dcols: Vec<f32> = (0..g.patch_len()).map(|r| r as f32).collect();
        let mut grad = vec![0.0f32; x.len()];
        col2im(&g, &dcols, &mut grad);
        for (i, &v) in grad.iter().enumerate() {
            let (c, y, xx) = (i / 16, i % 16 / 4, i % 4);
            assert_eq!(v, (c * 25 + y * 5 + xx) as f32, "pixel ({c}, {y}, {xx})");
        }

        // The fused forward is W·cols; its backward is the adjoint pair.
        let oc = 3;
        let w: Vec<f32> = (0..oc * g.patch_len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut out = vec![0.0f32; oc];
        conv_forward_fused(&PackedConvWeight::pack(&g, oc, &w), &x, &mut out);
        for (o, &y) in out.iter().enumerate() {
            let want: f32 = w[o * 50..(o + 1) * 50].iter().zip(&cols).map(|(a, b)| a * b).sum();
            assert_eq!(y, want, "forward channel {o}");
        }
        let gout = [1.0f32, -2.0, 0.5];
        let backward = ConvBackward::new(&g, oc, &w);
        let mut gin = vec![f32::NAN; x.len()];
        conv_backward_data(&backward, &gout, &mut gin);
        let wt_g: Vec<f32> =
            (0..g.patch_len()).map(|r| (0..oc).map(|o| w[o * 50 + r] * gout[o]).sum()).collect();
        let mut want = vec![0.0f32; x.len()];
        col2im(&g, &wt_g, &mut want);
        assert_eq!(gin, want, "input gradient");
        let mut gw = vec![f32::NAN; oc * g.patch_len()];
        conv_backward_filter(&backward, &x, &gout, &mut gw);
        for (i, &v) in gw.iter().enumerate() {
            assert_eq!(v, gout[i / 50] * cols[i % 50], "weight gradient {i}");
        }
    }
}
