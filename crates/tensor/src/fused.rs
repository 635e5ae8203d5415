//! Fused im2col+GEMM convolution forward.
//!
//! The materialized lowering (`im2col` into a full `patch_len ×
//! out_plane` column matrix, then [`crate::gemm`]) streams the patch
//! matrix through memory twice — once writing it, once reading it back
//! — and at personality shapes the column matrix is an order of
//! magnitude larger than the image it came from. The fused kernel
//! instead forms each `NR`-column patch *tile* on the fly, directly in
//! the packed layout the GEMM micro-kernel consumes, so patch values go
//! straight from the input image to registers.
//!
//! **Transparency.** The fused kernel inherits the determinism contract
//! of [`crate::linalg`]: every output element is the fixed chain
//! `(((c₀ + t₀) + t₁) + …)` over ascending patch rows, where `c₀` is
//! whatever the caller pre-filled (the bias). The materialized path
//! computes the identical chain, so fused and materialized forwards are
//! *bitwise equal* — a property the transparency tests in
//! `tests/tests/kernels.rs` pin for every personality conv geometry at
//! 1 and 4 threads.
//!
//! [`conv_forward_fused_i8`] is the int8 counterpart: the same packers
//! widen int8 weights and image values into the f32 panels, padded taps
//! take the activation zero point, and the i32 accumulation is exact
//! (see [`crate::gemm_i8`]), so it equals `im2col_i8` + [`crate::gemm_i8`]
//! bit for bit.

use std::marker::PhantomData;

use crate::arena::{self, ArenaBuf};
use crate::im2col::Conv2dGeometry;
use crate::linalg::{self, TileDst, KC, MR, NR};

/// Convolution weights pre-packed into the GEMM left-operand panel
/// layout ([`crate::linalg`]'s `MR`-row panels over the
/// `[out_channels, patch_len]` weight matrix), widened to `f32`.
///
/// `T` is the source dtype (`f32` or `i8`): [`conv_forward_fused`]
/// takes only `f32`-packed weights and [`conv_forward_fused_i8`] only
/// `i8`-packed ones, so the int8 exactness argument cannot be handed
/// non-integer panels.
///
/// Packing is independent of the image data, so a layer packs once per
/// forward call and shares the result across samples and worker
/// threads.
pub struct PackedConvWeight<T> {
    out_channels: usize,
    patch_len: usize,
    panels: ArenaBuf,
    dtype: PhantomData<T>,
}

impl<T: Copy + Into<f32>> PackedConvWeight<T> {
    /// Packs a `[out_channels, patch_len]` row-major weight matrix
    /// (the natural flattening of `[out_c, in_c, kh, kw]`).
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on length mismatch.
    pub fn pack(out_channels: usize, patch_len: usize, weight: &[T]) -> Self {
        debug_assert_eq!(weight.len(), out_channels * patch_len);
        let mut panels = arena::take(out_channels.div_ceil(MR) * MR * patch_len);
        linalg::pack_a(out_channels, patch_len, weight, &mut panels);
        Self { out_channels, patch_len, panels, dtype: PhantomData }
    }

    /// Output channels of the packed weights.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

/// Fused convolution forward for **one** sample: accumulates
/// `W @ im2col(input)` into `out` (`[out_channels, out_h·out_w]`
/// row-major), forming packed patch tiles on the fly instead of
/// materializing the column matrix.
///
/// `out` must be pre-initialized by the caller (bias broadcast, or
/// zeros for a plain product) — it is accumulated into, exactly like
/// [`crate::gemm`], and the result is bitwise identical to
/// `im2col` + `gemm` on the same data.
///
/// # Panics
///
/// Panics (debug assertions) on slice lengths inconsistent with `geo`.
pub fn conv_forward_fused(
    geo: &Conv2dGeometry,
    weight: &PackedConvWeight<f32>,
    input: &[f32],
    out: &mut [f32],
) {
    fused_tiles(geo, weight, input, 0.0, out);
}

/// Int8 fused convolution forward for **one** sample: accumulates
/// `W @ im2col_i8(input)` into the i32 `out`
/// (`[out_channels, out_h·out_w]` row-major), where `weight` packs the
/// int8 weights and taps outside the image read `zero_point` — the
/// quantized value of fp32 zero padding.
///
/// `out` is accumulated into (zero it for a plain product); the result
/// equals the materialized `im2col_i8` + [`crate::gemm_i8`] bit for
/// bit.
///
/// # Panics
///
/// Panics (debug assertions) on slice lengths inconsistent with `geo`.
pub fn conv_forward_fused_i8(
    geo: &Conv2dGeometry,
    weight: &PackedConvWeight<i8>,
    input: &[i8],
    zero_point: i8,
    out: &mut [i32],
) {
    fused_tiles(geo, weight, input, zero_point, out);
}

fn fused_tiles<T: Copy + Into<f32>, D: TileDst>(
    geo: &Conv2dGeometry,
    weight: &PackedConvWeight<T>,
    input: &[T],
    pad: T,
    out: &mut [D],
) {
    debug_assert_eq!(weight.patch_len, geo.patch_len());
    debug_assert_eq!(input.len(), geo.in_channels * geo.in_h * geo.in_w);
    debug_assert_eq!(out.len(), weight.out_channels * geo.out_plane());
    linalg::gemm_tiles(
        weight.out_channels,
        weight.patch_len,
        geo.out_plane(),
        &weight.panels,
        out,
        |k0, kc, bp| pack_patch_block(geo, input, pad, k0, kc, bp),
    );
}

/// Packs patch-matrix rows `[k0, k0+kc)` of one image into the GEMM
/// right-operand panel layout (`NR`-column tiles, `[kk][jj]` inside a
/// tile), widened to `f32`, producing exactly the values `im2col` would
/// have written — `pad` for taps outside the image — plus zero-fill
/// for ragged tail columns.
fn pack_patch_block<T: Copy + Into<f32>>(
    geo: &Conv2dGeometry,
    input: &[T],
    pad: T,
    k0: usize,
    kc: usize,
    bp: &mut [f32],
) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let plane = oh * ow;
    let taps = geo.kernel_h * geo.kernel_w;
    let pad: f32 = pad.into();
    for kk in 0..kc {
        // Patch row index -> (channel, kernel-row, kernel-col) tap.
        let r = k0 + kk;
        let c = r / taps;
        let kh = (r % taps) / geo.kernel_w;
        let kw = r % geo.kernel_w;
        let img_plane = &input[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
        let mut j = 0usize;
        for oy in 0..oh {
            let iy = (oy * geo.stride + kh) as isize - geo.pad as isize;
            let row_in_image = iy >= 0 && iy < geo.in_h as isize;
            for ox in 0..ow {
                let ix = (ox * geo.stride + kw) as isize - geo.pad as isize;
                let v = if row_in_image && ix >= 0 && ix < geo.in_w as isize {
                    img_plane[iy as usize * geo.in_w + ix as usize].into()
                } else {
                    pad
                };
                bp[(j / NR) * (kc * NR) + kk * NR + (j % NR)] = v;
                j += 1;
            }
        }
        // Ragged tail columns of the last tile stay zero so the padded
        // micro-kernel lanes multiply clean zeros.
        while !j.is_multiple_of(NR) {
            bp[(j / NR) * (kc * NR) + kk * NR + (j % NR)] = 0.0;
            j += 1;
        }
    }
    debug_assert!(kc <= KC);
    debug_assert!(plane.div_ceil(NR) * NR * kc <= bp.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::im2col;
    use crate::{gemm, SeededRng, Tensor};

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

    fn materialized(
        g: &Conv2dGeometry,
        oc: usize,
        weight: &[f32],
        bias: &[f32],
        input: &[f32],
    ) -> Vec<f32> {
        let (patch, plane) = (g.patch_len(), g.out_plane());
        let mut cols = vec![0.0f32; patch * plane];
        im2col(g, input, &mut cols);
        let mut out = vec![0.0f32; oc * plane];
        for o in 0..oc {
            out[o * plane..(o + 1) * plane].fill(bias[o]);
        }
        gemm(oc, patch, plane, weight, &cols, &mut out);
        out
    }

    #[test]
    fn fused_matches_materialized_bitwise() {
        let mut rng = SeededRng::new(21);
        // Geometries covering no-pad, padded, strided, multi-channel,
        // and a plane ragged against NR.
        for (g, oc) in [
            (geo(1, 28, 28, 5, 1, 0), 20usize),
            (geo(3, 32, 32, 5, 1, 2), 32),
            (geo(2, 11, 7, 3, 2, 1), 5),
            (geo(1, 3, 3, 3, 1, 1), 2),
        ] {
            let w = Tensor::randn(&[oc, g.patch_len()], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[oc], 0.0, 1.0, &mut rng);
            let x = Tensor::randn(&[g.in_channels, g.in_h, g.in_w], 0.0, 1.0, &mut rng);
            let expect = materialized(&g, oc, w.data(), b.data(), x.data());

            let packed = PackedConvWeight::pack(oc, g.patch_len(), w.data());
            let plane = g.out_plane();
            let mut out = vec![0.0f32; oc * plane];
            for o in 0..oc {
                out[o * plane..(o + 1) * plane].fill(b.data()[o]);
            }
            conv_forward_fused(&g, &packed, x.data(), &mut out);
            for (f, m) in out.iter().zip(&expect) {
                assert_eq!(f.to_bits(), m.to_bits(), "fused {f} vs materialized {m}");
            }
        }
    }

    #[test]
    fn one_by_one_kernel_is_a_plain_gemm() {
        let mut rng = SeededRng::new(22);
        let g = geo(4, 6, 6, 1, 1, 0);
        let oc = 3;
        let w = Tensor::randn(&[oc, g.patch_len()], 0.0, 1.0, &mut rng);
        let x = Tensor::randn(&[4, 6, 6], 0.0, 1.0, &mut rng);
        let packed = PackedConvWeight::pack(oc, g.patch_len(), w.data());
        let mut out = vec![0.0f32; oc * g.out_plane()];
        conv_forward_fused(&g, &packed, x.data(), &mut out);
        let mut expect = vec![0.0f32; oc * g.out_plane()];
        gemm(oc, 4, 36, w.data(), x.data(), &mut expect);
        assert_eq!(out, expect);
    }
}
