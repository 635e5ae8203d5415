//! Fused convolution kernels: forward (fp32 and int8) and backward
//! (fp32), with no patch matrix.
//!
//! The materialized lowering (`im2col` into a full `patch_len ×
//! out_plane` column matrix, then [`crate::gemm`]) streams the patch
//! matrix through memory twice — once writing it, once reading it back
//! — and at personality shapes the column matrix is an order of
//! magnitude larger than the image it came from. Its backward does the
//! same twice more: `im2col` plus a transposing pack for the weight
//! gradient, and a `Wᵀ·grad_out` matrix scattered by `col2im` for the
//! input gradient.
//!
//! **One frame, one index.** The fused kernels instead copy each sample
//! once, row by row, into a *frame*: the image inside a border of
//! padding values, grown to at least the kernel size when the kernel
//! overhangs the padded image. Patch-matrix entry `(r, j)` — tap
//! `r = (c, kh, kw)` at output site `j = (oy, ox)` — is then frame
//! element `tap[r] + site[j]` for every geometry (any stride, padding
//! or overhang), so no tap is ever bounds-tested against the image.
//! The micro-kernel's broadcast operand is read in place — from the
//! frame through those offsets, or straight from the weights — and only
//! the other operand is packed.
//!
//! | kernel | tile rows (`MR`, in place) | tile lanes (`NR`, packed) | depth |
//! |---|---|---|---|
//! | forward | output sites `j` (frame) | output channels (`Wᵀ`) | taps `r` |
//! | input gradient, `NR` samples | taps `r` (`W`) | `NR` samples at one site `j` (`grad_out`) | output channels |
//! | input gradient, one sample | taps `r` (`W`) | output sites `j` (`grad_out`) | output channels |
//! | weight gradient | taps `r` (frame) | output channels (`grad_outᵀ`) | output sites `j` |
//!
//! **Transparency.** Every kernel inherits the determinism contract of
//! [`crate::linalg`]: each output element is the same chain, in the same
//! order, as in the materialized lowering, so fused and materialized
//! results are *bitwise equal* (`tests/tests/kernels.rs` pins this for
//! every personality geometry, forward and backward, at 1 and 4
//! threads). Swapping which operand broadcasts only swaps the factors
//! of each product, and IEEE multiplication is commutative.
//! - Forward: `out[o, j] = (((c₀ + t₀) + t₁) + …)` over ascending taps,
//!   `c₀` the caller's pre-filled value (the bias).
//! - Input gradient: each `Σ_o W[o, r]·g[o, j]` starts from zero and is
//!   added into a zeroed gradient frame in ascending tap order,
//!   `col2im`'s order. Bands of `MR` taps go in ascending order. Tap
//!   and site offsets both ascend, so within a band a later tap meets a
//!   pixel at an *earlier* site: the band's site tiles are therefore
//!   added last to first, each tile's taps in order, which keeps every
//!   pixel's additions in ascending tap order. A group of `NR` samples
//!   shares one frame, each pixel an `NR`-lane slot of the group's
//!   samples: its tiles are single sites, taken in the same order, so
//!   each (pixel, sample) receives the same terms in the same order.
//! - Weight gradient: `Σ_j g[o, j]·x[r, j]` over ascending sites,
//!   formed from zero; callers add one per-sample partial at a time.
//!
//! [`conv_forward_fused_i8`] is the int8 counterpart of the forward:
//! the frame holds the int8 image widened to `f32` with the activation
//! zero point as its border, and the i32 accumulation is exact (see
//! [`crate::gemm_i8`]), so it equals `im2col_i8` + [`crate::gemm_i8`]
//! bit for bit.

use std::marker::PhantomData;

use crate::arena::{self, ArenaBuf};
use crate::im2col::Conv2dGeometry;
use crate::linalg::{self, micro_kernel, rows_of, Tile, TileDst, KC, MR, NR};
use dlbench_trace::{span_flops, Category};

/// Where each patch-matrix entry of one geometry lives in a sample's
/// frame: entry `(r, j)` is frame element `tap[r] + site[j]`.
struct PatchIndex {
    geo: Conv2dGeometry,
    /// Frame height and width: the padded image, grown to the kernel
    /// size when the kernel overhangs it (see [`Conv2dGeometry::out_h`]).
    frame_h: usize,
    frame_w: usize,
    /// Frame offset of each tap `(c, kh, kw)`, in patch-row order.
    tap: Vec<usize>,
    /// Frame offset of each output site `(oy, ox)`, in output order.
    site: Vec<usize>,
}

impl PatchIndex {
    fn new(geo: &Conv2dGeometry) -> Self {
        let frame_h = (geo.in_h + 2 * geo.pad).max(geo.kernel_h);
        let frame_w = (geo.in_w + 2 * geo.pad).max(geo.kernel_w);
        let mut tap = Vec::with_capacity(geo.patch_len());
        for c in 0..geo.in_channels {
            for kh in 0..geo.kernel_h {
                for kw in 0..geo.kernel_w {
                    tap.push((c * frame_h + kh) * frame_w + kw);
                }
            }
        }
        let mut site = Vec::with_capacity(geo.out_plane());
        for oy in 0..geo.out_h() {
            for ox in 0..geo.out_w() {
                site.push((oy * frame_w + ox) * geo.stride);
            }
        }
        Self { geo: *geo, frame_h, frame_w, tap, site }
    }

    /// Elements of one sample's image (`[C, H, W]`).
    fn image_len(&self) -> usize {
        self.geo.in_channels * self.geo.in_h * self.geo.in_w
    }

    /// Elements of one sample's frame.
    fn frame_len(&self) -> usize {
        self.geo.in_channels * self.frame_h * self.frame_w
    }

    /// A frame of this geometry with every element set to `border`.
    fn frame(&self, border: f32) -> ArenaBuf {
        let mut frame = arena::take(self.frame_len());
        frame.fill(border);
        frame
    }

    /// A zeroed frame of `NR` interleaved samples: element
    /// `pixel·NR + lane` is pixel `pixel` of lane `lane`'s frame.
    fn lane_frame(&self) -> ArenaBuf {
        let mut frame = arena::take(self.frame_len() * NR);
        frame.fill(0.0);
        frame
    }

    /// Frame offsets of the image rows: `(channel, row)` in image order.
    fn image_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let (g, fw) = (&self.geo, self.frame_w);
        (0..g.in_channels).flat_map(move |c| {
            (0..g.in_h).map(move |y| (c * self.frame_h + y + g.pad) * fw + g.pad)
        })
    }

    /// Copies `image` (`[C, H, W]`) into the frame's interior, one image
    /// row at a time; the border keeps its values.
    fn load<T: Copy + Into<f32>>(&self, image: &[T], frame: &mut [f32]) {
        debug_assert_eq!(image.len(), self.image_len());
        for (src, at) in image.chunks_exact(self.geo.in_w).zip(self.image_rows()) {
            for (d, &s) in frame[at..at + src.len()].iter_mut().zip(src) {
                *d = s.into();
            }
        }
    }

    /// Copies the frame's interior out into `image` (`[C, H, W]`),
    /// overwriting it; the border is dropped.
    fn store(&self, frame: &[f32], image: &mut [f32]) {
        debug_assert_eq!(image.len(), self.image_len());
        for (dst, at) in image.chunks_exact_mut(self.geo.in_w).zip(self.image_rows()) {
            dst.copy_from_slice(&frame[at..at + dst.len()]);
        }
    }

    /// Copies the interior of an `NR`-lane frame out into `NR`
    /// consecutive images (`[NR, C, H, W]`), lane `l` into image `l`,
    /// overwriting them; the border is dropped.
    fn store_lanes(&self, frame: &[f32], images: &mut [f32]) {
        let (w, image_len) = (self.geo.in_w, self.image_len());
        debug_assert_eq!(images.len(), NR * image_len);
        let (slots, _) = frame.as_chunks::<NR>();
        for (row, at) in self.image_rows().enumerate() {
            let src = &slots[at..at + w];
            for (lane, image) in images.chunks_exact_mut(image_len).enumerate() {
                for (d, slot) in image[row * w..(row + 1) * w].iter_mut().zip(src) {
                    *d = slot[lane];
                }
            }
        }
    }
}

/// The `MR` offsets starting at `first`, ragged rows past the end
/// repeating the last one: their lanes are computed and never stored.
fn tile_rows(offsets: &[usize], first: usize) -> [usize; MR] {
    std::array::from_fn(|ii| offsets[(first + ii).min(offsets.len() - 1)])
}

/// Runs the micro-kernel with its broadcast operand read straight from
/// `src`: column `kk` holds `src[row + depth[kk]]` for each of the
/// tile's `rows`. When the rows are consecutive elements (a stretch of
/// one image row, or of one gradient row) each column is one
/// `MR`-element load instead of `MR` separate ones.
fn gathered_kernel(src: &[f32], rows: [usize; MR], depth: &[usize], panel: &[f32], acc: &mut Tile) {
    let first = rows[0];
    if (0..MR).all(|ii| rows[ii] == first + ii) {
        let cols = depth.iter().map(|&d| -> [f32; MR] {
            src[first + d..first + d + MR].try_into().expect("MR-wide slice")
        });
        micro_kernel(cols, rows_of(panel), acc);
    } else {
        micro_kernel(depth.iter().map(|&d| rows.map(|r| src[r + d])), rows_of(panel), acc);
    }
}

/// Convolution weights pre-packed for the fused forward: the transposed
/// `[patch_len, out_channels]` weight matrix in `NR`-lane panels (the
/// GEMM right-operand layout), widened to `f32`, plus the patch index
/// of the input geometry they are applied to.
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
    index: PatchIndex,
    panels: ArenaBuf,
    dtype: PhantomData<T>,
}

impl<T: Copy + Into<f32>> PackedConvWeight<T> {
    /// Packs a `[out_channels, patch_len]` row-major weight matrix (the
    /// natural flattening of `[out_c, in_c, kh, kw]`) for inputs of
    /// geometry `geo`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on length mismatch.
    pub fn pack(geo: &Conv2dGeometry, out_channels: usize, weight: &[T]) -> Self {
        let patch = geo.patch_len();
        debug_assert_eq!(weight.len(), out_channels * patch);
        let mut panels = arena::take(out_channels.div_ceil(NR) * NR * patch);
        linalg::pack_bt_block(0, patch, patch, out_channels, weight, &mut panels);
        Self { out_channels, index: PatchIndex::new(geo), panels, dtype: PhantomData }
    }

    /// Output channels of the packed weights.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

/// Fused convolution forward for **one** sample: accumulates
/// `W @ im2col(input)` into `out` (`[out_channels, out_h·out_w]`
/// row-major), reading patch values straight from a padded copy of the
/// image instead of materializing the column matrix.
///
/// `out` must be pre-initialized by the caller (bias broadcast, or
/// zeros for a plain product) — it is accumulated into, exactly like
/// [`crate::gemm`], and the result is bitwise identical to
/// `im2col` + `gemm` on the same data.
///
/// # Panics
///
/// Panics (debug assertions) on slice lengths inconsistent with the
/// packed geometry.
pub fn conv_forward_fused(weight: &PackedConvWeight<f32>, input: &[f32], out: &mut [f32]) {
    forward_tiles(weight, input, 0.0, out);
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
/// Panics (debug assertions) on slice lengths inconsistent with the
/// packed geometry.
pub fn conv_forward_fused_i8(
    weight: &PackedConvWeight<i8>,
    input: &[i8],
    zero_point: i8,
    out: &mut [i32],
) {
    forward_tiles(weight, input, zero_point.into(), out);
}

/// The forward tile loop: rows are output sites, lanes output channels,
/// depth the taps in `KC`-deep slabs; each `out` element's lane is
/// seeded from it and folded back once per slab.
fn forward_tiles<T: Copy + Into<f32>, D: TileDst>(
    weight: &PackedConvWeight<T>,
    input: &[T],
    border: f32,
    out: &mut [D],
) {
    let index = &weight.index;
    let (oc, patch, plane) = (weight.out_channels, index.tap.len(), index.site.len());
    debug_assert_eq!(out.len(), oc * plane);
    let mut frame = index.frame(border);
    index.load(input, &mut frame);
    let mut k0 = 0;
    while k0 < patch {
        let kc = (patch - k0).min(KC);
        let taps = &index.tap[k0..k0 + kc];
        for j0 in (0..plane).step_by(MR) {
            let mr = (plane - j0).min(MR);
            let rows = tile_rows(&index.site, j0);
            for ot in 0..oc.div_ceil(NR) {
                let nr = (oc - ot * NR).min(NR);
                let panel = &weight.panels[(ot * patch + k0) * NR..(ot * patch + k0 + kc) * NR];
                // The tile is the transpose of its `out` block: lane
                // `jj` of row `ii` is `out[ot·NR + jj, j0 + ii]`.
                let mut acc: Tile = [[0.0; NR]; MR];
                for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    for (jj, lane) in acc_row.iter_mut().enumerate().take(nr) {
                        *lane = out[(ot * NR + jj) * plane + j0 + ii].seed();
                    }
                }
                gathered_kernel(&frame, rows, taps, panel, &mut acc);
                for (ii, acc_row) in acc.iter().enumerate().take(mr) {
                    for (jj, &lane) in acc_row.iter().enumerate().take(nr) {
                        out[(ot * NR + jj) * plane + j0 + ii].fold(lane);
                    }
                }
            }
        }
        k0 += kc;
    }
}

/// The backward pass of one convolution call: its weights and the
/// patch index of the input geometry. The input gradient reads the
/// `[out_channels, patch_len]` weights in place (four consecutive taps
/// are one load), so nothing is packed per call.
///
/// Built once per backward call and shared across samples and worker
/// threads.
pub struct ConvBackward<'w> {
    out_channels: usize,
    index: PatchIndex,
    weight: &'w [f32],
    /// Offset of each output channel's row in the weights.
    channel_rows: Vec<usize>,
}

impl<'w> ConvBackward<'w> {
    /// Prepares the backward pass over inputs of geometry `geo` for a
    /// `[out_channels, patch_len]` row-major weight matrix.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on length mismatch.
    pub fn new(geo: &Conv2dGeometry, out_channels: usize, weight: &'w [f32]) -> Self {
        let patch = geo.patch_len();
        debug_assert_eq!(weight.len(), out_channels * patch);
        let channel_rows = (0..out_channels).map(|o| o * patch).collect();
        Self { out_channels, index: PatchIndex::new(geo), weight, channel_rows }
    }

    /// FLOPs of one sample's input or weight gradient: one multiply and
    /// one add per weight tap per output site.
    fn flops(&self) -> u64 {
        2 * (self.out_channels * self.index.tap.len() * self.index.site.len()) as u64
    }
}

/// Fused input gradient of a run of samples: writes each sample's
/// `col2im(Wᵀ @ grad_out)` into its image of `grad_in` (`[N, C, H, W]`,
/// overwritten), where `grad_out` is `[N, out_channels, out_h·out_w]`.
///
/// `Wᵀ @ grad_out` is formed one band of `MR` patch rows at a time and
/// each finished tile is added straight into a padded gradient frame,
/// every pixel's additions in ascending patch-row order: every
/// `grad_in` element is the same chain as zeroing it and running
/// `gemm_at_b` into a zeroed matrix + [`crate::col2im`].
///
/// Each full group of `NR` samples runs as one: a tile's lanes are the
/// group's samples at one output site, and its rows add into a frame of
/// the group's `NR` interleaved images with one `NR`-wide add each. The
/// samples left over (fewer than `NR`) run one at a time, a tile's lanes
/// being `NR` output sites. Both produce the same bits. One Kernel span
/// per group and one per leftover sample carry the FLOPs of the samples
/// they cover.
///
/// # Panics
///
/// Panics (debug assertions) on slice lengths inconsistent with the
/// backward's geometry.
pub fn conv_backward_data(backward: &ConvBackward, grad_out: &[f32], grad_in: &mut [f32]) {
    let index = &backward.index;
    let (sample_in, sample_out) = (index.image_len(), backward.out_channels * index.site.len());
    let n = grad_in.len() / sample_in;
    debug_assert_eq!(grad_in.len(), n * sample_in);
    debug_assert_eq!(grad_out.len(), n * sample_out);
    let grouped = n / NR * NR;
    let (group_in, rest_in) = grad_in.split_at_mut(grouped * sample_in);
    let (group_out, rest_out) = grad_out.split_at(grouped * sample_out);
    for (gout, gin) in
        group_out.chunks_exact(NR * sample_out).zip(group_in.chunks_exact_mut(NR * sample_in))
    {
        let _span = span_flops(Category::Kernel, "conv_bwd_data", NR as u64 * backward.flops());
        backward_data_group(backward, gout, gin);
    }
    for (gout, gin) in rest_out.chunks_exact(sample_out).zip(rest_in.chunks_exact_mut(sample_in)) {
        let _span = span_flops(Category::Kernel, "conv_bwd_data", backward.flops());
        backward_data_sample(backward, gout, gin);
    }
}

/// The input gradient of `NR` samples at once: tile rows are `MR` taps
/// of `W`, lanes the group's samples at one output site, depth the
/// output channels. Bands of taps go in ascending order and, within a
/// band, sites last to first, so every (pixel, sample) of the
/// interleaved frame receives its terms in ascending tap order, as in
/// [`backward_data_sample`].
fn backward_data_group(backward: &ConvBackward, grad_out: &[f32], grad_in: &mut [f32]) {
    let index = &backward.index;
    let (oc, patch, plane) = (backward.out_channels, index.tap.len(), index.site.len());
    // One `[out_channel][sample]` panel per site.
    let mut panels = arena::take(plane * oc * NR);
    for (lane, sample) in grad_out.chunks_exact(oc * plane).enumerate() {
        for (o, channel) in sample.chunks_exact(plane).enumerate() {
            for (j, &g) in channel.iter().enumerate() {
                panels[(j * oc + o) * NR + lane] = g;
            }
        }
    }
    let mut frame = index.lane_frame();
    let (slots, _) = frame.as_chunks_mut::<NR>();
    for r0 in (0..patch).step_by(MR) {
        let rows = std::array::from_fn(|ii| (r0 + ii).min(patch - 1));
        let taps = &index.tap[r0..patch.min(r0 + MR)];
        // A pixel meets a later tap at an earlier site (see the module
        // docs): sites last to first keep its taps in order.
        for (&site, panel) in index.site.iter().zip(panels.chunks_exact(oc * NR)).rev() {
            let mut acc: Tile = [[0.0; NR]; MR];
            gathered_kernel(backward.weight, rows, &backward.channel_rows, panel, &mut acc);
            for (&tap, acc_row) in taps.iter().zip(&acc) {
                for (d, &lane) in slots[tap + site].iter_mut().zip(acc_row) {
                    *d += lane;
                }
            }
        }
    }
    index.store_lanes(&frame, grad_in);
}

/// The input gradient of one sample: tile rows are `MR` taps of `W`,
/// lanes `NR` output sites, depth the output channels.
fn backward_data_sample(backward: &ConvBackward, grad_out: &[f32], grad_in: &mut [f32]) {
    let index = &backward.index;
    let (oc, patch, plane) = (backward.out_channels, index.tap.len(), index.site.len());
    let mut panels = arena::take(plane.div_ceil(NR) * NR * oc);
    linalg::pack_b_block(0, oc, plane, grad_out, &mut panels);
    let mut frame = index.frame(0.0);
    for r0 in (0..patch).step_by(MR) {
        let rows = std::array::from_fn(|ii| (r0 + ii).min(patch - 1));
        let taps = &index.tap[r0..patch.min(r0 + MR)];
        // A pixel meets a later tap at an earlier site (see the module
        // docs): site tiles last to first keep its taps in order.
        for (jt, panel) in panels.chunks_exact(oc * NR).enumerate().rev() {
            let sites = &index.site[jt * NR..plane.min((jt + 1) * NR)];
            let mut acc: Tile = [[0.0; NR]; MR];
            gathered_kernel(backward.weight, rows, &backward.channel_rows, panel, &mut acc);
            let run = sites[0]..sites[0] + NR;
            let contiguous = sites.len() == NR && sites[NR - 1] == run.end - 1;
            for (&tap, acc_row) in taps.iter().zip(&acc) {
                if contiguous {
                    let dst = &mut frame[tap + run.start..tap + run.end];
                    for (d, &lane) in dst.iter_mut().zip(acc_row) {
                        *d += lane;
                    }
                } else {
                    for (&site, &lane) in sites.iter().zip(acc_row) {
                        frame[tap + site] += lane;
                    }
                }
            }
        }
    }
    index.store(&frame, grad_in);
}

/// Fused weight gradient of **one** sample: writes
/// `grad_out @ im2col(input)ᵀ` into `grad_weight`
/// (`[out_channels, patch_len]`, overwritten — the per-sample partial,
/// formed from zero), where `grad_out` is `[out_channels, out_h·out_w]`.
///
/// The patch values are read straight from a padded copy of the image;
/// only `grad_outᵀ` is packed. Each element is the same chain as
/// `im2col` + `gemm_a_bt` into a zeroed matrix.
///
/// # Panics
///
/// Panics (debug assertions) on slice lengths inconsistent with the
/// backward's geometry.
pub fn conv_backward_filter(
    backward: &ConvBackward,
    input: &[f32],
    grad_out: &[f32],
    grad_weight: &mut [f32],
) {
    let _span = span_flops(Category::Kernel, "conv_bwd_filter", backward.flops());
    let index = &backward.index;
    let (oc, patch, plane) = (backward.out_channels, index.tap.len(), index.site.len());
    debug_assert_eq!(grad_out.len(), oc * plane);
    debug_assert_eq!(grad_weight.len(), oc * patch);
    let mut frame = index.frame(0.0);
    index.load(input, &mut frame);
    let mut panels = arena::take(oc.div_ceil(NR) * NR * plane);
    linalg::pack_bt_block(0, plane, plane, oc, grad_out, &mut panels);
    for r0 in (0..patch).step_by(MR) {
        let mr = (patch - r0).min(MR);
        let rows = tile_rows(&index.tap, r0);
        for (ot, panel) in panels.chunks_exact(plane * NR).enumerate() {
            let nr = (oc - ot * NR).min(NR);
            let mut acc: Tile = [[0.0; NR]; MR];
            gathered_kernel(&frame, rows, &index.site, panel, &mut acc);
            for (ii, acc_row) in acc.iter().enumerate().take(mr) {
                for (jj, &lane) in acc_row.iter().enumerate().take(nr) {
                    grad_weight[(ot * NR + jj) * patch + r0 + ii] = lane;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{col2im, im2col};
    use crate::{gemm, gemm_a_bt, gemm_at_b, SeededRng, Tensor};

    const fn geo(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Geometries covering no-pad, padded, strided, multi-channel, a
    /// plane ragged against the tiles, and a kernel overhanging the
    /// image.
    const GEOMETRIES: [(Conv2dGeometry, usize); 5] = [
        (geo(1, 28, 28, 5, 1, 0), 20),
        (geo(3, 32, 32, 5, 1, 2), 32),
        (geo(2, 11, 7, 3, 2, 1), 5),
        (geo(1, 3, 3, 3, 1, 1), 2),
        (geo(5, 4, 4, 5, 1, 0), 13),
    ];

    #[test]
    fn fused_matches_materialized_bitwise() {
        let mut rng = SeededRng::new(21);
        for (g, oc) in GEOMETRIES {
            let (patch, plane) = (g.patch_len(), g.out_plane());
            let w = Tensor::randn(&[oc, patch], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[oc], 0.0, 1.0, &mut rng);
            let x = Tensor::randn(&[g.in_channels, g.in_h, g.in_w], 0.0, 1.0, &mut rng);
            let mut expect: Vec<f32> =
                b.data().iter().flat_map(|&v| std::iter::repeat_n(v, plane)).collect();
            let mut out = expect.clone();
            let mut cols = vec![0.0f32; patch * plane];
            im2col(&g, x.data(), &mut cols);
            gemm(oc, patch, plane, w.data(), &cols, &mut expect);

            conv_forward_fused(&PackedConvWeight::pack(&g, oc, w.data()), x.data(), &mut out);
            assert_eq!(bits(&out), bits(&expect), "{g:?}");
        }
    }

    #[test]
    fn fused_backward_matches_materialized_bitwise() {
        let mut rng = SeededRng::new(23);
        for (g, oc) in GEOMETRIES {
            let (patch, plane) = (g.patch_len(), g.out_plane());
            let w = Tensor::randn(&[oc, patch], 0.0, 1.0, &mut rng);
            let x = Tensor::randn(&[g.in_channels, g.in_h, g.in_w], 0.0, 1.0, &mut rng);
            let gout = Tensor::randn(&[oc, plane], 0.0, 1.0, &mut rng);

            let mut cols = vec![0.0f32; patch * plane];
            gemm_at_b(patch, oc, plane, w.data(), gout.data(), &mut cols);
            let mut want_gin = vec![0.0f32; x.len()];
            col2im(&g, &cols, &mut want_gin);
            im2col(&g, x.data(), &mut cols);
            let mut want_gw = vec![0.0f32; oc * patch];
            gemm_a_bt(oc, plane, patch, gout.data(), &cols, &mut want_gw);

            let backward = ConvBackward::new(&g, oc, w.data());
            let mut gin = vec![f32::NAN; x.len()];
            conv_backward_data(&backward, gout.data(), &mut gin);
            assert_eq!(bits(&gin), bits(&want_gin), "input gradient {g:?}");
            let mut gw = vec![f32::NAN; oc * patch];
            conv_backward_filter(&backward, x.data(), gout.data(), &mut gw);
            assert_eq!(bits(&gw), bits(&want_gw), "weight gradient {g:?}");
        }
    }

    /// A run of `NR + 3` samples takes the lane kernel for the first
    /// `NR` and the per-sample kernel for the rest; every sample's input
    /// gradient equals the per-sample kernel's on that sample alone.
    #[test]
    fn lane_kernel_matches_per_sample_kernel_bitwise() {
        let mut rng = SeededRng::new(24);
        let n = NR + 3;
        for (g, oc) in GEOMETRIES {
            let (sample_in, sample_out) = (g.in_channels * g.in_h * g.in_w, oc * g.out_plane());
            let w = Tensor::randn(&[oc, g.patch_len()], 0.0, 1.0, &mut rng);
            let gout = Tensor::randn(&[n, sample_out], 0.0, 1.0, &mut rng);
            let backward = ConvBackward::new(&g, oc, w.data());
            let mut gin = vec![f32::NAN; n * sample_in];
            conv_backward_data(&backward, gout.data(), &mut gin);
            for (s, (got, gout_s)) in
                gin.chunks_exact(sample_in).zip(gout.data().chunks_exact(sample_out)).enumerate()
            {
                let mut want = vec![f32::NAN; sample_in];
                conv_backward_data(&backward, gout_s, &mut want);
                assert_eq!(bits(got), bits(&want), "sample {s} of {g:?}");
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
        let packed = PackedConvWeight::pack(&g, oc, w.data());
        let mut out = vec![0.0f32; oc * g.out_plane()];
        conv_forward_fused(&packed, x.data(), &mut out);
        let mut expect = vec![0.0f32; oc * g.out_plane()];
        gemm(oc, 4, 36, w.data(), x.data(), &mut expect);
        assert_eq!(out, expect);
    }
}
