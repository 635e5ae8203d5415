//! Dense linear algebra kernels.
//!
//! The workhorse is a blocked, *packed* GEMM: operand panels are copied
//! into contiguous, zero-padded tiles (`MR`-row panels of the left
//! operand, `NR`-column panels of the right) and a single fixed
//! `MR×NR` register micro-kernel computes every destination tile,
//! including the ragged edges — padding lanes are computed and
//! discarded rather than special-cased. Packing puts both streams in
//! unit stride for the innermost loop, which LLVM turns into clean SIMD
//! without any unsafe code.
//!
//! **The determinism contract.** Every destination element evolves as
//! one fixed chain `c = (((c₀ + t₀) + t₁) + …)` with `t_kk = a_ik·b_kj`
//! added in ascending `kk` order — the fp32 tile driver *loads* the
//! micro-kernel's accumulator tile from `c` and stores it back, so
//! blocking factors, packing layout, the packed-vs-small-path choice
//! and the thread count can change only *which tile is computed when*,
//! never the per-element operation sequence. Rust never contracts
//! `a*b + c` into an FMA, so results are bit-identical across all of
//! those axes and equal to the textbook triple loop (see
//! `tests/tests/kernels.rs`).
//!
//! **One micro-kernel, two source dtypes.** The packers widen their
//! source elements (`f32` or `i8`) into `f32` panels, and the tile
//! driver is generic over the destination element ([`TileDst`]): an
//! `f32` destination seeds each `KC`-deep slab's tile from `c`, an
//! `i32` destination seeds it at zero and adds the finished slab into
//! `c` (see [`crate::gemm_i8`] for why that is exact). The fused
//! convolutions ([`crate::fused`]) drive the same micro-kernel, its
//! broadcast operand gathered from an image instead of a packed panel.
//!
//! Large kernels are parallelized by partitioning the *rows of the
//! destination* across workers (see [`crate::par`]); each worker runs
//! the identical per-element chains on its disjoint band.

use crate::arena;
use crate::par;
use dlbench_trace::{span_flops, Category};

/// Micro-kernel tile height (rows of `c` per register tile).
pub(crate) const MR: usize = 4;
/// Micro-kernel tile width (columns of `c` per register tile).
pub(crate) const NR: usize = 8;
/// k-blocking depth: one packed slab of `b` covers `KC` accumulation
/// steps, sized so an `NR`-column panel (`KC·NR·4` = 8 KiB) lives in L1
/// while it is reused across every row tile.
pub(crate) const KC: usize = 256;

/// The int8 path runs on the f32 micro-kernel one `KC`-deep slab at a
/// time. `|i8·i8| ≤ 2¹⁴`, so every partial sum of a slab is an integer
/// of magnitude at most `KC·2¹⁴`; below `2²⁴` every such integer is an
/// f32, so the slab's f32 arithmetic is exact.
const _: () = assert!(KC * (1 << 14) < 1 << 24, "KC too deep for exact int8 slabs");

/// Below this many MACs the packing overhead outweighs the micro-kernel
/// win and the plain loop nest runs instead. Both paths produce the
/// same bits (see module docs), so this threshold is a pure performance
/// choice.
const PACK_MIN_WORK: usize = 1 << 13;

/// FLOPs charged for an `m×k @ k×n` product (one multiply + one add
/// per MAC) — the same count `dlbench-simtime` layer costs are built
/// from, so profile reports join cleanly.
fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

// ---------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------

/// Packs a `rows×k` row-major matrix into `MR`-row panels, widening
/// each element to `f32`: panel `it` occupies `ap[it·k·MR ..]` with
/// layout `[kk][ii]`, rows beyond `rows` zero-padded. Tile stride is
/// `k·MR`, so a `[k0, k0+kc)` sub-slab of any panel is contiguous.
fn pack_a<T: Copy + Into<f32>>(rows: usize, k: usize, a: &[T], ap: &mut [f32]) {
    for it in 0..rows.div_ceil(MR) {
        let tile = &mut ap[it * k * MR..(it + 1) * k * MR];
        for ii in 0..MR {
            let i = it * MR + ii;
            if i < rows {
                let a_row = &a[i * k..(i + 1) * k];
                for (kk, &v) in a_row.iter().enumerate() {
                    tile[kk * MR + ii] = v.into();
                }
            } else {
                for kk in 0..k {
                    tile[kk * MR + ii] = 0.0;
                }
            }
        }
    }
}

/// Packs the transpose of a `k×m` row-major matrix, columns
/// `[first, first+rows)`, into the same `MR`-panel layout as
/// [`pack_a`] (used by `gemm_at_b`, whose left operand is stored
/// transposed).
fn pack_a_t(first: usize, rows: usize, k: usize, m: usize, a: &[f32], ap: &mut [f32]) {
    for it in 0..rows.div_ceil(MR) {
        let tile = &mut ap[it * k * MR..(it + 1) * k * MR];
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            for ii in 0..MR {
                let i = it * MR + ii;
                tile[kk * MR + ii] = if i < rows { a_row[first + i] } else { 0.0 };
            }
        }
    }
}

/// Packs rows `[k0, k0+kc)` of a `k×n` row-major matrix into `NR`-column
/// panels, widening each element to `f32`: panel `jt` occupies
/// `bp[jt·kc·NR ..]` with layout `[kk][jj]`, columns beyond `n`
/// zero-padded.
pub(crate) fn pack_b_block<T: Copy + Into<f32>>(
    k0: usize,
    kc: usize,
    n: usize,
    b: &[T],
    bp: &mut [f32],
) {
    let n_tiles = n.div_ceil(NR);
    for jt in 0..n_tiles {
        let j0 = jt * NR;
        let width = (n - j0).min(NR);
        let tile = &mut bp[jt * kc * NR..(jt + 1) * kc * NR];
        for (kk, dst) in tile.chunks_exact_mut(NR).enumerate() {
            let b_row = &b[(k0 + kk) * n + j0..][..width];
            match <&[T; NR]>::try_from(b_row) {
                // A full-width row widens as one fixed-size block, which
                // LLVM turns into a few vector moves.
                Ok(full) => dst.copy_from_slice(&full.map(Into::into)),
                Err(_) => {
                    for (d, &v) in dst.iter_mut().zip(b_row) {
                        *d = v.into();
                    }
                    dst[width..].fill(0.0);
                }
            }
        }
    }
}

/// Packs columns `[k0, k0+kc)` of the transpose of an `n×k` row-major
/// matrix into the same `NR`-panel layout as [`pack_b_block`] (used by
/// `gemm_a_bt`, whose right operand is stored transposed, and by the
/// fused conv kernels for weight and gradient panels).
pub(crate) fn pack_bt_block<T: Copy + Into<f32>>(
    k0: usize,
    kc: usize,
    k: usize,
    n: usize,
    b: &[T],
    bp: &mut [f32],
) {
    let n_tiles = n.div_ceil(NR);
    for jt in 0..n_tiles {
        let tile = &mut bp[jt * kc * NR..(jt + 1) * kc * NR];
        for jj in 0..NR {
            let j = jt * NR + jj;
            if j < n {
                let b_row = &b[j * k + k0..j * k + k0 + kc];
                for (kk, &v) in b_row.iter().enumerate() {
                    tile[kk * NR + jj] = v.into();
                }
            } else {
                for kk in 0..kc {
                    tile[kk * NR + jj] = 0.0;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Micro-kernel and tile driver
// ---------------------------------------------------------------------

/// The micro-kernel's accumulator: one `MR×NR` register tile.
pub(crate) type Tile = [[f32; NR]; MR];

/// The one micro-kernel: the caller's `MR×NR` accumulator `tile`
/// receives one rank-1 update per pair of left-operand column `a_cols`
/// (`MR` values) and packed right-operand row `b_rows` (`NR` values),
/// in ascending order. The 32 accumulator lanes are independent chains,
/// so the loop vectorizes; lanes over padding rows or columns multiply
/// padded entries and are never stored.
///
/// The left operand comes as an iterator so one body serves both the
/// packed panels of the GEMMs and the fused convolutions, which gather
/// their `MR` values straight from an image (see [`crate::fused`]).
#[inline(always)]
pub(crate) fn micro_kernel(
    a_cols: impl Iterator<Item = [f32; MR]>,
    b_rows: &[[f32; NR]],
    tile: &mut Tile,
) {
    // Updating through the reference keeps the lanes in memory; a local
    // copy lets LLVM hold all 32 in registers.
    let mut acc = *tile;
    for (a_col, b_row) in a_cols.zip(b_rows) {
        for (acc_row, &av) in acc.iter_mut().zip(&a_col) {
            for (lane, &bv) in acc_row.iter_mut().zip(b_row) {
                *lane += av * bv;
            }
        }
    }
    *tile = acc;
}

/// Views a packed panel slab as its `W`-wide rows.
pub(crate) fn rows_of<const W: usize>(panel: &[f32]) -> &[[f32; W]] {
    let (rows, rest) = panel.as_chunks::<W>();
    debug_assert!(rest.is_empty());
    rows
}

/// A destination element type of the tile driver: where a `KC`-deep
/// slab's accumulator lane starts from, and how the finished lane folds
/// back into the element.
pub(crate) trait TileDst: Copy {
    /// The lane's value before the slab's first update.
    fn seed(self) -> f32;
    /// Folds the lane after the slab's last update into the element.
    fn fold(&mut self, lane: f32);
}

/// fp32: the lane starts from the element and replaces it, so each
/// element is one chain across all slabs.
impl TileDst for f32 {
    fn seed(self) -> f32 {
        self
    }
    fn fold(&mut self, lane: f32) {
        *self = lane;
    }
}

/// int8 → i32: each slab starts at zero and its exact integer sum is
/// added into the element (see the `KC` exactness assertion).
impl TileDst for i32 {
    fn seed(self) -> f32 {
        0.0
    }
    fn fold(&mut self, lane: f32) {
        *self += lane as i32;
    }
}

/// Drives the micro-kernel over a pre-packed left operand (`ap`, the
/// [`pack_a`] layout for `rows×k`) and a right operand packed one
/// `KC`-deep slab at a time by `pack_b`, accumulating into the
/// `rows×n` destination `c`. `pack_b(k0, kc, bp)` must fill `bp` with
/// the `[k0, k0+kc)` slab in [`pack_b_block`] layout.
fn gemm_tiles<D: TileDst, PB: FnMut(usize, usize, &mut [f32])>(
    rows: usize,
    k: usize,
    n: usize,
    ap: &[f32],
    c: &mut [D],
    mut pack_b: PB,
) {
    let m_tiles = rows.div_ceil(MR);
    let n_tiles = n.div_ceil(NR);
    let mut bp = arena::take(n_tiles * NR * k.min(KC));
    let mut k0 = 0;
    while k0 < k {
        let kc = (k - k0).min(KC);
        pack_b(k0, kc, &mut bp[..n_tiles * NR * kc]);
        for it in 0..m_tiles {
            let mr = (rows - it * MR).min(MR);
            let a_tile = &ap[it * k * MR + k0 * MR..it * k * MR + (k0 + kc) * MR];
            for jt in 0..n_tiles {
                let nr = (n - jt * NR).min(NR);
                let b_tile = &bp[jt * kc * NR..(jt + 1) * kc * NR];
                let c_tile = &mut c[it * MR * n + jt * NR..];
                let mut acc = [[0.0f32; NR]; MR];
                for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    for (lane, c) in acc_row.iter_mut().zip(&c_tile[ii * n..ii * n + nr]) {
                        *lane = c.seed();
                    }
                }
                micro_kernel(rows_of::<MR>(a_tile).iter().copied(), rows_of(b_tile), &mut acc);
                for (ii, acc_row) in acc.iter().enumerate().take(mr) {
                    for (c, &lane) in c_tile[ii * n..ii * n + nr].iter_mut().zip(acc_row) {
                        c.fold(lane);
                    }
                }
            }
        }
        k0 += kc;
    }
}

// ---------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------

/// `c += a @ b` for row-major matrices: `a` is `m×k`, `b` is `k×n`, `c`
/// is `m×n`.
///
/// The destination is *accumulated into*, so callers that need a plain
/// product must zero `c` first (as [`crate::Tensor::matmul`] does).
///
/// # Panics
///
/// Panics (debug assertions) if slice lengths are inconsistent with the
/// given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _span = span_flops(Category::Kernel, "gemm", gemm_flops(m, k, n));
    if m.saturating_mul(k).saturating_mul(n) < par::PAR_MIN_WORK {
        gemm_rows(m, k, n, a, b, c);
        return;
    }
    par::par_row_chunks_mut(c, n, |first, c_chunk| {
        let rows = c_chunk.len() / n;
        gemm_rows(rows, k, n, &a[first * k..(first + rows) * k], b, c_chunk);
    });
}

/// Packed `c += a @ b` over a band of `rows` destination rows (`a` holds
/// the matching rows of the left operand) — the large-product path of
/// both [`gemm`] and [`crate::gemm_i8`].
pub(crate) fn gemm_packed<T: Copy + Into<f32>, D: TileDst>(
    rows: usize,
    k: usize,
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [D],
) {
    let mut ap = arena::take(rows.div_ceil(MR) * MR * k);
    pack_a(rows, k, a, &mut ap);
    gemm_tiles(rows, k, n, &ap, c, |k0, kc, bp| pack_b_block(k0, kc, n, b, bp));
}

/// Serial `gemm` over a contiguous band of `rows` destination rows;
/// `a` holds the matching rows of the left operand.
fn gemm_rows(rows: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if rows * k * n >= PACK_MIN_WORK {
        gemm_packed(rows, k, n, a, b, c);
        return;
    }
    // Small path: plain loop nest, same per-element chain (`kk`
    // ascending into the live `c` value).
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

/// `c += a^T @ b` where `a` is `k×m` row-major (so `a^T` is `m×k`),
/// `b` is `k×n`, `c` is `m×n`. Used for weight gradients without
/// materializing transposes.
pub fn gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _span = span_flops(Category::Kernel, "gemm_at_b", gemm_flops(m, k, n));
    if m.saturating_mul(k).saturating_mul(n) < par::PAR_MIN_WORK {
        gemm_at_b_rows(0, m, k, n, a, b, c);
        return;
    }
    par::par_row_chunks_mut(c, n, |first, c_chunk| {
        gemm_at_b_rows(first, m, k, n, a, b, c_chunk);
    });
}

/// Serial `gemm_at_b` over the destination rows held in `c` (a band
/// starting at row `first` of the full output); `a` is the full `k×m`
/// left operand (its columns are strided, so it cannot be sub-sliced
/// per chunk).
fn gemm_at_b_rows(first: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = c.len() / n;
    if rows * k * n >= PACK_MIN_WORK {
        let mut ap = arena::take(rows.div_ceil(MR) * MR * k);
        pack_a_t(first, rows, k, m, a, &mut ap);
        gemm_tiles(rows, k, n, &ap, c, |k0, kc, bp| pack_b_block(k0, kc, n, b, bp));
        return;
    }
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for i in 0..rows {
            let aki = a_row[first + i];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += aki * bj;
            }
        }
    }
}

/// `c += a @ b^T` where `a` is `m×k`, `b` is `n×k` row-major, `c` is
/// `m×n`. Used for input gradients of fully-connected layers.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let _span = span_flops(Category::Kernel, "gemm_a_bt", gemm_flops(m, k, n));
    if m.saturating_mul(k).saturating_mul(n) < par::PAR_MIN_WORK {
        gemm_a_bt_rows(m, k, n, a, b, c);
        return;
    }
    par::par_row_chunks_mut(c, n, |first, c_chunk| {
        let rows = c_chunk.len() / n;
        gemm_a_bt_rows(rows, k, n, &a[first * k..(first + rows) * k], b, c_chunk);
    });
}

/// Serial `gemm_a_bt` over a contiguous band of `rows` destination
/// rows; `a` holds the matching rows of the left operand.
fn gemm_a_bt_rows(rows: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if rows * k * n >= PACK_MIN_WORK {
        let mut ap = arena::take(rows.div_ceil(MR) * MR * k);
        pack_a(rows, k, a, &mut ap);
        gemm_tiles(rows, k, n, &ap, c, |k0, kc, bp| pack_bt_block(k0, kc, k, n, b, bp));
        return;
    }
    // Small path: per-element dot, accumulated directly into the live
    // `c` value so the chain matches the packed path and the other
    // kernels (`c` first, then `kk` ascending).
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cj) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            for (av, bv) in a_row.iter().zip(b_row) {
                *cj += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeededRng, Tensor};

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_bitwise() {
        let mut rng = SeededRng::new(1);
        // Ragged shapes straddling PACK_MIN_WORK and the tile sizes.
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 300, 9), (16, 16, 16), (37, 41, 29)] {
            let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, a.data(), b.data(), &mut c);
            let expect = naive(m, k, n, a.data(), b.data());
            for (x, y) in c.iter().zip(&expect) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_accumulates() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 0.0, 0.0, 2.0];
        let mut c = [10.0f32, 0.0, 0.0, 10.0];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [12.0, 0.0, 0.0, 12.0]);
    }

    /// Regression for the old `aik == 0.0` fast path: skipping the
    /// multiplication drops `0·NaN = NaN` and `0·∞ = NaN`, silently
    /// un-poisoning outputs the TrainGuard divergence check relies on
    /// seeing. Zero rows of `a` must still propagate non-finite `b`.
    #[test]
    fn zero_times_non_finite_propagates() {
        let a = [0.0f32, 0.0];
        // Column 0 carries a NaN, column 1 an infinity.
        let b = [f32::NAN, f32::INFINITY, 1.0, 2.0];
        let mut c = [0.0f32; 2];
        gemm(1, 2, 2, &a, &b, &mut c);
        assert!(c[0].is_nan(), "0 * NaN row must poison the output");
        assert!(c[1].is_nan(), "0 * inf must poison the output (0*inf = NaN)");
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = SeededRng::new(2);
        let (m, k, n) = (4, 6, 5);
        let a_t = Tensor::randn(&[k, m], 0.0, 1.0, &mut rng); // a^T stored
        let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, k, n, a_t.data(), b.data(), &mut c);
        let expect = a_t.transpose2().matmul(&b);
        for (x, y) in c.iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-4);
        }

        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b_t = Tensor::randn(&[n, k], 0.0, 1.0, &mut rng); // b^T stored
        let mut c2 = vec![0.0f32; m * n];
        gemm_a_bt(m, k, n, a.data(), b_t.data(), &mut c2);
        let expect2 = a.matmul(&b_t.transpose2());
        for (x, y) in c2.iter().zip(expect2.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// The packed path must honor the module-level contract: identical
    /// bits to the naive chain (and hence to the small path) even at
    /// shapes ragged against every blocking factor.
    #[test]
    fn packed_paths_match_naive_bitwise() {
        let mut rng = SeededRng::new(4);
        // 47·52·43 ≈ 105k MACs: above PACK_MIN_WORK, below PAR_MIN_WORK,
        // with m ragged against MR=4 and n ragged against NR=8.
        let (m, k, n) = (47, 52, 43);
        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let expect = naive(m, k, n, a.data(), b.data());

        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, a.data(), b.data(), &mut c);
        assert!(c.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()));

        // a^T stored variant against the same naive result.
        let a_t = a.transpose2();
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, k, n, a_t.data(), b.data(), &mut c);
        assert!(c.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()));

        // b^T stored variant.
        let b_t = b.transpose2();
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt(m, k, n, a.data(), b_t.data(), &mut c);
        assert!(c.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// Each kernel must produce bit-identical output at any thread
    /// count. The shape is chosen above `PAR_MIN_WORK` so the parallel
    /// path actually engages when workers > 1.
    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        let _guard = crate::par::THREAD_CONFIG.lock().unwrap();
        let mut rng = SeededRng::new(3);
        let (m, k, n) = (96, 64, 96); // 96·64·96 ≈ 590k MACs > PAR_MIN_WORK
        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let a_t = Tensor::randn(&[k, m], 0.0, 1.0, &mut rng);
        let b_t = Tensor::randn(&[n, k], 0.0, 1.0, &mut rng);

        // Serial references computed inside a worker guard, which pins
        // effective parallelism to one thread regardless of the global
        // setting (other tests in this binary may change it).
        let (mut s0, mut s1, mut s2) =
            (vec![0.0f32; m * n], vec![0.0f32; m * n], vec![0.0f32; m * n]);
        crate::par::run_as_worker(|| {
            gemm(m, k, n, a.data(), b.data(), &mut s0);
            gemm_at_b(m, k, n, a_t.data(), b.data(), &mut s1);
            gemm_a_bt(m, k, n, a.data(), b_t.data(), &mut s2);
        });

        for workers in [2, 3, 5] {
            let run = |f: &dyn Fn(&mut [f32])| {
                let mut c = vec![0.0f32; m * n];
                f(&mut c);
                c
            };
            crate::par::set_threads(workers);
            let p0 = run(&|c| gemm(m, k, n, a.data(), b.data(), c));
            let p1 = run(&|c| gemm_at_b(m, k, n, a_t.data(), b.data(), c));
            let p2 = run(&|c| gemm_a_bt(m, k, n, a.data(), b_t.data(), c));
            crate::par::set_threads(1);
            assert_eq!(p0, s0, "gemm diverged at {workers} workers");
            assert_eq!(p1, s1, "gemm_at_b diverged at {workers} workers");
            assert_eq!(p2, s2, "gemm_a_bt diverged at {workers} workers");
        }
    }
}
