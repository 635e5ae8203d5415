//! Int8 quantization kernels: affine quantize/dequantize and an
//! i32-accumulate int8 GEMM.
//!
//! These are the numeric substrate of `dlbench-quant`'s post-training
//! quantization path. The determinism story is *stronger* than the
//! fp32 kernels': [`gemm_i8`] accumulates in `i32`, where addition is
//! exact and associative, so bit-identical results across thread
//! counts, batch sizes and row partitions are structural rather than
//! contractual. The parallel path (disjoint output rows via
//! [`crate::par`]) is exactly the serial arithmetic on a band.
//!
//! [`gemm_i8`] runs on the same packed micro-kernel as the fp32
//! [`crate::gemm`]: operands are widened into `f32` panels and each
//! `KC`-deep slab is summed in an f32 tile that starts at zero. Every
//! product is an integer with `|a·b| ≤ 2¹⁴` and a slab has at most
//! `KC = 256` of them, so each partial sum is an integer below
//! `2²² < 2²⁴` and the f32 arithmetic is exact; the slab total is then
//! added into the `i32` destination. Bands of fewer than `MR` rows
//! (a batch-1 classifier layer, or a small batch split across workers)
//! skip packing and accumulate in i32 directly.
//!
//! Quantization is affine: a real value `x` is represented as
//! `q = round(x / scale) + zero_point`, clamped to the i8 range, so
//! `x ≈ scale · (q − zero_point)`. Symmetric (weight) quantization is
//! the `zero_point = 0` special case.

use crate::linalg::{self, MR};
use crate::par;
use dlbench_trace::{span_flops, Category};

/// FLOPs charged for an `m×k @ k×n` int8 product — same 2-ops-per-MAC
/// convention as the fp32 GEMM, so profile FLOP/s joins are comparable
/// across dtypes.
fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Quantizes `src` into `dst` as `round(x / scale) + zero_point`,
/// saturating to the i8 range.
///
/// Rounding is `f32::round` (half away from zero) — a fixed per-element
/// rule, so the output is bit-identical regardless of batching or
/// threading. Non-finite inputs saturate deterministically (`NaN`
/// casts to 0).
///
/// # Panics
///
/// Panics if the slices disagree in length or `scale` is not a finite
/// positive number.
pub fn quantize_i8(src: &[f32], scale: f32, zero_point: i8, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 length mismatch");
    assert!(scale.is_finite() && scale > 0.0, "quantize_i8 scale must be finite and positive");
    let _span = span_flops(Category::Kernel, "quantize_i8", 2 * src.len() as u64);
    let inv = 1.0 / scale;
    let zp = zero_point as f32;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = ((x * inv).round() + zp).clamp(-128.0, 127.0) as i8;
    }
}

/// Dequantizes `src` into `dst` as `scale · (q − zero_point)`.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn dequantize_i8(src: &[i8], scale: f32, zero_point: i8, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize_i8 length mismatch");
    let _span = span_flops(Category::Kernel, "dequantize_i8", 2 * src.len() as u64);
    let zp = zero_point as i32;
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = (q as i32 - zp) as f32 * scale;
    }
}

/// `c += a @ b` over int8 operands with i32 accumulation: `a` is
/// `m×k` row-major, `b` is `k×n` row-major, `c` is `m×n` row-major.
///
/// Every slab sum is exact (see the module docs) and i32 addition is
/// exact, so the result equals the naive i32 triple loop bit for bit
/// at any shape, thread count and partition of the output rows. The
/// total cannot overflow i32 for the network shapes in this suite
/// (`k ≤ 4096`, `|a·b| ≤ 2¹⁴`); debug builds additionally catch
/// overflow via Rust's checked arithmetic.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_i8 lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_i8 rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_i8 dst length mismatch");
    let _span = span_flops(Category::Kernel, "gemm_i8", gemm_flops(m, k, n));
    if m.saturating_mul(k).saturating_mul(n) < par::PAR_MIN_WORK {
        gemm_i8_rows(m, k, n, a, b, c);
        return;
    }
    par::par_row_chunks_mut(c, n, |first, c_chunk| {
        let rows = c_chunk.len() / n;
        gemm_i8_rows(rows, k, n, &a[first * k..(first + rows) * k], b, c_chunk);
    });
}

/// Serial int8 GEMM over a contiguous band of `rows` destination rows;
/// `a` holds the matching rows of the left operand.
///
/// The micro-kernel always computes `MR` rows and the packed path
/// widens all of `b` on every call, so a band of fewer than `MR` rows
/// (a batch-1 `QLinear`, say) pays for `MR` rows of work. Such
/// bands run an `ikj` loop nest in i32 instead, which at one row is
/// 2.2–4.3× faster than the packed path at every classifier shape of
/// the nine personalities; from `MR` rows up the packed path wins or
/// ties, however small the product.
fn gemm_i8_rows(rows: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    if rows >= MR {
        linalg::gemm_packed(rows, k, n, a, b, c);
        return;
    }
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            let a_ik = a_ik as i32;
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += a_ik * bv as i32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn naive(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn random_i8(len: usize, rng: &mut SeededRng) -> Vec<i8> {
        (0..len).map(|_| (rng.index(256) as i64 - 128) as i8).collect()
    }

    #[test]
    fn gemm_i8_matches_naive() {
        let mut rng = SeededRng::new(11);
        let (m, k, n) = (13, 29, 17);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut c = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_i8_accumulates_into_destination() {
        let mut rng = SeededRng::new(12);
        let (m, k, n) = (3, 5, 4);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut c = vec![7i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        let expect: Vec<i32> = naive(m, k, n, &a, &b).iter().map(|v| v + 7).collect();
        assert_eq!(c, expect);
    }

    #[test]
    fn gemm_i8_saturating_extremes_do_not_overflow() {
        // Worst case the suite can see: every product is 127·(-128).
        let (m, k, n) = (2, 4096, 3);
        let a = vec![127i8; m * k];
        let b = vec![-128i8; k * n];
        let mut c = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        assert!(c.iter().all(|&v| v == 4096 * 127 * -128));
    }

    #[test]
    fn gemm_i8_parallel_is_identical_to_serial() {
        let _guard = crate::par::THREAD_CONFIG.lock().unwrap();
        let mut rng = SeededRng::new(13);
        let (m, k, n) = (96, 64, 96); // above PAR_MIN_WORK
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut serial = vec![0i32; m * n];
        crate::par::run_as_worker(|| gemm_i8(m, k, n, &a, &b, &mut serial));
        for workers in [2, 3, 5] {
            crate::par::set_threads(workers);
            let mut c = vec![0i32; m * n];
            gemm_i8(m, k, n, &a, &b, &mut c);
            crate::par::set_threads(1);
            assert_eq!(c, serial, "gemm_i8 diverged at {workers} workers");
        }
    }

    #[test]
    fn quantize_roundtrip_stays_within_half_lsb() {
        let mut rng = SeededRng::new(14);
        let src: Vec<f32> = (0..512).map(|_| rng.normal(0.0, 2.0)).collect();
        let max_abs = src.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let mut q = vec![0i8; src.len()];
        quantize_i8(&src, scale, 0, &mut q);
        let mut back = vec![0.0f32; src.len()];
        dequantize_i8(&q, scale, 0, &mut back);
        for (x, y) in src.iter().zip(&back) {
            assert!((x - y).abs() <= scale * 0.5 + 1e-6, "{x} -> {y} (scale {scale})");
        }
    }

    #[test]
    fn quantize_saturates_out_of_range_values() {
        let src = [1e9f32, -1e9, 0.0, f32::NAN];
        let mut q = [0i8; 4];
        quantize_i8(&src, 0.1, 3, &mut q);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -128);
        assert_eq!(q[2], 3); // 0.0 maps exactly to the zero point
        assert_eq!(q[3], 0); // NaN casts to 0, not to the zero point
    }

    #[test]
    fn affine_zero_point_represents_zero_exactly() {
        for zp in [-37i8, 0, 55] {
            let src = [0.0f32; 8];
            let mut q = [0i8; 8];
            quantize_i8(&src, 0.02, zp, &mut q);
            assert!(q.iter().all(|&v| v == zp));
            let mut back = [1.0f32; 8];
            dequantize_i8(&q, 0.02, zp, &mut back);
            assert!(back.iter().all(|&v| v == 0.0));
        }
    }
}
