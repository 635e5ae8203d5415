//! Kernel equivalence gate: the packed, blocked GEMM kernels (fp32 and
//! int8), the fused convolution forwards (fp32 and int8) and the fused
//! convolution backward (fp32) must be *bitwise* equal to their textbook
//! references.
//!
//! The determinism contract (see `dlbench_tensor::linalg`) says every
//! destination element evolves as the fixed chain
//! `c = (((c₀ + t₀) + t₁) + …)` with `t_kk = a_ik · b_kj` in ascending
//! `kk`. Blocking, packing, path choice (small vs packed) and thread
//! count may only change *which element is computed when*, never the
//! per-element operation sequence — so the optimized kernels must
//! reproduce the naive triple loop bit for bit, on every shape
//! including ragged tails, empty dims and 1×1, at any thread count.

use dlbench_data::DatasetKind;
use dlbench_frameworks::{arch_defaults, FrameworkKind};
use dlbench_nn::{Conv1d, Conv1dBank, Conv2d, Initializer, Layer};
use dlbench_quant::{im2col_i8, QConv1dBank, QConv2d};
use dlbench_tensor::{
    col2im, gemm, gemm_a_bt, gemm_at_b, gemm_i8, im2col, par, quantize_i8, Conv2dGeometry,
    SeededRng, Tensor,
};
use dlbench_trace::{EventKind, TraceConfig};
use std::sync::Mutex;

/// Serializes tests that mutate the global worker count.
static THREADS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    THREADS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at the given thread count, restoring single-threaded
/// execution afterwards so unrelated tests see a fixed configuration.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    par::set_threads(n);
    let out = f();
    par::set_threads(1);
    out
}

/// The reference semantics, spelled out: a naive triple loop that
/// accumulates `a[i,kk] * b[kk,j]` directly into `c[i,j]` in ascending
/// `kk`. No skips, no reassociation, no FMA.
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
}

/// `c += aᵀ @ b` with `a` stored `[k, m]`.
fn naive_gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[kk * m + i] * b[kk * n + j];
            }
        }
    }
}

/// `c += a @ bᵀ` with `b` stored `[n, k]`.
fn naive_gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[j * k + kk];
            }
        }
    }
}

/// `c += a @ b` over int8 operands, each product widened to i32.
fn naive_gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] as i32 * b[kk * n + j] as i32;
            }
        }
    }
}

fn random_i8(len: usize, rng: &mut SeededRng) -> Vec<i8> {
    (0..len).map(|_| (rng.index(256) as i64 - 128) as i8).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Shapes that exercise every dispatch path: the small loop (below
/// `PACK_MIN_WORK`), the packed path, ragged tails against the 4×8
/// micro-tile and the 256-deep k-block, empty dims, 1×1, and sizes big
/// enough to clear `par::PAR_MIN_WORK` so 4 threads genuinely fan out.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (4, 8, 8),
    (3, 5, 7),
    (0, 4, 4),
    (4, 0, 4),
    (4, 4, 0),
    (37, 41, 29),
    (64, 300, 48),
    (128, 96, 80),
    (65, 257, 9),
];

#[test]
fn packed_gemm_kernels_match_naive_reference_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x4E44);
    for &(m, k, n) in SHAPES {
        let a = Tensor::randn(&[m.max(1), k.max(1)], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k.max(1), n.max(1)], 0.0, 1.0, &mut rng);
        // Nonzero destination: accumulation order into existing values
        // is part of the contract, not just the product itself.
        let c_init = Tensor::randn(&[m.max(1), n.max(1)], 0.0, 1.0, &mut rng);
        let c_init = &c_init.data()[..m * n];
        let (ad, bd) = (&a.data()[..m * k], &b.data()[..k * n]);

        let mut want = c_init.to_vec();
        naive_gemm(m, k, n, ad, bd, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm(m, k, n, ad, bd, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm {m}x{k}x{n} @ {threads} threads");
        }

        // Transposed-operand variants, same shapes: `a` as [k, m] for
        // aᵀb, `b` as [n, k] for abᵀ.
        let at_full = Tensor::randn(&[k.max(1), m.max(1)], 0.0, 1.0, &mut rng).into_vec();
        let at = &at_full[..k * m];
        let mut want = c_init.to_vec();
        naive_gemm_at_b(m, k, n, at, bd, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm_at_b(m, k, n, at, bd, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm_at_b {m}x{k}x{n} @ {threads} threads");
        }

        let bt_full = Tensor::randn(&[n.max(1), k.max(1)], 0.0, 1.0, &mut rng).into_vec();
        let bt = &bt_full[..n * k];
        let mut want = c_init.to_vec();
        naive_gemm_a_bt(m, k, n, ad, bt, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm_a_bt(m, k, n, ad, bt, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm_a_bt {m}x{k}x{n} @ {threads} threads");
        }
    }
}

/// Regression for the old `aik == 0.0` fast-skip in the serial GEMM: a
/// zero left operand must still multiply the right operand, because
/// `0 · NaN = NaN` and `0 · ∞ = NaN` — TrainGuard's divergence
/// detection relies on non-finite values propagating through every
/// kernel instead of being silently filtered.
#[test]
fn zero_rows_do_not_mask_poisoned_operands() {
    let _gate = gate();
    // Big enough for the packed path, with k past one k-block, and a
    // small-path shape too — the skip must exist on neither.
    for (m, k, n) in [(2usize, 3usize, 4usize), (48, 300, 40)] {
        let a = vec![0.0f32; m * k];
        let mut rng = SeededRng::new(0xBAD);
        let mut b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng).into_vec();
        // Poison one full b row: every output column sees a NaN term.
        for v in &mut b[n..2 * n] {
            *v = f32::NAN;
        }
        for threads in [1, 4] {
            let mut c = vec![0.0f32; m * n];
            at_threads(threads, || gemm(m, k, n, &a, &b, &mut c));
            assert!(
                c.iter().all(|v| v.is_nan()),
                "0·NaN was dropped ({m}x{k}x{n} @ {threads} threads)"
            );
        }
    }
}

/// Every personality conv geometry (MNIST and CIFAR-10) at native input
/// size and at the Tiny scale's 12×12, as `(label, geometry, out
/// channels)`. At 12×12 the Caffe-MNIST and Torch-MNIST second convs get
/// a 5×5 kernel over a 4×4 and a 3×3 input: the kernel overhangs the
/// image.
fn personality_conv_geometries() -> Vec<(String, Conv2dGeometry, usize)> {
    let mut geos = Vec::new();
    for fw in FrameworkKind::ALL {
        for ds in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let spec = arch_defaults(fw, ds);
            for size in [ds.native_size(), 12] {
                for (i, (geo, oc)) in
                    spec.conv_geometries((ds.channels(), size, size)).into_iter().enumerate()
                {
                    geos.push((format!("{}/conv{} @{size}", spec.name, i + 1), geo, oc));
                }
            }
        }
    }
    geos
}

fn conv_layer(geo: &Conv2dGeometry, oc: usize, rng: &mut SeededRng) -> Conv2d {
    assert_eq!(geo.kernel_h, geo.kernel_w, "Conv2d kernels are square");
    Conv2d::new(geo.in_channels, oc, geo.kernel_h, geo.stride, geo.pad, Initializer::Xavier, rng)
}

/// The fused convolution forward must be bitwise-transparent: for every
/// personality conv geometry at native and Tiny input size, the fused
/// `Conv2d::forward` equals the materialized im2col+GEMM oracle, serial
/// and at 4 threads.
#[test]
fn fused_conv_forward_is_bitwise_transparent_for_all_personalities() {
    let _gate = gate();
    let mut rng = SeededRng::new(0xF5ED);
    const BATCH: usize = 3;
    let geos = personality_conv_geometries();
    assert!(geos.iter().any(|(_, g, _)| g.kernel_h > g.in_h + 2 * g.pad), "no overhang case");
    for (label, geo, oc) in geos {
        let mut conv = conv_layer(&geo, oc, &mut rng);
        let x = Tensor::randn(&[BATCH, geo.in_channels, geo.in_h, geo.in_w], 0.0, 1.0, &mut rng);
        let want = bits(conv.forward_materialized(&x).data());
        for threads in [1, 4] {
            let got = at_threads(threads, || conv.forward(&x, false));
            assert_eq!(bits(got.data()), want, "{label} fused != materialized @ {threads} threads");
        }
    }
}

/// Gradients of a conv layer: input, weight, bias.
#[derive(Clone)]
struct ConvGrads {
    input: Vec<f32>,
    weight: Vec<f32>,
    bias: Vec<f32>,
}

/// The materialized backward, spelled out per sample: the input
/// gradient is `Wᵀ @ grad_out` into a zeroed patch matrix (`gemm_at_b`)
/// scattered by `col2im` into a zeroed image; the weight gradient is
/// `grad_out @ im2col(x)ᵀ` (`gemm_a_bt`) into a zeroed staging row whose
/// weight and bias parts are then added to the running gradients, one
/// sample at a time in ascending order.
fn materialized_conv_backward(
    geo: &Conv2dGeometry,
    weight: &[f32],
    x: &[f32],
    grad_out: &[f32],
    running: &ConvGrads,
) -> ConvGrads {
    let (patch, plane) = (geo.patch_len(), geo.out_plane());
    let oc = weight.len() / patch;
    let sample_in = geo.in_channels * geo.in_h * geo.in_w;
    let mut grads = ConvGrads {
        input: vec![0.0; x.len()],
        weight: running.weight.clone(),
        bias: running.bias.clone(),
    };
    let mut cols = vec![0.0f32; patch * plane];
    for (s, gout) in grad_out.chunks(oc * plane).enumerate() {
        cols.fill(0.0);
        gemm_at_b(patch, oc, plane, weight, gout, &mut cols);
        col2im(geo, &cols, &mut grads.input[s * sample_in..(s + 1) * sample_in]);

        im2col(geo, &x[s * sample_in..(s + 1) * sample_in], &mut cols);
        let mut w_part = vec![0.0f32; oc * patch];
        gemm_a_bt(oc, plane, patch, gout, &cols, &mut w_part);
        for (g, p) in grads.weight.iter_mut().zip(&w_part) {
            *g += p;
        }
        for (g, row) in grads.bias.iter_mut().zip(gout.chunks(plane)) {
            *g += row.iter().sum::<f32>();
        }
    }
    grads
}

/// Runs `pass` (one of `layer`'s backward methods, returning the input
/// gradient it computed, if any) at `threads` from the `running` weight
/// and bias gradients (a forward on `x` first, to cache the input).
fn layer_backward(
    layer: &mut dyn Layer,
    x: &Tensor,
    running: &ConvGrads,
    threads: usize,
    pass: impl FnOnce(&mut dyn Layer) -> Vec<f32>,
) -> ConvGrads {
    let input = at_threads(threads, || {
        layer.forward(x, true);
        for (param, init) in layer.params().into_iter().zip([&running.weight, &running.bias]) {
            param.grad.data_mut().copy_from_slice(init);
        }
        pass(layer)
    });
    let params = layer.params();
    ConvGrads {
        input,
        weight: params[0].grad.data().to_vec(),
        bias: params[1].grad.data().to_vec(),
    }
}

/// Bitwise equality, except that any two NaNs count as equal (the
/// payload of `NaN·NaN` depends on operand order, which the contract
/// does not fix).
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan())
}

/// The backward tests' batch. `conv_backward_data` runs each full group
/// of 8 samples through its lane kernel and the rest one at a time: at 1
/// thread this batch is 4 groups and 3 leftovers, and at 4 threads the
/// workers' runs are 9, 9, 9 and 8 samples, so both paths reach both
/// kernels (`reaches_both_data_kernels` checks it).
const BACKWARD_BATCH: usize = 35;

/// Runs `pass`, an input-gradient pass over `samples` samples, with
/// tracing armed, and checks its `conv_bwd_data` Kernel spans: they
/// cover every sample once, at least one covers a group of samples (the
/// lane kernel) and at least one a single sample (the per-sample
/// kernel).
fn reaches_both_data_kernels<R>(
    label: &str,
    threads: usize,
    per_sample: u64,
    samples: usize,
    pass: impl FnOnce() -> R,
) -> R {
    dlbench_trace::configure(TraceConfig::on());
    dlbench_trace::clear();
    let out = pass();
    let events = dlbench_trace::take_events();
    dlbench_trace::configure(TraceConfig::Off);
    let flops: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "conv_bwd_data")
        .filter_map(|e| match e.kind {
            EventKind::Span { flops, .. } => Some(flops),
            _ => None,
        })
        .collect();
    assert_eq!(
        flops.iter().sum::<u64>(),
        samples as u64 * per_sample,
        "{label} @ {threads} threads: conv_bwd_data spans {flops:?}"
    );
    let groups = flops.iter().filter(|&&f| f > per_sample).count();
    let singles = flops.iter().filter(|&&f| f == per_sample).count();
    assert!(
        groups > 0 && singles > 0,
        "{label} @ {threads} threads: {groups} sample groups and {singles} single samples"
    );
    out
}

/// Checks `layer`'s fused backward against the materialized oracle at 1
/// and 4 threads, starting from nonzero weight and bias gradients.
fn check_backward(
    label: &str,
    layer: &mut dyn Layer,
    geo: &Conv2dGeometry,
    weight: &[f32],
    x: &Tensor,
    grad_out: &Tensor,
    rng: &mut SeededRng,
) -> ConvGrads {
    let oc = weight.len() / geo.patch_len();
    let running = ConvGrads {
        input: Vec::new(),
        weight: Tensor::randn(&[weight.len()], 0.0, 1.0, rng).into_vec(),
        bias: Tensor::randn(&[oc], 0.0, 1.0, rng).into_vec(),
    };
    let want = materialized_conv_backward(geo, weight, x.data(), grad_out.data(), &running);
    // Each half computes its gradients with the full pass's bits and
    // leaves the others alone: `accumulate_grads` returns no input
    // gradient and `input_grad` adds nothing to the running ones.
    let params_only = ConvGrads { input: Vec::new(), ..want.clone() };
    let input_only = ConvGrads { input: want.input.clone(), ..running.clone() };
    let per_sample = 2 * (oc * geo.patch_len() * geo.out_plane()) as u64;
    for threads in [1, 4] {
        for (pass, got, want) in [
            (
                "backward",
                layer_backward(layer, x, &running, threads, |l| l.backward(grad_out).into_vec()),
                &want,
            ),
            (
                "accumulate_grads",
                layer_backward(layer, x, &running, threads, |l| {
                    l.accumulate_grads(grad_out);
                    Vec::new()
                }),
                &params_only,
            ),
            (
                "input_grad",
                reaches_both_data_kernels(label, threads, per_sample, x.shape()[0], || {
                    layer_backward(layer, x, &running, threads, |l| {
                        l.input_grad(grad_out).into_vec()
                    })
                }),
                &input_only,
            ),
        ] {
            for (what, g, w) in [
                ("input", &got.input, &want.input),
                ("weight", &got.weight, &want.weight),
                ("bias", &got.bias, &want.bias),
            ] {
                assert!(
                    same_bits(g, w),
                    "{label}: fused {pass} {what} gradient != materialized @ {threads} threads"
                );
            }
        }
    }
    want
}

/// The fused convolution backward must be bitwise-transparent too: for
/// every personality conv geometry at native and Tiny input size, plus a
/// strided padded geometry, a 1×1 kernel and every IMDB conv-bank
/// branch, `backward`'s input, weight and bias gradients equal the
/// materialized oracle's, serial and at 4 threads, accumulated onto
/// nonzero gradients already present. So do the gradients each half
/// computes (`accumulate_grads`, `input_grad`), and neither touches the
/// other's. The batch runs the input gradient through both of its
/// kernels, sample groups and single samples.
#[test]
fn fused_conv_backward_is_bitwise_transparent_for_all_personalities() {
    let _gate = gate();
    let mut rng = SeededRng::new(0xB4CC);
    let geo = |c, hw, k, stride, pad| Conv2dGeometry {
        in_channels: c,
        in_h: hw,
        in_w: hw,
        kernel_h: k,
        kernel_w: k,
        stride,
        pad,
    };
    let mut cases = personality_conv_geometries();
    cases.push(("stride 2, pad 1".into(), geo(3, 11, 3, 2, 1), 6));
    cases.push(("1x1 kernel".into(), geo(5, 7, 1, 1, 0), 4));
    for (label, geo, oc) in cases {
        let mut conv = conv_layer(&geo, oc, &mut rng);
        let x = Tensor::randn(
            &[BACKWARD_BATCH, geo.in_channels, geo.in_h, geo.in_w],
            0.0,
            1.0,
            &mut rng,
        );
        let grad_out =
            Tensor::randn(&[BACKWARD_BATCH, oc, geo.out_h(), geo.out_w()], 0.0, 1.0, &mut rng);
        let weight = conv.weight().data().to_vec();
        check_backward(&label, &mut conv, &geo, &weight, &x, &grad_out, &mut rng);
    }

    let ds = DatasetKind::Imdb;
    for fw in FrameworkKind::ALL {
        let spec = arch_defaults(fw, ds);
        for (geo, filters) in spec.conv_geometries((ds.channels(), ds.native_size(), 1)) {
            let mut conv =
                Conv1d::new(filters, geo.kernel_h, geo.in_w, Initializer::Xavier, &mut rng);
            assert_eq!(conv.geometry(geo.in_h), geo);
            let x = Tensor::randn(&[BACKWARD_BATCH, 1, geo.in_h, geo.in_w], 0.0, 1.0, &mut rng);
            let grad_out =
                Tensor::randn(&[BACKWARD_BATCH, filters, geo.out_h(), 1], 0.0, 1.0, &mut rng);
            let weight = conv.weight().data().to_vec();
            let label = format!("{}/conv1d w{}", spec.name, geo.kernel_h);
            check_backward(&label, &mut conv, &geo, &weight, &x, &grad_out, &mut rng);
        }
    }
}

/// `0·NaN = NaN` and `0·∞ = NaN` must reach the fused backward's
/// gradients exactly where the materialized oracle puts them (as in
/// `zero_rows_do_not_mask_poisoned_operands`): a zero output gradient
/// against a poisoned input still poisons the weight gradient, and a
/// poisoned weight still poisons the input gradient. An infinite output
/// gradient reaches both gradients of its sample.
#[test]
fn fused_conv_backward_propagates_non_finite_operands() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x0BAD);
    let geo = Conv2dGeometry {
        in_channels: 2,
        in_h: 12,
        in_w: 12,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        pad: 2,
    };
    let (oc, batch) = (8, BACKWARD_BATCH);
    let mut conv = conv_layer(&geo, oc, &mut rng);
    let mut x = Tensor::randn(&[batch, 2, 12, 12], 0.0, 1.0, &mut rng);
    x.data_mut()[12 * 5 + 7] = f32::NAN;
    x.data_mut()[288 + 144 + 12 * 11] = f32::INFINITY;
    // Zero output gradients but one, of sample 1: the poisoned samples
    // are inside the first group of the lane kernel.
    let mut grad_out = Tensor::zeros(&[batch, oc, 12, 12]);
    grad_out.data_mut()[oc * 144 + 3 * 144 + 12 * 6 + 5] = f32::INFINITY;
    // Poison one weight tap of output channel 0.
    conv.params()[0].value.data_mut()[3] = f32::NAN;
    let weight = conv.weight().data().to_vec();
    let want = check_backward("non-finite", &mut conv, &geo, &weight, &x, &grad_out, &mut rng);
    assert!(want.weight.iter().any(|v| v.is_nan()), "oracle weight gradient not poisoned");
    assert!(want.input.iter().any(|v| v.is_nan()), "oracle input gradient not poisoned");
    assert!(want.input[288..576].iter().any(|v| v.is_infinite()), "∞ did not reach sample 1");
    assert!(want.weight.iter().any(|v| v.is_finite()), "poison spread everywhere");
}

/// `gemm_i8` sums each `KC`-deep slab in an f32 tile; the result must
/// still be the exact i32 triple loop, into a nonzero destination, on
/// every shape, across slab boundaries (k = 255, 256, 257, 513) and at
/// the worst cases for exactness (every operand −128 or 127, k = 4096).
#[test]
fn gemm_i8_matches_naive_i32_reference_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x1A8);
    let mut check = |m: usize, k: usize, n: usize, a: &[i8], b: &[i8]| {
        let c_init: Vec<i32> = (0..m * n).map(|_| rng.index(2001) as i32 - 1000).collect();
        let mut want = c_init.clone();
        naive_gemm_i8(m, k, n, a, b, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.clone();
            at_threads(threads, || gemm_i8(m, k, n, a, b, &mut got));
            assert_eq!(got, want, "gemm_i8 {m}x{k}x{n} @ {threads} threads");
        }
    };
    let mut operands = SeededRng::new(0x1A9);
    // Slab-edge depths, plus the batch-1 serving shape (one row takes
    // the loop-nest path, not the packed one).
    let extra = [(37, 255, 29), (37, 256, 29), (37, 257, 29), (37, 513, 29), (1, 800, 500)];
    for &(m, k, n) in SHAPES.iter().chain(&extra) {
        let a = random_i8(m * k, &mut operands);
        let b = random_i8(k * n, &mut operands);
        check(m, k, n, &a, &b);
    }
    // −128 maximizes every slab's partial sums (2²² at KC = 256); 127
    // makes every product odd, so a sum carried across slabs in f32
    // would round once it passes 2²⁴.
    let (m, k, n) = (8, 4096, 9);
    for v in [-128i8, 127] {
        check(m, k, n, &vec![v; m * k], &vec![v; k * n]);
    }
}

/// Input quantizer for N(0, 1) test activations: about ±4 across the
/// i8 range, with a nonzero zero point so padded taps are not zeros.
const ACT_SCALE: f32 = 8.0 / 255.0;
const ACT_ZERO_POINT: i8 = -7;

/// The materialized int8 lowering of one sample through one quantized
/// conv: `im2col_i8` with zero-point padding, the naive i32 GEMM, then
/// the layer's requantization `s·(acc − z·Σw) + bias` per output row.
fn materialized_qconv_sample(
    geo: &Conv2dGeometry,
    weight: &[i8],
    weight_scale: f32,
    bias: &[f32],
    xq: &[i8],
) -> Vec<Vec<f32>> {
    let (patch, plane) = (geo.patch_len(), geo.out_plane());
    let mut cols = vec![0i8; patch * plane];
    im2col_i8(geo, ACT_ZERO_POINT, xq, &mut cols);
    let oc = bias.len();
    let mut acc = vec![0i32; oc * plane];
    naive_gemm_i8(oc, patch, plane, weight, &cols, &mut acc);
    let s = ACT_SCALE * weight_scale;
    (0..oc)
        .map(|o| {
            let wsum: i32 = weight[o * patch..(o + 1) * patch].iter().map(|&v| v as i32).sum();
            let corr = ACT_ZERO_POINT as i32 * wsum;
            acc[o * plane..(o + 1) * plane]
                .iter()
                .map(|&a| s * (a - corr) as f32 + bias[o])
                .collect()
        })
        .collect()
}

fn quantized_input(x: &Tensor) -> Vec<i8> {
    let mut xq = vec![0i8; x.len()];
    quantize_i8(x.data(), ACT_SCALE, ACT_ZERO_POINT, &mut xq);
    xq
}

/// The fused int8 conv forward must be bitwise-transparent: for every
/// personality conv geometry (MNIST and CIFAR-10), `QConv2d::forward`
/// equals `im2col_i8` + the naive i32 GEMM, serial and at 4 threads.
#[test]
fn fused_qconv2d_forward_matches_materialized_int8_lowering() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x0C8);
    const BATCH: usize = 2;
    for fw in FrameworkKind::ALL {
        for ds in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let spec = arch_defaults(fw, ds);
            let input = (ds.channels(), ds.native_size(), ds.native_size());
            for (i, (geo, oc)) in spec.conv_geometries(input).iter().enumerate() {
                let conv = Conv2d::new(
                    geo.in_channels,
                    *oc,
                    geo.kernel_h,
                    geo.stride,
                    geo.pad,
                    Initializer::Xavier,
                    &mut rng,
                );
                let q = QConv2d::from_fp32(&conv, ACT_SCALE, ACT_ZERO_POINT);
                let x = Tensor::randn(
                    &[BATCH, geo.in_channels, geo.in_h, geo.in_w],
                    0.0,
                    1.0,
                    &mut rng,
                );
                let sample_in = geo.in_channels * geo.in_h * geo.in_w;
                let want: Vec<f32> = quantized_input(&x)
                    .chunks(sample_in)
                    .flat_map(|xq| {
                        materialized_qconv_sample(
                            geo,
                            q.weight().data(),
                            q.weight().scale,
                            q.bias(),
                            xq,
                        )
                    })
                    .flatten()
                    .collect();
                for threads in [1, 4] {
                    let got = at_threads(threads, || q.forward(&x));
                    assert_eq!(
                        bits(got.data()),
                        bits(&want),
                        "{}/conv{} int8 fused != materialized @ {threads} threads",
                        spec.name,
                        i + 1
                    );
                }
            }
        }
    }
}

/// Same gate for every IMDB conv bank: `QConv1dBank::forward` equals
/// the per-branch materialized lowering followed by max-over-time
/// (strict `>`, earliest time step wins), serial and at 4 threads.
#[test]
fn fused_qconv1d_bank_forward_matches_materialized_int8_lowering() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x1DB);
    const BATCH: usize = 2;
    let ds = DatasetKind::Imdb;
    for fw in FrameworkKind::ALL {
        let spec = arch_defaults(fw, ds);
        let geos = spec.conv_geometries((ds.channels(), ds.native_size(), 1));
        let (filters, dim) = (geos[0].1, geos[0].0.in_w);
        let widths: Vec<usize> = geos.iter().map(|(g, _)| g.kernel_h).collect();
        let bank = Conv1dBank::new(filters, &widths, dim, Initializer::Xavier, &mut rng);
        let q = QConv1dBank::from_fp32(&bank, ACT_SCALE, ACT_ZERO_POINT);
        let x = Tensor::randn(&[BATCH, 1, ds.native_size(), dim], 0.0, 1.0, &mut rng);
        let mut want = Vec::new();
        for xq in quantized_input(&x).chunks(ds.native_size() * dim) {
            for ((geo, _), (weight, bias)) in geos.iter().zip(q.branch_parts()) {
                for row in materialized_qconv_sample(geo, weight.data(), weight.scale, bias, xq) {
                    let mut best = row[0];
                    for &v in &row[1..] {
                        if v > best {
                            best = v;
                        }
                    }
                    want.push(best);
                }
            }
        }
        for threads in [1, 4] {
            let got = at_threads(threads, || q.forward(&x));
            assert_eq!(
                bits(got.data()),
                bits(&want),
                "{} int8 fused bank != materialized @ {threads} threads",
                spec.name
            );
        }
    }
}
