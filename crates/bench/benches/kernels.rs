//! Kernel throughput harness and CI perf-regression gate.
//!
//! Every record carries achieved GFLOP/s next to its timing, and the
//! binary itself enforces the regression gate: measures the three GEMM
//! variants, the int8 inference kernels (`gemm_i8`, `quantize_i8`,
//! `dequantize_i8`), `im2col`, the convolution forward of every
//! personality conv layer in fp32 and int8 and its fp32 backward, and
//! the text-workload layers (embedding lookup, 3/4/5-width conv1d banks
//! forward in fp32 and int8 and backward in fp32), writes
//! `target/dlbench-reports/BENCH_kernels.json`, and — when
//! `DLBENCH_PERF_BASELINE` points at a committed baseline JSON — exits
//! non-zero if any kernel runs >15% slower than the baseline
//! (`scripts/check.sh` wires this up against
//! `crates/bench/baselines/kernels.json`). `--quick`/`--test` runs one
//! iteration per kernel and skips the gate — single iterations are too
//! noisy to judge.

use std::path::Path;

use dlbench_bench::{
    gate_failures, load_baseline, merge_best, Harness, BENCH_SEED, REGRESSION_TOLERANCE,
};
use dlbench_frameworks::{arch_defaults, FrameworkKind};
use dlbench_nn::{Conv1dBank, Conv2d, Embedding, Initializer, Layer};
use dlbench_quant::{QConv1dBank, QConv2d};
use dlbench_tensor::{
    dequantize_i8, gemm, gemm_a_bt, gemm_at_b, gemm_i8, im2col, quantize_i8, Conv2dGeometry,
    SeededRng, Tensor,
};

/// Total measurement passes the gate may take before judging: a shared
/// host can stall any single pass well past the tolerance, so the gate
/// re-runs the suite and scores each kernel on its best pass — "can the
/// kernel still run this fast" is the regression question, and the
/// minimum over passes answers it without loosening the 15% bar.
const MAX_GATE_PASSES: usize = 3;

fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

fn bench_gemm_variants(h: &mut Harness, rng: &mut SeededRng) {
    let n = 128;
    let a = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let b = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let mut c = vec![0.0f32; n * n];
    let flops = gemm_flops(n, n, n);
    h.bench("gemm/128x128x128", flops, || {
        c.fill(0.0);
        gemm(n, n, n, a.data(), b.data(), &mut c);
    });
    h.bench("gemm_at_b/128x128x128", flops, || {
        c.fill(0.0);
        gemm_at_b(n, n, n, a.data(), b.data(), &mut c);
    });
    h.bench("gemm_a_bt/128x128x128", flops, || {
        c.fill(0.0);
        gemm_a_bt(n, n, n, a.data(), b.data(), &mut c);
    });

    // The TF-MNIST fc1 shape: [batch 50] 3136 -> 1024, the largest
    // single GEMM any personality issues.
    let (m, k, nn) = (50, 3136, 1024);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, rng);
    let b = Tensor::randn(&[k, nn], 0.0, 0.1, rng);
    let mut c = vec![0.0f32; m * nn];
    h.bench("gemm/tf_mnist_fc1", gemm_flops(m, k, nn), || {
        c.fill(0.0);
        gemm(m, k, nn, a.data(), b.data(), &mut c);
    });
}

/// The int8 inference kernels behind `dlbench-quant`: the i32-accumulate
/// GEMM at the same shapes as the fp32 variants plus the
/// quantize/dequantize conversions at a conv-activation-sized plane.
fn bench_quant_kernels(h: &mut Harness, rng: &mut SeededRng) {
    let n = 128;
    let af = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let bf = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let mut a = vec![0i8; n * n];
    let mut b = vec![0i8; n * n];
    quantize_i8(af.data(), 1.0 / 127.0, 0, &mut a);
    quantize_i8(bf.data(), 1.0 / 127.0, 0, &mut b);
    let mut c = vec![0i32; n * n];
    h.bench("gemm_i8/128x128x128", gemm_flops(n, n, n), || {
        c.fill(0);
        gemm_i8(n, n, n, &a, &b, &mut c);
    });

    // The TF-MNIST fc1 shape, matching `gemm/tf_mnist_fc1` above so the
    // fp32/int8 kernel ratio can be read straight off the report.
    let (m, k, nn) = (50, 3136, 1024);
    let af = Tensor::randn(&[m, k], 0.0, 1.0, rng);
    let bf = Tensor::randn(&[k, nn], 0.0, 0.1, rng);
    let mut a = vec![0i8; m * k];
    let mut b = vec![0i8; k * nn];
    quantize_i8(af.data(), 1.0 / 127.0, 0, &mut a);
    quantize_i8(bf.data(), 1.0 / 64.0, 0, &mut b);
    let mut c = vec![0i32; m * nn];
    h.bench("gemm_i8/tf_mnist_fc1", gemm_flops(m, k, nn), || {
        c.fill(0);
        gemm_i8(m, k, nn, &a, &b, &mut c);
    });

    // Classifier shapes on both sides of `gemm_i8`'s path choice, over
    // leading slices of the operands above: Caffe-MNIST fc1 at batch 1
    // (the serving shape; one row runs the i32 loop nest) and
    // TF-CIFAR-10 fc3 at batch 4 (four rows pack, though the product is
    // tiny).
    for (m, k, nn) in [(1, 800, 500), (4, 192, 10)] {
        let (a, b, c) = (&a[..m * k], &b[..k * nn], &mut c[..m * nn]);
        h.bench(format!("gemm_i8/{m}x{k}x{nn}"), gemm_flops(m, k, nn), || {
            c.fill(0);
            gemm_i8(m, k, nn, a, b, c);
        });
    }

    // Activation-plane-sized conversions (batch 50 of a 3136-feature
    // activation — the tensor each quantized layer boundary converts).
    let plane = 50 * 3136;
    let xf = Tensor::randn(&[plane], 0.0, 1.0, rng);
    let mut xq = vec![0i8; plane];
    let mut xd = vec![0.0f32; plane];
    h.bench("quantize_i8/50x3136", 2 * plane as u64, || {
        quantize_i8(xf.data(), 0.05, -12, &mut xq);
    });
    quantize_i8(xf.data(), 0.05, -12, &mut xq);
    h.bench("dequantize_i8/50x3136", 2 * plane as u64, || {
        dequantize_i8(&xq, 0.05, -12, &mut xd);
    });
}

fn bench_im2col(h: &mut Harness, rng: &mut SeededRng) {
    // Caffe LeNet conv1 geometry at native MNIST size.
    let geo = Conv2dGeometry {
        in_channels: 1,
        in_h: 28,
        in_w: 28,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        pad: 0,
    };
    let input = Tensor::randn(&[1, 28 * 28], 0.0, 1.0, rng);
    let mut cols = vec![0.0f32; geo.patch_len() * geo.out_plane()];
    h.bench("im2col/lenet_conv1", 0, || im2col(&geo, input.data(), &mut cols));
}

/// Input quantizer for the int8 layer benches: N(0, 1) activations
/// spread over about ±4 across the i8 range.
const ACT_SCALE: f32 = 8.0 / 255.0;

/// Forward of every personality conv layer at paper scale (batch 2),
/// through the real `Conv2d` and `QConv2d` layers so the fused paths,
/// their packing and the arena are all on the measured path, and the
/// fp32 layer's backward (input, weight and bias gradients: twice the
/// forward's FLOPs).
fn bench_personality_convs(h: &mut Harness, rng: &mut SeededRng) {
    use dlbench_data::DatasetKind;
    const BATCH: usize = 2;
    for fw in FrameworkKind::ALL {
        for ds in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let spec = arch_defaults(fw, ds);
            let input = (ds.channels(), ds.native_size(), ds.native_size());
            for (i, (geo, oc)) in spec.conv_geometries(input).iter().enumerate() {
                let mut conv = Conv2d::new(
                    geo.in_channels,
                    *oc,
                    geo.kernel_h,
                    geo.stride,
                    geo.pad,
                    Initializer::Xavier,
                    rng,
                );
                let x = Tensor::randn(&[BATCH, geo.in_channels, geo.in_h, geo.in_w], 0.0, 1.0, rng);
                let flops = (BATCH as u64)
                    * 2
                    * (*oc as u64)
                    * (geo.patch_len() as u64)
                    * (geo.out_plane() as u64);
                h.bench(format!("conv_fwd/{}/conv{}", spec.name, i + 1), flops, || {
                    conv.forward(&x, false)
                });
                let q = QConv2d::from_fp32(&conv, ACT_SCALE, 0);
                h.bench(format!("qconv_fwd/{}/conv{}", spec.name, i + 1), flops, || q.forward(&x));
                let g = Tensor::randn(&conv.output_shape(x.shape()), 0.0, 1.0, rng);
                conv.forward(&x, true);
                h.bench(format!("conv_bwd/{}/conv{}", spec.name, i + 1), 2 * flops, || {
                    conv.backward(&g)
                });
            }
        }
    }
}

/// The text-workload layers at their personality shapes (batch 2,
/// native 256-token sequences): the embedding lookup is pure data
/// movement (gather), the 3/4/5-width conv bank rides the fused
/// convolution — together they are the text forward's hot loop — and
/// the bank's backward is the text training step's.
fn bench_text_layers(h: &mut Harness, rng: &mut SeededRng) {
    const BATCH: usize = 2;
    let len = dlbench_data::DatasetKind::Imdb.native_size();
    let tokens: Vec<f32> =
        (0..BATCH * len).map(|_| rng.index(dlbench_text::VOCAB) as f32).collect();
    let x = Tensor::from_vec(&[BATCH, 1, len, 1], tokens).unwrap();

    // TF-IMDB embedding width; Caffe/Torch use 64 (covered by the bank
    // benches below reading an embedded sequence of their own width).
    let mut emb = Embedding::new(dlbench_text::VOCAB, 128, Initializer::Xavier, rng);
    h.bench("embedding_lookup/imdb_len256_dim128", 0, || emb.forward(&x, false));

    // One conv bank per personality: (filters, embed dim) from
    // `arch_defaults(fw, Imdb)`, widths 3/4/5 everywhere.
    for (name, filters, dim) in
        [("TF-IMDB", 128usize, 128usize), ("Caffe-IMDB", 100, 64), ("Torch-IMDB", 64, 64)]
    {
        let widths = [3usize, 4, 5];
        let mut bank = Conv1dBank::new(filters, &widths, dim, Initializer::Xavier, rng);
        let embedded = Tensor::randn(&[BATCH, 1, len, dim], 0.0, 1.0, rng);
        let flops: u64 =
            widths.iter().map(|w| 2 * (BATCH * filters * (w * dim) * (len - w + 1)) as u64).sum();
        h.bench(format!("conv1d_fwd/{name}"), flops, || bank.forward(&embedded, false));
        let q = QConv1dBank::from_fp32(&bank, ACT_SCALE, 0);
        h.bench(format!("qconv1d_fwd/{name}"), flops, || q.forward(&embedded));
        let g = Tensor::randn(&[BATCH, bank.out_features()], 0.0, 1.0, rng);
        bank.forward(&embedded, true);
        h.bench(format!("conv1d_bwd/{name}"), 2 * flops, || bank.backward(&g));
    }
}

fn run_suite(h: &mut Harness, rng: &mut SeededRng) {
    bench_gemm_variants(h, rng);
    bench_quant_kernels(h, rng);
    bench_im2col(h, rng);
    bench_personality_convs(h, rng);
    bench_text_layers(h, rng);
}

fn main() {
    let mut h = Harness::from_args();
    let mut rng = SeededRng::new(BENCH_SEED);
    run_suite(&mut h, &mut rng);
    if h.records.is_empty() {
        return;
    }
    let baseline_path = std::env::var("DLBENCH_PERF_BASELINE").ok();
    let gate = baseline_path.as_deref().filter(|_| !h.args.quick).map(|path| {
        // A silent gate is no gate: a missing or malformed baseline fails.
        let baseline = load_baseline(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("perf gate: {e}");
            std::process::exit(1);
        });
        (path, baseline)
    });
    if let Some((_, baseline)) = &gate {
        let mut passes = 1;
        while !gate_failures(&h.records, baseline).is_empty() && passes < MAX_GATE_PASSES {
            passes += 1;
            eprintln!("perf gate: kernels over tolerance, re-measuring (pass {passes})");
            let mut retry = Harness::new(h.args.clone());
            run_suite(&mut retry, &mut rng);
            merge_best(&mut h.records, retry.records);
        }
    }
    h.write("kernels");
    match gate {
        Some((path, baseline)) => {
            let failures = gate_failures(&h.records, &baseline);
            if !failures.is_empty() {
                eprintln!("perf gate FAILED — kernels >15% slower than {path}:");
                for f in &failures {
                    eprintln!("{f}");
                }
                std::process::exit(1);
            }
            println!(
                "perf gate OK ({} kernels within {:.0}% of baseline)",
                h.records.len(),
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
        }
        None if baseline_path.is_some() => {
            println!("perf gate skipped (--quick single-iteration timings are too noisy)");
        }
        None => {}
    }
}
