//! Serial-vs-parallel comparison of the hot kernels behind the paper's
//! timing columns: GEMM and the im2col convolution forward pass.
//!
//! Each shape is timed twice — once forced onto the serial path (inside
//! `par::run_as_worker`, which pins the effective worker count to 1)
//! and once on the configured thread pool — so the exported
//! `BENCH_parallel.json` records the realized speedup alongside the raw
//! ns/iter numbers. On a single-CPU host the two paths time within
//! noise of each other; the comparison is still worth recording because
//! the *results* are bit-identical either way (the determinism gate in
//! `tests/` asserts this), so any speedup read off this file is free.

use std::hint::black_box;

use dlbench_bench::{Harness, BENCH_SEED};
use dlbench_nn::{Conv2d, Initializer, Layer};
use dlbench_tensor::{gemm, par, SeededRng, Tensor};

/// Shapes large enough to clear `par::PAR_MIN_WORK` so the parallel
/// variant actually fans out.
const GEMM_SIZES: [usize; 2] = [128, 256];

fn bench_gemm_serial_vs_parallel(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    for &n in &GEMM_SIZES {
        let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];
        h.bench(format!("gemm/serial/{n}x{n}x{n}"), 0, || {
            par::run_as_worker(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm(n, n, n, black_box(a.data()), black_box(b.data()), &mut out);
            })
        });
        h.bench(format!("gemm/parallel/{n}x{n}x{n}"), 0, || {
            out.iter_mut().for_each(|v| *v = 0.0);
            gemm(n, n, n, black_box(a.data()), black_box(b.data()), &mut out);
        });
    }
}

fn bench_conv_serial_vs_parallel(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    // Caffe CIFAR conv1 geometry at batch 32: 3->32 channels, 5x5,
    // pad 2 — comfortably past the parallel work gate.
    let mut conv = Conv2d::new(3, 32, 5, 1, 2, Initializer::Xavier, &mut rng);
    let input = Tensor::randn(&[32, 3, 32, 32], 0.0, 1.0, &mut rng);
    h.bench("conv_forward/serial/b32_3x32x32", 0, || {
        par::run_as_worker(|| conv.forward(black_box(&input), false))
    });
    h.bench("conv_forward/parallel/b32_3x32x32", 0, || conv.forward(black_box(&input), false));
}

fn main() {
    let mut h = Harness::from_args();
    bench_gemm_serial_vs_parallel(&mut h);
    bench_conv_serial_vs_parallel(&mut h);
    h.write("parallel");
}
