//! Tracing overhead on the kernel hot path: the same GEMM and conv
//! workloads with the recorder disabled (the default, a relaxed atomic
//! load per span site) and enabled (per-thread ring-buffer writes).
//! `BENCH_trace.json` pins the disabled-mode cost — the whole point of
//! runtime-configured tracing is that shipping the instrumentation is
//! free when nobody is looking.

use std::hint::black_box;

use dlbench_bench::{Harness, BENCH_SEED};
use dlbench_tensor::{gemm, im2col, Conv2dGeometry, SeededRng, Tensor};
use dlbench_trace::TraceConfig;

fn bench_gemm_tracing(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    let n = 128usize;
    let a = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 0.0, 1.0, &mut rng);
    let mut out = vec![0.0f32; n * n];
    dlbench_trace::configure(TraceConfig::Off);
    h.bench("trace_gemm_128/tracing_off", 0, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        gemm(n, n, n, black_box(a.data()), black_box(b.data()), &mut out);
    });
    dlbench_trace::configure(TraceConfig::on());
    dlbench_trace::clear();
    h.bench("trace_gemm_128/tracing_on", 0, || {
        out.iter_mut().for_each(|v| *v = 0.0);
        gemm(n, n, n, black_box(a.data()), black_box(b.data()), &mut out);
    });
    dlbench_trace::configure(TraceConfig::Off);
    dlbench_trace::clear();
}

fn bench_im2col_tracing(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    // Caffe LeNet conv1 geometry: a small kernel, so per-call tracing
    // overhead is as visible as it ever gets on this hot path.
    let geo = Conv2dGeometry {
        in_channels: 1,
        in_h: 28,
        in_w: 28,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        pad: 0,
    };
    let input = Tensor::randn(&[1, 28 * 28], 0.0, 1.0, &mut rng);
    let mut cols = vec![0.0f32; geo.patch_len() * geo.out_plane()];
    dlbench_trace::configure(TraceConfig::Off);
    h.bench("trace_im2col_lenet_conv1/tracing_off", 0, || {
        im2col(&geo, black_box(input.data()), black_box(&mut cols))
    });
    dlbench_trace::configure(TraceConfig::on());
    dlbench_trace::clear();
    h.bench("trace_im2col_lenet_conv1/tracing_on", 0, || {
        im2col(&geo, black_box(input.data()), black_box(&mut cols))
    });
    dlbench_trace::configure(TraceConfig::Off);
    dlbench_trace::clear();
}

fn main() {
    let mut h = Harness::from_args();
    bench_gemm_tracing(&mut h);
    bench_im2col_tracing(&mut h);
    h.write("trace");
}
