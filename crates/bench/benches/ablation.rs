//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * execution-style profiles (graph-batched vs layer-wise vs eager) —
//!   the same workload costed under each framework profile;
//! * conv lowering: im2col+GEMM (the shipped path) vs a naive direct
//!   convolution reference.

use std::hint::black_box;

use dlbench_bench::{Harness, BENCH_SEED};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{DefaultSetting, FrameworkKind};
use dlbench_nn::{Conv2d, Initializer, Layer};
use dlbench_simtime::{devices, profiles, CostModel};
use dlbench_tensor::{SeededRng, Tensor};

/// Naive direct convolution (reference implementation for the im2col
/// ablation).
fn direct_conv(
    input: &Tensor,   // [N, C, H, W]
    weight: &Tensor,  // [OC, C, K, K]
    out: &mut Tensor, // [N, OC, H-K+1, W-K+1]
) {
    let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
    let (oc, k) = (weight.shape()[0], weight.shape()[2]);
    let (oh, ow) = (h - k + 1, w - k + 1);
    for s in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += input.at(&[s, ci, oy + ky, ox + kx])
                                    * weight.at(&[o, ci, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[s, o, oy, ox]) = acc;
                }
            }
        }
    }
}

fn bench_conv_lowering(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    let x = Tensor::randn(&[4, 8, 16, 16], 0.0, 1.0, &mut rng);
    let mut conv = Conv2d::new(8, 16, 5, 1, 0, Initializer::Xavier, &mut rng);
    let weight = conv.weight().clone();
    h.bench("conv_lowering/im2col_gemm", 0, || conv.forward(black_box(&x), false));
    let mut out = Tensor::zeros(&[4, 16, 12, 12]);
    h.bench("conv_lowering/naive_direct", 0, || {
        direct_conv(black_box(&x), black_box(&weight), &mut out);
        black_box(&out);
    });
}

fn bench_execution_styles(h: &mut Harness) {
    // Not a wall-clock bench: evaluates the *cost model* under the three
    // execution profiles for the same physical workload, verifying the
    // ablation direction (eager dispatch costs more than graph-batched).
    let spec = DefaultSetting::new(FrameworkKind::TensorFlow, DatasetKind::Mnist).arch();
    let cost = spec.paper_cost((1, 28, 28), 50);
    let gpu = devices::gtx_1080_ti();
    for (name, profile) in [
        ("graph_batched_tf", profiles::tensorflow()),
        ("layerwise_caffe", profiles::caffe()),
        ("eager_torch", profiles::torch()),
    ] {
        let model = CostModel::new(gpu.clone(), profile);
        h.bench(format!("execution_style_cost_model/{name}"), 0, || {
            model.train_iteration_seconds_batched(black_box(&cost), 50)
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_conv_lowering(&mut h);
    bench_execution_styles(&mut h);
    h.write("ablation");
}
