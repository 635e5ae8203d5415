//! Micro-benchmarks of layer forward/backward passes for the paper's
//! reference architectures.

use std::hint::black_box;

use dlbench_bench::{Harness, BENCH_SEED};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind};
use dlbench_nn::{Conv2d, Initializer, Layer, MaxPool2d, SoftmaxCrossEntropy};
use dlbench_tensor::{SeededRng, Tensor};

fn bench_conv_layer(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    // Caffe LeNet conv2: 20 -> 50 maps, 5x5, on 12x12 planes, batch 8.
    let mut conv = Conv2d::new(20, 50, 5, 1, 0, Initializer::Xavier, &mut rng);
    let x = Tensor::randn(&[8, 20, 12, 12], 0.0, 1.0, &mut rng);
    h.bench("conv2d_lenet2_fwd", 0, || conv.forward(black_box(&x), true));
    let y = conv.forward(&x, true);
    let g = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
    h.bench("conv2d_lenet2_bwd", 0, || {
        conv.zero_grads();
        conv.backward(black_box(&g))
    });
}

fn bench_pool_layer(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    let mut pool = MaxPool2d::new(3, 2, true);
    let x = Tensor::randn(&[8, 64, 32, 32], 0.0, 1.0, &mut rng);
    h.bench("maxpool3x2_fwd", 0, || pool.forward(black_box(&x), true));
}

fn bench_reference_network_step(h: &mut Harness) {
    // One full training step of each framework's MNIST reference net at
    // reduced size — the inner loop of every accuracy measurement.
    for fw in FrameworkKind::ALL {
        let setting = DefaultSetting::new(fw, DatasetKind::Mnist);
        let spec = trainer::effective_arch(fw, &setting);
        let mut rng = SeededRng::new(BENCH_SEED);
        let mut net = spec.build((1, 16, 16), 0.5, fw.initializer(), &mut rng);
        let x = Tensor::randn(&[8, 1, 16, 16], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        h.bench(format!("train_step_mnist16/{}", fw.name()), 0, || {
            let mut loss = SoftmaxCrossEntropy::new();
            let logits = net.forward(black_box(&x), true);
            loss.forward(&logits, &labels);
            net.zero_grads();
            net.backward(&loss.backward())
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_conv_layer(&mut h);
    bench_pool_layer(&mut h);
    bench_reference_network_step(&mut h);
    h.write("layers");
}
