//! Micro-benchmarks of the adversarial attack kernels.

use std::hint::black_box;

use dlbench_adversarial::{fgsm, jsma, FgsmConfig, JsmaConfig};
use dlbench_bench::{Harness, BENCH_SEED};
use dlbench_nn::{Conv2d, Flatten, Initializer, Linear, MaxPool2d, Network, Relu};
use dlbench_tensor::{SeededRng, Tensor};

fn small_mnist_net(rng: &mut SeededRng) -> Network {
    let mut net = Network::new("attack-bench");
    net.push(Conv2d::new(1, 8, 5, 1, 0, Initializer::Xavier, rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2, true));
    net.push(Flatten::new());
    net.push(Linear::new(8 * 6 * 6, 10, Initializer::Xavier, rng));
    net
}

fn bench_fgsm(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    let mut net = small_mnist_net(&mut rng);
    let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
    let config = FgsmConfig { epsilon: 0.1, clamp: Some((0.0, 1.0)) };
    h.bench("fgsm_single", 0, || fgsm(&mut net, black_box(&x), 3, &config));
}

fn bench_jsma(h: &mut Harness) {
    let mut rng = SeededRng::new(BENCH_SEED);
    let mut net = small_mnist_net(&mut rng);
    let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
    // Small distortion budget keeps the bench per-iteration shaped.
    let config = JsmaConfig { theta: 0.3, max_distortion: 0.05, clamp: (0.0, 1.0) };
    h.bench("jsma_budgeted", 0, || jsma(&mut net, black_box(&x), 7, &config));
}

fn main() {
    let mut h = Harness::from_args();
    bench_fgsm(&mut h);
    bench_jsma(&mut h);
    h.write("attacks");
}
