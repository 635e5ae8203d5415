//! Hyperparameter sensitivity sweeps (paper §II's discussion of batch
//! size and learning-rate interactions), run as a plain harness: prints
//! accuracy/time tables for a batch-size sweep and a learning-rate
//! sweep of the Caffe-MNIST configuration.
//!
//! `cargo bench --bench sweeps`

use dlbench_bench::BenchArgs;
use dlbench_data::{BatchIter, DatasetKind};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::SoftmaxCrossEntropy;
use dlbench_optim::{LrPolicy, Optimizer, Sgd};
use dlbench_tensor::SeededRng;
use dlbench_trace::Stopwatch;

fn sweep(base_lr: f32, batch_size: usize, iters: usize, seed: u64) -> (f32, f64) {
    let host = FrameworkKind::Caffe;
    let setting = DefaultSetting::new(host, DatasetKind::Mnist);
    let scale = Scale::Tiny;
    let (train, test) = trainer::generate_data(DatasetKind::Mnist, scale, seed);
    let mut rng = SeededRng::new(seed).fork(1);
    let size = scale.image_size(DatasetKind::Mnist);
    let mut model = trainer::effective_arch(host, &setting).build(
        (1, size, size),
        scale.width_mult(),
        host.initializer(),
        &mut rng,
    );
    let mut opt = Sgd::new(base_lr, 0.9, 5e-4, LrPolicy::Fixed);
    let mut batches = BatchIter::new(&train, batch_size, rng.fork(2));
    let mut loss = SoftmaxCrossEntropy::new();
    let started = Stopwatch::start();
    for it in 0..iters {
        let (images, labels) = batches.next_batch();
        let logits = model.forward(&images, true);
        let (l, _) = loss.forward(&logits, &labels);
        if !l.is_finite() {
            return (f32::NAN, started.elapsed_s());
        }
        model.zero_grads();
        model.backward(&loss.backward());
        opt.step(&mut model.params(), it);
    }
    let wall = started.elapsed_s();
    let means = vec![];
    let acc = trainer::evaluate(&mut model, &test, dlbench_data::Preprocessing::Raw01, &means);
    (acc, wall)
}

fn main() {
    if BenchArgs::from_env().listed("sweeps") {
        return;
    }
    println!("Batch-size sweep (Caffe-MNIST config, lr 0.01, 200 iterations)\n");
    println!("{:>6} {:>10} {:>10}", "batch", "acc (%)", "wall (s)");
    for batch in [4usize, 16, 64, 128] {
        let (acc, wall) = sweep(0.01, batch, 200, 7);
        println!("{:>6} {:>10.1} {:>10.2}", batch, acc * 100.0, wall);
    }

    println!("\nLearning-rate sweep (Caffe-MNIST config, batch 64, 200 iterations)\n");
    println!("{:>8} {:>10}", "lr", "acc (%)");
    for lr in [0.0005f32, 0.005, 0.05, 0.5, 2.0] {
        let (acc, _) = sweep(lr, 64, 200, 7);
        if acc.is_nan() {
            println!("{:>8} {:>10}", lr, "DIVERGED");
        } else {
            println!("{:>8} {:>10.1}", lr, acc * 100.0);
        }
    }
    println!(
        "\nPaper shape: moderate rates learn fastest; overly large rates fluctuate or diverge \
         (§II: 'if the learning rate is too large, the training process may not be sophisticated \
         enough and may suffer from fluctuation')."
    );

    println!("\nRegularizer ablation (extension — de-confounded Table IX follow-up)\n");
    let report = dlbench_core::extensions::regularizer_robustness(Scale::Tiny, 7);
    println!("{}", report.render());
}
