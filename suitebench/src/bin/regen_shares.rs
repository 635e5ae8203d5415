//! Measures how the Tiny regeneration of Figures 1, 2, 8 and 9 and
//! Tables VIII and IX splits its time, and the share each part gets in
//! one `paper-tiny` operation, so the operation's mix can be checked
//! against the work it stands for.
//!
//! ```sh
//! cargo run --release --offline --manifest-path suitebench/Cargo.toml \
//!     --bin regen_shares -- [--threads N]
//! ```
//!
//! It runs the regeneration's parts one after another with the same
//! public calls the experiments make: each cell's `run_training`,
//! Figure 8's `fgsm_success_rates` and the JSMA campaign's
//! `jsma_success_matrix`. Then it runs the registry's regeneration
//! itself, to show the parts account for the whole. The operation's
//! column applies `paper-tiny`'s sizing (`src/paper_tiny.rs`): a cell
//! takes `round(planned / unit)` steps, Figure 8 one example, each JSMA
//! model two saliency iterations. It takes about 90 s at one thread.

use dlbench_adversarial::{fgsm_success_rates, jsma_success_matrix, FgsmConfig};
use dlbench_core::{experiments, registry::ExperimentId, BenchmarkRunner};
use dlbench_data::DatasetKind::{self, Cifar10, Mnist};
use dlbench_frameworks::FrameworkKind::{self, Caffe, TensorFlow, Torch};
use dlbench_frameworks::{trainer, DefaultSetting, Scale};
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 42;
const SCALE: Scale = Scale::Tiny;
const CELLS: [(FrameworkKind, FrameworkKind, DatasetKind); 8] = [
    (TensorFlow, TensorFlow, Mnist),
    (Caffe, Caffe, Mnist),
    (Torch, Torch, Mnist),
    (TensorFlow, TensorFlow, Cifar10),
    (Caffe, Caffe, Cifar10),
    (Torch, Torch, Cifar10),
    (TensorFlow, Caffe, Mnist),
    (Caffe, TensorFlow, Mnist),
];
const FGSM_CELLS: [usize; 2] = [0, 1];
const JSMA_CELLS: [usize; 4] = [0, 6, 7, 1];
/// JSMA saliency iterations per model in one operation.
const OP_JSMA_ITERATIONS: f64 = 2.0;
/// Source samples the Tiny campaign attacks per model.
const SOURCES: usize = 3;
const REGENERATION: [&str; 6] = ["fig_1", "fig_2", "fig_8", "fig_9", "table_viii", "table_ix"];

/// One part: its name, regeneration seconds, and seconds in one
/// operation.
type Part = (String, f64, f64);

fn main() -> ExitCode {
    let threads = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => Some(1),
        [flag, n] if flag == "--threads" => n.parse().ok().filter(|&n| n >= 1),
        _ => None,
    };
    let Some(threads) = threads else {
        eprintln!("usage: regen_shares [--threads N]");
        return ExitCode::FAILURE;
    };
    dlbench_tensor::par::set_threads(threads);

    let mut parts: Vec<Part> = Vec::new();
    let mut models = Vec::new();
    let mut planned = Vec::new();
    for (host, owner, dataset) in CELLS {
        let setting = DefaultSetting::new(owner, dataset);
        planned.push(trainer::planned_iterations(
            &setting.training(),
            setting.tuned_for,
            dataset,
            SCALE,
        ));
        let t = Instant::now();
        let out = trainer::run_training(host, setting, dataset, SCALE, SEED);
        let params = if owner == host { String::new() } else { format!("({})", owner.abbrev()) };
        let label = format!("train {}{params}-{}", host.abbrev(), dataset.name()).to_lowercase();
        parts.push((label, t.elapsed().as_secs_f64(), out.wall_train_seconds));
        models.push(out.model);
    }
    let unit = *planned.iter().min().expect("cells exist");
    for (part, &p) in parts.iter_mut().zip(&planned) {
        // Per-step time times the operation's steps.
        part.2 *= (p as f64 / unit as f64).round().max(1.0) / p as f64;
    }

    let (_, test) = trainer::generate_data(Mnist, SCALE, SEED);
    let fgsm = FgsmConfig { epsilon: experiments::FGSM_EPSILON, clamp: Some((0.0, 1.0)) };
    let t = Instant::now();
    let attacked: usize = FGSM_CELLS
        .iter()
        .map(|&c| {
            fgsm_success_rates(&mut models[c], &test.images, &test.labels, 10, &fgsm)
                .total_attempts()
        })
        .sum();
    let fgsm_s = t.elapsed().as_secs_f64();
    parts.push(("fgsm".into(), fgsm_s, fgsm_s / attacked.max(1) as f64));

    let sources: Vec<usize> =
        (0..test.len()).filter(|&i| test.labels[i] == 1).take(SOURCES).collect();
    let (images, labels) = test.gather(&sources);
    let (mut jsma_s, mut jsma_op_s) = (0.0, 0.0);
    for c in JSMA_CELLS {
        let t = Instant::now();
        let net = &mut models[c];
        let attempts = (0..labels.len())
            .filter(|&i| net.forward(&images.slice_batch(i), false).argmax_rows()[0] == 1)
            .count();
        let (_, mean_iterations) =
            jsma_success_matrix(net, &images, &labels, 1, 10, &experiments::jsma_config());
        let s = t.elapsed().as_secs_f64();
        let iterations = mean_iterations * (attempts * 9) as f64;
        jsma_s += s;
        jsma_op_s += s / iterations.max(1.0) * OP_JSMA_ITERATIONS;
    }
    parts.push(("jsma".into(), jsma_s, jsma_op_s));

    let t = Instant::now();
    let mut runner = BenchmarkRunner::new(SCALE, SEED);
    for key in REGENERATION {
        ExperimentId::from_key(key).expect("registered experiment").run(&mut runner);
    }
    let whole_s = t.elapsed().as_secs_f64();

    let regen_s: f64 = parts.iter().map(|p| p.1).sum();
    let op_s: f64 = parts.iter().map(|p| p.2).sum();
    println!("threads {threads}, seed {SEED}, Tiny scale, step unit {unit}");
    println!("{:<28} {:>10} {:>8} {:>10} {:>8}", "part", "regen s", "share", "op ms", "share");
    for (name, regen, op) in &parts {
        println!(
            "{name:<28} {regen:>10.3} {:>7.1}% {:>10.3} {:>7.1}%",
            100.0 * regen / regen_s,
            op * 1e3,
            100.0 * op / op_s
        );
    }
    println!("{:<28} {regen_s:>10.3} {:>8} {:>10.3}", "sum of parts", "", op_s * 1e3);
    println!("{:<28} {whole_s:>10.3}", "registry regeneration");
    ExitCode::SUCCESS
}
