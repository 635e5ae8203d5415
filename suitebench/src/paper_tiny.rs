//! `paper-tiny`: the paper's training and robustness work at Tiny
//! scale, as a fixed fraction of the work of regenerating Figures 1, 2,
//! 8 and 9 and Tables VIII and IX.
//!
//! That regeneration trains eight cells (the six own-default image
//! cells plus the JSMA study's TF-with-Caffe-parameters and
//! Caffe-with-TF-parameters MNIST cells), each for
//! `trainer::planned_iterations` steps, then runs FGSM over the MNIST
//! test set on two models and a JSMA campaign on four. One operation
//! here gives each cell `planned / unit` optimizer steps, where `unit`
//! is the smallest planned budget (300 at Tiny, so 1 or 5 steps),
//! stepped exactly as `trainer::run_training` steps them. So the cells'
//! shares of an operation are their shares of the regeneration's
//! training. The attacks are scaled by the same `1 / unit`: one FGSM
//! example and, on each JSMA model, one attack of two saliency
//! iterations. `src/bin/regen_shares.rs` measures the regeneration's
//! own split; `README.md` compares the two.

use crate::harness::{
    check_reference, cost_bytes, percentile, Args, Level, Outcome, Record, Setup, PASSES,
};
use crate::layers::span;
use crate::Passes;
use dlbench_adversarial::{fgsm, jsma, FgsmConfig, JsmaConfig};
use dlbench_data::{BatchIter, Dataset, DatasetKind, Preprocessing};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::{LayerCost, Network, SoftmaxCrossEntropy};
use dlbench_optim::Optimizer;

const SCALE: Scale = Scale::Tiny;

use DatasetKind::{Cifar10, Mnist};
use FrameworkKind::{Caffe, TensorFlow, Torch};

/// `(host, owner of the default setting, dataset)` of every cell the
/// regeneration trains.
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

/// Figure 8's FGSM models (TF and Caffe MNIST). The regeneration
/// attacks about 190 test samples in all, under one per operation.
const FGSM_CELLS: [usize; 2] = [0, 1];

/// The JSMA campaign's models: TF(TF), TF(Caffe), Caffe(TF),
/// Caffe(Caffe).
const JSMA_CELLS: [usize; 4] = [0, 6, 7, 1];

/// The campaign crafts this digit into every other class.
const SOURCE_DIGIT: usize = 1;

/// The campaign's source samples at Tiny scale: the first three test
/// samples of [`SOURCE_DIGIT`].
const SOURCES: usize = 3;

const WARMUP_ROUNDS: usize = 2;

/// The registry's FGSM ε.
const FGSM: FgsmConfig = FgsmConfig { epsilon: 0.15, clamp: Some((0.0, 1.0)) };

/// The registry's JSMA step with a budget of two saliency iterations on
/// a 12×12 input. The Tiny campaign spends about 25 iterations on each
/// of 27 attacks per model, about 700 per model; `1 / 300` of that is
/// 2.3.
const JSMA: JsmaConfig = JsmaConfig { theta: 0.30, max_distortion: 0.01, clamp: (0.0, 1.0) };

/// Losses at or above this mean the run diverged (the trainer's latch).
const DIVERGED_LOSS: f32 = 20.0;

/// One training cell.
struct Cell<'d> {
    label: String,
    model: Network,
    loss: SoftmaxCrossEntropy,
    optimizer: Box<dyn Optimizer>,
    batches: BatchIter<'d>,
    preprocessing: Preprocessing,
    channel_means: Vec<f32>,
    /// The trainer's iteration budget; the learning-rate schedule
    /// restarts after it, so a long run keeps training in range.
    planned: usize,
    /// Steps per operation.
    steps: usize,
    step: usize,
    step_ms: Vec<f64>,
    /// Cost of one full-size batch's training step.
    step_cost: LayerCost,
}

impl<'d> Cell<'d> {
    fn new(
        (host, owner, dataset): (FrameworkKind, FrameworkKind, DatasetKind),
        train: &'d Dataset,
        seed: u64,
    ) -> Self {
        let setting = DefaultSetting::new(owner, dataset);
        let config = setting.training();
        let planned = trainer::planned_iterations(&config, setting.tuned_for, dataset, SCALE);
        let weight_decay = trainer::effective_weight_decay(host, dataset, &config);
        let model = trainer::build_cell_model(host, &setting, dataset, SCALE, seed);
        let (c, h, w) = trainer::input_dims(dataset, SCALE.image_size(dataset));
        let params = if owner == host { String::new() } else { format!("({})", owner.abbrev()) };
        Cell {
            label: format!("{}{params}-{}", host.abbrev(), dataset.name()).to_lowercase(),
            step_cost: model.cost(&[config.batch_size, c, h, w]),
            model,
            loss: SoftmaxCrossEntropy::new(),
            optimizer: trainer::make_optimizer(&config, weight_decay, planned),
            batches: BatchIter::new(
                train,
                config.batch_size,
                trainer::batch_rng(host, &setting, seed),
            ),
            preprocessing: trainer::effective_preprocessing(host, &setting, dataset),
            channel_means: Preprocessing::channel_means(train),
            planned,
            steps: 0,
            step: 0,
            step_ms: Vec::new(),
        }
    }

    /// One training iteration; returns the loss and the batch size.
    fn step(&mut self) -> (f32, usize) {
        let (images, labels) = {
            let _s = span("data.batch");
            self.batches.next_batch()
        };
        let x = {
            let _s = span("data.preprocess");
            self.preprocessing.apply(&images, &self.channel_means)
        };
        let logits = {
            let _s = span("nn.forward");
            self.model.forward(&x, true)
        };
        let loss = {
            let _s = span("nn.loss");
            self.loss.forward(&logits, &labels).0
        };
        {
            let _s = span("nn.backward");
            self.model.zero_grads();
            self.model.backward(&self.loss.backward());
        }
        {
            let _s = span("optim.step");
            self.optimizer.step(&mut self.model.params(), self.step % self.planned);
        }
        self.step += 1;
        (loss, labels.len())
    }
}

/// What one operation produced: bit patterns of every cell's losses, the
/// FGSM prediction and each JSMA outcome.
#[derive(Debug, Clone, PartialEq)]
struct Round {
    losses: Vec<Vec<f32>>,
    fgsm_pred: usize,
    jsma: Vec<(bool, usize)>,
    samples: usize,
}

/// The attack inputs: the MNIST test set and its first [`SOURCES`]
/// samples of [`SOURCE_DIGIT`].
struct Targets {
    test: Dataset,
    sources: Vec<usize>,
}

fn round(cells: &mut [Cell<'_>], targets: &Targets, i: usize) -> Round {
    let mut samples = 0;
    let losses = cells
        .iter_mut()
        .map(|cell| {
            (0..cell.steps)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let (loss, batch) = cell.step();
                    cell.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    samples += batch;
                    loss
                })
                .collect()
        })
        .collect();
    let test = &targets.test;
    let (x, labels) = test.gather(&[i % test.len()]);
    let fgsm_pred = {
        let _s = span("adversarial.fgsm");
        fgsm(&mut cells[FGSM_CELLS[i % FGSM_CELLS.len()]].model, &x, labels[0], &FGSM)
            .adversarial_pred
    };
    let (source, _) = test.gather(&[targets.sources[i % targets.sources.len()]]);
    // Every class but the source, in turn.
    let target = (SOURCE_DIGIT + 1 + i % 9) % 10;
    let jsma = JSMA_CELLS
        .iter()
        .map(|&c| {
            let _s = span("adversarial.jsma");
            let outcome = jsma(&mut cells[c].model, &source, target, &JSMA);
            (outcome.success, outcome.iterations)
        })
        .collect();
    Round { losses, fgsm_pred, jsma, samples }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::new();
    let mut passes = Passes::new(args);
    // Per cell: label, step cost and every timed step.
    let mut steps: Vec<(String, LayerCost, Vec<f64>)> = Vec::new();
    for _ in 0..PASSES {
        passes.begin();
        setup.start();
        let (mnist_train, test) = trainer::generate_data(Mnist, SCALE, args.seed);
        let (cifar_train, _) = trainer::generate_data(Cifar10, SCALE, args.seed);
        let sources: Vec<usize> =
            (0..test.len()).filter(|&i| test.labels[i] == SOURCE_DIGIT).take(SOURCES).collect();
        if sources.is_empty() {
            return Err(format!("seed {} has no test sample of digit {SOURCE_DIGIT}", args.seed));
        }
        let targets = Targets { test, sources };
        let mut cells: Vec<Cell<'_>> = CELLS
            .iter()
            .map(|&key| {
                let train = if key.2 == Mnist { &mnist_train } else { &cifar_train };
                Cell::new(key, train, args.seed)
            })
            .collect();
        let unit = cells.iter().map(|c| c.planned).min().expect("cells exist");
        for cell in &mut cells {
            cell.steps = ((cell.planned as f64 / unit as f64).round() as usize).max(1);
        }
        let warm: Vec<Round> = (0..WARMUP_ROUNDS).map(|i| round(&mut cells, &targets, i)).collect();
        setup.finish(warm, &mut out.checks);

        for cell in &mut cells {
            cell.step_ms.clear();
        }
        let checks = &mut out.checks;
        let failed = &mut out.failed;
        passes.run(&mut |i| {
            let r = round(&mut cells, &targets, WARMUP_ROUNDS + i);
            let finite = r.losses.iter().flatten().all(|l| l.is_finite() && *l < DIVERGED_LOSS);
            checks.check("paper-tiny.loss_finite", finite, || {
                format!("round {i} losses {:?}", r.losses)
            });
            *failed += u64::from(!finite);
            r.samples as f64
        });
        steps.resize_with(cells.len(), Default::default);
        for (cell, (label, cost, ms)) in cells.iter().zip(&mut steps) {
            (*label, *cost) = (cell.label.clone(), cell.step_cost);
            ms.extend(&cell.step_ms);
        }
    }
    passes.finish().report("paper-tiny", setup.times_s(), &mut out)?;
    for (label, cost, ms) in &steps {
        out.records.push(Record {
            id: format!("paper-tiny/step/{label}"),
            level: Level::Step,
            ns: percentile(ms, 50.0) * 1e6,
            flops: cost.train_flops(),
            bytes: cost_bytes(cost, 4),
        });
    }
    for (r, warm) in setup.digest().iter().enumerate() {
        for ((label, ..), losses) in steps.iter().zip(&warm.losses) {
            let last = *losses.last().expect("every cell steps");
            out.reference.push((format!("loss.{label}.{r}"), f64::from(last)));
        }
    }
    check_reference(&mut out.checks, "paper-tiny", args.seed, &out.reference);
    Ok(out)
}
