//! `infer-paper`: offline inference at paper scale — the paper's
//! "testing time" — in fp32 and int8. One operation is one batch
//! through each of the nine own-default architectures (TensorFlow,
//! Caffe and Torch on MNIST, CIFAR-10 and IMDB) at native input size,
//! first with `Network::forward`, then with `QuantizedNetwork::forward`.
//! Weights are the seeded initialization; int8 models are calibrated
//! on bench-generated native-size samples.

use crate::harness::{
    check_reference, cost_bytes, percentile, Args, Level, Outcome, Record, Setup, PASSES,
};
use crate::layers::span;
use crate::Passes;
use dlbench_data::{Dataset, DatasetKind, Preprocessing, SynthCifar10, SynthMnist};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::Network;
use dlbench_quant::{cost_split, quantize_network, QuantConfig, QuantizedNetwork};
use dlbench_tensor::{SeededRng, Tensor};
use dlbench_text::SynthImdb;
use std::collections::BTreeMap;
use std::time::Instant;

const DATASETS: [DatasetKind; 3] = [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Imdb];

/// Samples per inference batch.
const BATCH: usize = 4;
/// Distinct input batches per model; operation `i` uses batch `i % POOL`.
const POOL: usize = 4;
/// Calibration samples per model.
const CALIB: usize = 16;

/// One architecture in both representations, with its inputs.
struct Model {
    label: String,
    fp32: Network,
    int8: QuantizedNetwork,
    batches: Vec<Tensor>,
    /// Forward wall times, ms: `[fp32, int8]`.
    forward_ms: [Vec<f64>; 2],
    /// FLOPs of one batch's forward pass.
    flops: u64,
    /// Bytes one batch's forward pass moves: `[fp32, int8]`, the int8
    /// network's quantized layers at one byte per value.
    bytes: [u64; 2],
}

impl Model {
    fn build(host: FrameworkKind, dataset: DatasetKind, data: &Dataset, seed: u64) -> Self {
        let setting = DefaultSetting::new(host, dataset);
        let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
        let means = Preprocessing::channel_means(data);
        let slice = |range: std::ops::Range<usize>| {
            let (images, _) = data.gather(&range.collect::<Vec<_>>());
            preprocessing.apply(&images, &means)
        };
        let build = || trainer::build_cell_model(host, &setting, dataset, Scale::Paper, seed);
        let cfg =
            QuantConfig { calib_samples: CALIB, calib_batch: CALIB, ..QuantConfig::default() };
        let fp32 = build();
        let batches: Vec<Tensor> =
            (0..POOL).map(|k| slice(CALIB + k * BATCH..CALIB + (k + 1) * BATCH)).collect();
        let cost = fp32.cost(batches[0].shape());
        let (quantized, fallback) = cost_split(&fp32, batches[0].shape());
        Model {
            label: format!("{}-{}", host.abbrev(), dataset.name()).to_lowercase(),
            flops: cost.fwd_flops,
            bytes: [cost_bytes(&cost, 4), cost_bytes(&quantized, 1) + cost_bytes(&fallback, 4)],
            fp32,
            int8: quantize_network(build(), &slice(0..CALIB), &cfg),
            batches,
            forward_ms: [Vec::new(), Vec::new()],
        }
    }

    /// Logits of batch `k` in fp32 and in int8.
    fn infer(&mut self, k: usize) -> [Tensor; 2] {
        let x = &self.batches[k];
        let t = Instant::now();
        let fp32 = {
            let _s = span("nn.forward");
            self.fp32.forward(x, false)
        };
        self.forward_ms[0].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let int8 = {
            let _s = span("quant.forward");
            self.int8.forward(x, false)
        };
        self.forward_ms[1].push(t.elapsed().as_secs_f64() * 1e3);
        [fp32, int8]
    }
}

/// Native-size samples for one dataset: calibration shard plus the
/// inference pool.
fn generate(dataset: DatasetKind, seed: u64) -> Dataset {
    let n = CALIB + POOL * BATCH;
    let size = dataset.native_size();
    let seed = SeededRng::new(seed).fork(dataset as u64 + 100).seed();
    match dataset {
        DatasetKind::Mnist => SynthMnist::generate(n, size, seed),
        DatasetKind::Cifar10 => SynthCifar10::generate(n, size, seed),
        DatasetKind::Imdb => SynthImdb::generate(n, size, seed),
    }
}

/// FNV-1a over the logits' bit patterns.
fn digest(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest and sum of absolute logits of one forward.
type Warm = Vec<(u64, f64)>;

const DTYPES: [&str; 2] = ["fp32", "int8"];

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::new();
    let mut passes = Passes::new(args);
    // Logits digest per (model and dtype, batch), pinned the first time
    // any pass sees it.
    let mut seen: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    // Per model and dtype: label, dtype, FLOPs, bytes and every timed
    // forward.
    let mut steps: Vec<(String, &str, u64, u64, Vec<f64>)> = Vec::new();
    for _ in 0..PASSES {
        passes.begin();
        setup.start();
        let mut models: Vec<Model> = Vec::new();
        for dataset in DATASETS {
            let data = generate(dataset, args.seed);
            for host in FrameworkKind::ALL {
                models.push(Model::build(host, dataset, &data, args.seed));
            }
        }
        let warm: Warm = models
            .iter_mut()
            .flat_map(|m| m.infer(0))
            .map(|logits| (digest(&logits), logits.data().iter().map(|v| f64::from(v.abs())).sum()))
            .collect();
        setup.finish(warm, &mut out.checks);

        for m in &mut models {
            m.forward_ms = [Vec::new(), Vec::new()];
        }
        for (j, &(d, _)) in setup.digest().iter().enumerate() {
            seen.insert((j, 0), d);
        }
        let checks = &mut out.checks;
        let failed = &mut out.failed;
        passes.run(&mut |i| {
            let k = i % POOL;
            let mut ok = true;
            for (m, model) in models.iter_mut().enumerate() {
                for (d, logits) in model.infer(k).iter().enumerate() {
                    let finite = !logits.has_non_finite();
                    checks.check("infer-paper.finite", finite, || {
                        format!("{} {} batch {k} has non-finite logits", model.label, DTYPES[d])
                    });
                    let got = digest(logits);
                    let want = *seen.entry((2 * m + d, k)).or_insert(got);
                    checks.check("infer-paper.digest", got == want, || {
                        format!(
                            "{} {} batch {k}: digest {got:#x} != {want:#x}",
                            model.label, DTYPES[d]
                        )
                    });
                    ok &= finite && got == want;
                }
            }
            *failed += u64::from(!ok);
            (models.len() * DTYPES.len() * BATCH) as f64
        });
        steps.resize_with(2 * models.len(), Default::default);
        for (j, (label, dtype, flops, bytes, ms)) in steps.iter_mut().enumerate() {
            let (m, d) = (&models[j / 2], j % 2);
            (*label, *dtype) = (m.label.clone(), DTYPES[d]);
            (*flops, *bytes) = (m.flops, m.bytes[d]);
            ms.extend(&m.forward_ms[d]);
        }
    }
    passes.finish().report("infer-paper", setup.times_s(), &mut out)?;
    for (label, dtype, flops, bytes, ms) in &steps {
        out.records.push(Record {
            id: format!("infer-paper/step/{label}-{dtype}"),
            level: Level::Step,
            ns: percentile(ms, 50.0) * 1e6,
            flops: *flops,
            bytes: *bytes,
        });
    }
    for ((label, dtype, ..), &(_, abs_sum)) in steps.iter().zip(setup.digest()) {
        out.reference.push((format!("abs_logits.{label}.{dtype}"), abs_sum));
    }
    check_reference(&mut out.checks, "infer-paper", args.seed, &out.reference);
    Ok(out)
}
