//! Post-training quantization: calibration passes and checkpoint entry
//! points.

use crate::network::{from_entries, quantizable, Int8Layer, LayerCalibration};
use crate::observer::RangeObserver;
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::{
    checkpoint_version, load_parameters, load_quantized, CheckpointError, LayerCost, Network,
};
use dlbench_tensor::Tensor;
use dlbench_trace::{span, Category};

/// Calibration hyperparameters for post-training quantization.
#[derive(Debug, Clone)]
pub struct QuantConfig {
    /// Symmetric percentile the range observers track (`0.999` keeps
    /// the [0.1%, 99.9%] span of each batch).
    pub percentile: f32,
    /// EMA momentum folding per-batch percentiles into the running
    /// range.
    pub momentum: f32,
    /// Number of held-out training samples in the calibration shard.
    pub calib_samples: usize,
    /// Batch size the calibration pass streams with.
    pub calib_batch: usize,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self { percentile: 0.999, momentum: 0.9, calib_samples: 256, calib_batch: 32 }
    }
}

/// Slices sample `range` out of a `[N, ...]` calibration tensor as its
/// own batch tensor.
fn batch_of(calib: &Tensor, range: std::ops::Range<usize>) -> Tensor {
    let sample = calib.len() / calib.shape()[0];
    let mut shape = calib.shape().to_vec();
    shape[0] = range.len();
    let data = calib.data()[range.start * sample..range.end * sample].to_vec();
    Tensor::from_vec(&shape, data).expect("batch slice shape is consistent")
}

/// Quantizes a trained fp32 network against a calibration tensor
/// (`[N, ...]`, already preprocessed with the pipeline the network was
/// trained under).
///
/// Two deterministic streaming passes over the shard: the first feeds
/// every batch through the network layer by layer, folding the inputs
/// of each quantizable layer into its range observer; the second
/// replays the stream against the *final* calibrated ranges to count
/// the fraction of values each quantizer clips. Each `Linear`,
/// `Conv2d`, `Embedding` and `Conv1dBank` is then replaced in place by
/// an [`Int8Layer`] and every other layer stays fp32
/// (requantize-between-layers: each int8 layer re-quantizes its fp32
/// input with its own calibrated quantizer).
///
/// # Panics
///
/// Panics if the calibration tensor is empty or its sample shape does
/// not feed the network.
pub fn quantize_network(mut net: Network, calib: &Tensor, cfg: &QuantConfig) -> Network {
    assert!(calib.rank() >= 2 && calib.shape()[0] > 0, "calibration tensor must be [N, ...]");
    let _s = span(Category::Train, "quantize.calibrate");
    let layers = net.layers_mut();
    let mut observers: Vec<Option<RangeObserver>> = layers
        .iter()
        .map(|l| quantizable(l.as_ref()).then(|| RangeObserver::new(cfg.percentile, cfg.momentum)))
        .collect();

    let n = calib.shape()[0];
    let batch = cfg.calib_batch.max(1);
    // Pass 1: record per-layer input ranges.
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let mut x = batch_of(calib, start..end);
        for (layer, obs) in layers.iter_mut().zip(&mut observers) {
            if let Some(o) = obs {
                o.observe(x.data());
            }
            x = layer.forward(&x, false);
        }
        start = end;
    }
    // Pass 2: count what the final calibrated ranges clip.
    let mut clipped = vec![0u64; layers.len()];
    let mut totals = vec![0u64; layers.len()];
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let mut x = batch_of(calib, start..end);
        for (li, (layer, obs)) in layers.iter_mut().zip(&observers).enumerate() {
            if let Some(o) = obs {
                clipped[li] += o.count_clipped(x.data());
                totals[li] += x.len() as u64;
            }
            x = layer.forward(&x, false);
        }
        start = end;
    }

    for (li, (layer, obs)) in layers.iter_mut().zip(observers).enumerate() {
        let Some(o) = obs else { continue };
        let (scale, zero_point) = o.affine_params();
        let (observed_min, observed_max) = o.observed();
        let (range_lo, range_hi) = o.range();
        let calibration = LayerCalibration {
            layer: format!("{}[{li}]", layer.name()),
            observed_min,
            observed_max,
            range_lo,
            range_hi,
            scale,
            zero_point,
            clipped_fraction: clipped[li] as f32 / totals[li].max(1) as f32,
        };
        *layer = Box::new(Int8Layer::from_fp32(layer.as_ref(), calibration));
    }
    net
}

/// Builds the calibration shard for a cell: the **tail** of its
/// training split (never the test set — evaluation data must stay
/// unseen), preprocessed with the exact serving pipeline the cell uses.
/// The data seed is framework-independent, so this reproduces the very
/// samples the cell trained on.
pub(crate) fn calibration_shard(
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    samples: usize,
) -> Tensor {
    let (train, _test) = trainer::generate_data(dataset, scale, seed);
    let n = train.len();
    let take = samples.clamp(1, n);
    let idx: Vec<usize> = (n - take..n).collect();
    let (images, _labels) = train.gather(&idx);
    let preprocessing = trainer::effective_preprocessing(host, setting, dataset);
    preprocessing.apply(&images, &preprocessing.means_for(&train))
}

/// Quantizes a trained cell model end to end: generates the cell's
/// calibration shard and runs [`quantize_network`].
pub fn quantize_trained(
    net: Network,
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    cfg: &QuantConfig,
) -> Network {
    let shard = calibration_shard(host, setting, dataset, scale, seed, cfg.calib_samples);
    quantize_network(net, &shard, cfg)
}

/// Builds an int8 network from **any** cell checkpoint stream.
///
/// * Version-1 (fp32) checkpoints are loaded into the cell's freshly
///   built architecture and calibrated/quantized on the spot.
/// * Version-2 (quantized) checkpoints are adopted bit-for-bit — no
///   re-calibration.
///
/// All failure modes (wrong magic, truncation, structure mismatch) are
/// structured [`CheckpointError`]s.
pub fn quantize_checkpoint(
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    r: &mut dyn std::io::Read,
    cfg: &QuantConfig,
) -> Result<Network, CheckpointError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    match checkpoint_version(&bytes) {
        Some('1') => {
            let mut net = trainer::build_cell_model(host, setting, dataset, scale, seed);
            load_parameters(&mut net, &mut bytes.as_slice())?;
            Ok(quantize_trained(net, host, setting, dataset, scale, seed, cfg))
        }
        Some('2') => {
            let entries = load_quantized(&mut bytes.as_slice())?;
            let net = trainer::build_cell_model(host, setting, dataset, scale, seed);
            from_entries(net, &entries)
        }
        _ => Err(CheckpointError::BadFormat(
            "not a DLBench checkpoint (unrecognized magic)".to_string(),
        )),
    }
}

/// Splits a network's inference cost into the part the int8 path
/// absorbs (the layers [`Int8Layer`] replaces) and the fp32 fallback
/// remainder, for the analytical int8 serving-time model
/// (`CostModel::inference_seconds_batched_int8`).
pub fn cost_split(net: &Network, input_shape: &[usize]) -> (LayerCost, LayerCost) {
    let mut shape = input_shape.to_vec();
    let mut quantized = LayerCost::default();
    let mut fallback = LayerCost::default();
    for layer in net.layers() {
        let cost = layer.cost(&shape);
        if quantizable(layer.as_ref()) {
            quantized = quantized.merge(cost);
        } else {
            fallback = fallback.merge(cost);
        }
        shape = layer.output_shape(&shape);
    }
    (quantized, fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{calibration, to_entries};
    use dlbench_nn::{save_parameters, save_quantized, Initializer, Linear};
    use dlbench_tensor::SeededRng;

    fn cell() -> (FrameworkKind, DefaultSetting, DatasetKind, Scale, u64) {
        let host = FrameworkKind::TensorFlow;
        let setting = DefaultSetting::new(host, DatasetKind::Mnist);
        (host, setting, DatasetKind::Mnist, Scale::Tiny, 7)
    }

    #[test]
    fn quantized_outputs_track_fp32_and_calibration_is_populated() {
        let (host, setting, dataset, scale, seed) = cell();
        let mut net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
        let shard = calibration_shard(host, &setting, dataset, scale, seed, 64);
        let y32 = net.forward(&shard, false);
        let cfg = QuantConfig { calib_samples: 64, ..QuantConfig::default() };
        let mut q = quantize_network(net, &shard, &cfg);
        let y8 = q.forward(&shard, false);
        assert_eq!(y8.shape(), y32.shape());
        let names: Vec<&str> = q.layers().iter().map(|l| l.name()).collect();
        let quantized = names.iter().filter(|n| n.starts_with('q')).count();
        assert!(quantized >= 2, "cell models have conv and linear layers: {names:?}");
        assert_eq!(calibration(&q).len(), quantized);
        for c in calibration(&q) {
            assert!(c.scale > 0.0 && c.scale.is_finite());
            assert!((0.0..=1.0).contains(&c.clipped_fraction), "{c:?}");
            assert!(c.range_lo <= 0.0 && c.range_hi >= 0.0, "{c:?}");
        }
        // Same argmax on most rows: logits shift only by quantization
        // noise.
        let agree =
            y32.argmax_rows().iter().zip(y8.argmax_rows()).filter(|(a, b)| **a == *b).count();
        assert!(agree * 10 >= y32.shape()[0] * 8, "agreement {agree}/{}", y32.shape()[0]);
    }

    #[test]
    fn quantize_checkpoint_accepts_both_versions_bitwise() {
        let (host, setting, dataset, scale, seed) = cell();
        let mut net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
        let mut v1 = Vec::new();
        save_parameters(&mut net, &mut v1).unwrap();
        let cfg = QuantConfig { calib_samples: 32, ..QuantConfig::default() };
        let mut q1 =
            quantize_checkpoint(host, &setting, dataset, scale, seed, &mut v1.as_slice(), &cfg)
                .unwrap();
        let mut v2 = Vec::new();
        save_quantized(&to_entries(&mut q1), &mut v2).unwrap();
        let mut q2 =
            quantize_checkpoint(host, &setting, dataset, scale, seed, &mut v2.as_slice(), &cfg)
                .unwrap();
        let shard = calibration_shard(host, &setting, dataset, scale, seed, 8);
        let a = q1.forward(&shard, false);
        let b = q2.forward(&shard, false);
        assert!(a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(calibration(&q1), calibration(&q2));
    }

    #[test]
    fn text_cell_quantizes_end_to_end_and_roundtrips_both_versions() {
        let host = FrameworkKind::Torch;
        let setting = DefaultSetting::new(host, DatasetKind::Imdb);
        let (dataset, scale, seed) = (DatasetKind::Imdb, Scale::Tiny, 11);
        let mut net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
        let mut v1 = Vec::new();
        save_parameters(&mut net, &mut v1).unwrap();
        let cfg = QuantConfig { calib_samples: 32, ..QuantConfig::default() };
        let mut q1 =
            quantize_checkpoint(host, &setting, dataset, scale, seed, &mut v1.as_slice(), &cfg)
                .unwrap();
        // The embedding and the conv bank both land on the int8 path.
        let names: Vec<&str> = q1.layers().iter().map(|l| l.name()).collect();
        assert!(names.contains(&"qembedding"), "{names:?}");
        assert!(names.contains(&"qconv1d_bank"), "{names:?}");
        let mut v2 = Vec::new();
        save_quantized(&to_entries(&mut q1), &mut v2).unwrap();
        let mut q2 =
            quantize_checkpoint(host, &setting, dataset, scale, seed, &mut v2.as_slice(), &cfg)
                .unwrap();
        let shard = calibration_shard(host, &setting, dataset, scale, seed, 8);
        let a = q1.forward(&shard, false);
        let b = q2.forward(&shard, false);
        assert!(a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(calibration(&q1), calibration(&q2));
        // The fp32 network and its quantized twin agree on most rows.
        let y32 = {
            let mut net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
            load_parameters(&mut net, &mut v1.as_slice()).unwrap();
            net.forward(&shard, false)
        };
        let agree =
            y32.argmax_rows().iter().zip(a.argmax_rows()).filter(|(x, y)| **x == *y).count();
        assert!(agree * 10 >= y32.shape()[0] * 8, "agreement {agree}/{}", y32.shape()[0]);
    }

    #[test]
    fn quantize_checkpoint_rejects_garbage_with_structured_error() {
        let (host, setting, dataset, scale, seed) = cell();
        let cfg = QuantConfig::default();
        let err = quantize_checkpoint(
            host,
            &setting,
            dataset,
            scale,
            seed,
            &mut b"not a checkpoint".as_slice(),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)), "{err}");
    }

    #[test]
    fn cost_split_partitions_the_total() {
        let (host, setting, dataset, scale, seed) = cell();
        let net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
        let size = scale.image_size(dataset);
        let shape = [1, dataset.channels(), size, size];
        let (q, f) = cost_split(&net, &shape);
        let total = net.cost(&shape);
        assert_eq!(q.fwd_flops + f.fwd_flops, total.fwd_flops);
        assert_eq!(q.fwd_kernels + f.fwd_kernels, total.fwd_kernels);
        assert!(q.fwd_flops > f.fwd_flops, "GEMM-shaped layers dominate");
    }

    #[test]
    fn hand_built_network_quantizes_with_fallbacks_preserved() {
        let mut rng = SeededRng::new(3);
        let mut net = Network::new("mlp");
        net.push(Linear::new(12, 9, Initializer::Xavier, &mut rng));
        net.push(dlbench_nn::Relu::new());
        net.push(Linear::new(9, 4, Initializer::Xavier, &mut rng));
        let calib = Tensor::randn(&[40, 12], 0.0, 1.0, &mut rng);
        let mut q = quantize_network(net, &calib, &QuantConfig::default());
        let names: Vec<&str> = q.layers().iter().map(|l| l.name()).collect();
        assert_eq!(names, ["qlinear", "relu", "qlinear"]);
        assert_eq!(calibration(&q).len(), 2);
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut rng);
        assert_eq!(q.forward(&x, false).shape(), &[5, 4]);
    }

    /// FNV-1a over the version-2 checkpoint of a seeded cell's int8
    /// model.
    fn v2_digest(host: FrameworkKind, dataset: DatasetKind) -> (u64, usize) {
        let setting = DefaultSetting::new(host, dataset);
        let (scale, seed) = (Scale::Tiny, 7);
        let net = trainer::build_cell_model(host, &setting, dataset, scale, seed);
        let cfg = QuantConfig { calib_samples: 32, ..QuantConfig::default() };
        let mut q = quantize_trained(net, host, &setting, dataset, scale, seed, &cfg);
        let mut bytes = Vec::new();
        save_quantized(&to_entries(&mut q), &mut bytes).unwrap();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (digest, bytes.len())
    }

    /// The round-trip tests only show that the writer and the reader
    /// agree with each other; these digests pin the bytes themselves,
    /// so checkpoints written before stay loadable and vice versa.
    #[test]
    fn v2_checkpoint_bytes_match_pinned_digests() {
        assert_eq!(
            v2_digest(FrameworkKind::TensorFlow, DatasetKind::Mnist),
            (0x3aea_aa20_d58c_ea12, 44_380)
        );
        assert_eq!(
            v2_digest(FrameworkKind::Torch, DatasetKind::Imdb),
            (0x4f87_b76a_a9e6_f8d1, 19_752)
        );
    }
}
