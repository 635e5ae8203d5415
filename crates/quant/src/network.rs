//! Int8 layers inside an ordinary [`Network`], and the version-2
//! checkpoint mapping of a network that carries them.

use crate::layers::{QConv1dBank, QConv2d, QEmbedding, QLinear};
use crate::qtensor::QTensor;
use dlbench_json::JsonValue;
use dlbench_nn::{
    CheckpointError, Conv1dBank, Conv2d, Embedding, Layer, LayerCost, Linear, Network, QuantEntry,
};
use dlbench_tensor::Tensor;

/// Calibration record for one quantized layer — what the observer saw
/// on the calibration shard and the quantizer derived from it. Surfaced
/// through `/metrics`, report facts and the `dlbench quantize` summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCalibration {
    /// Diagnostic label (`"conv2d[0]"`, `"linear[4]"` — kind plus
    /// position in the stack).
    pub layer: String,
    /// Absolute minimum activation observed on the shard.
    pub observed_min: f32,
    /// Absolute maximum activation observed on the shard.
    pub observed_max: f32,
    /// Lower edge of the calibrated (EMA percentile) range.
    pub range_lo: f32,
    /// Upper edge of the calibrated range.
    pub range_hi: f32,
    /// Derived activation quantization step.
    pub scale: f32,
    /// Derived activation zero point.
    pub zero_point: i8,
    /// Fraction of shard values falling outside the calibrated range
    /// (clipped by the quantizer).
    pub clipped_fraction: f32,
}

impl LayerCalibration {
    /// JSON object for metrics endpoints and reports.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("layer".into(), JsonValue::from(self.layer.as_str())),
            ("observed_min".into(), JsonValue::from(self.observed_min)),
            ("observed_max".into(), JsonValue::from(self.observed_max)),
            ("range_lo".into(), JsonValue::from(self.range_lo)),
            ("range_hi".into(), JsonValue::from(self.range_hi)),
            ("scale".into(), JsonValue::from(self.scale)),
            ("zero_point".into(), JsonValue::from(self.zero_point as f64)),
            ("clipped_fraction".into(), JsonValue::from(self.clipped_fraction)),
        ])
    }
}

/// Whether `layer` has an int8 counterpart (everything else stays the
/// network's own fp32 layer).
pub(crate) fn quantizable(layer: &dyn Layer) -> bool {
    let any = layer.as_any();
    any.is::<Linear>() || any.is::<Conv2d>() || any.is::<Embedding>() || any.is::<Conv1dBank>()
}

/// The int8 kernel behind one [`Int8Layer`].
enum Kernel {
    Linear(QLinear),
    Conv2d(QConv2d),
    Embedding(QEmbedding),
    Conv1dBank(QConv1dBank),
}

/// The int8 counterpart of a trained `Linear`, `Conv2d`, `Embedding` or
/// `Conv1dBank`, in place of that layer inside an ordinary [`Network`],
/// plus the calibration record its input quantizer came from. An int8
/// model is such a network: it runs through `Network::forward` and
/// `forward_from` like any other, and its other layers stay fp32.
///
/// Inference-only: there is no backward pass, so [`Layer::forward`]
/// with `train = true` and [`Layer::backward`] panic. The replaced fp32
/// layer is not kept — a paper-scale model would carry both weight
/// copies — so shapes and costs come from the int8 geometry; the cost
/// is the fp32 layer's forward cost, so spans of both dtypes report the
/// same work.
pub struct Int8Layer {
    kernel: Kernel,
    calibration: LayerCalibration,
}

impl Int8Layer {
    /// Quantizes `layer` with the input quantizer of `calibration`.
    ///
    /// # Panics
    ///
    /// Panics unless [`quantizable`] admits `layer`.
    pub(crate) fn from_fp32(layer: &dyn Layer, calibration: LayerCalibration) -> Self {
        let (scale, zp) = (calibration.scale, calibration.zero_point);
        let any = layer.as_any();
        let kernel = if let Some(l) = any.downcast_ref::<Linear>() {
            Kernel::Linear(QLinear::from_fp32(l, scale, zp))
        } else if let Some(c) = any.downcast_ref::<Conv2d>() {
            Kernel::Conv2d(QConv2d::from_fp32(c, scale, zp))
        } else if let Some(e) = any.downcast_ref::<Embedding>() {
            // The observer saw token ids, not activations: the lookup
            // needs no input quantizer, but the calibration record keeps
            // the observed id range for the report.
            Kernel::Embedding(QEmbedding::from_fp32(e))
        } else if let Some(b) = any.downcast_ref::<Conv1dBank>() {
            Kernel::Conv1dBank(QConv1dBank::from_fp32(b, scale, zp))
        } else {
            panic!("{} has no int8 counterpart", layer.name())
        };
        Self { kernel, calibration }
    }

    /// Appends this layer's version-2 checkpoint entries (see
    /// [`to_entries`]).
    fn push_entries(&self, entries: &mut Vec<QuantEntry>) {
        match &self.kernel {
            Kernel::Linear(l) => push_weight(entries, l.weight_t(), l.bias()),
            Kernel::Conv2d(c) => push_weight(entries, c.weight(), c.bias()),
            // The table has no bias; a zero-length entry keeps the
            // four-entry group shape.
            Kernel::Embedding(e) => push_weight(entries, e.table(), &[]),
            Kernel::Conv1dBank(b) => {
                for (weight, bias) in b.branch_parts() {
                    push_weight(entries, weight, bias);
                }
            }
        }
        // Every kernel runs with the calibration record's quantizer; the
        // embedding lookup ignores it, but the marker still records what
        // the observer derived so the report round-trips.
        let c = &self.calibration;
        entries.push(QuantEntry::I8 {
            dims: vec![0],
            data: vec![],
            scale: c.scale,
            zero_point: c.zero_point,
        });
        entries.push(QuantEntry::F32 {
            dims: vec![5],
            data: vec![c.observed_min, c.observed_max, c.range_lo, c.range_hi, c.clipped_fraction],
        });
    }
}

impl Layer for Int8Layer {
    fn name(&self) -> &'static str {
        match self.kernel {
            Kernel::Linear(_) => "qlinear",
            Kernel::Conv2d(_) => "qconv2d",
            Kernel::Embedding(_) => "qembedding",
            Kernel::Conv1dBank(_) => "qconv1d_bank",
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert!(!train, "int8 layers are inference-only: {} has no training mode", self.name());
        match &self.kernel {
            Kernel::Linear(l) => l.forward(input),
            Kernel::Conv2d(c) => c.forward(input),
            Kernel::Embedding(e) => e.forward(input),
            Kernel::Conv1dBank(b) => b.forward(input),
        }
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        panic!("int8 layers are inference-only: {} has no backward pass", self.name())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        match &self.kernel {
            Kernel::Linear(l) => l.output_shape(input_shape),
            Kernel::Conv2d(c) => c.output_shape(input_shape),
            Kernel::Embedding(e) => e.output_shape(input_shape),
            Kernel::Conv1dBank(b) => b.output_shape(input_shape),
        }
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        match &self.kernel {
            Kernel::Linear(l) => l.cost(input_shape),
            Kernel::Conv2d(c) => c.cost(input_shape),
            Kernel::Embedding(e) => e.cost(input_shape),
            Kernel::Conv1dBank(b) => b.cost(input_shape),
        }
    }
}

/// Per-int8-layer calibration records of `net`, in layer order (empty
/// for an fp32 network).
pub fn calibration(net: &Network) -> Vec<&LayerCalibration> {
    net.layers()
        .iter()
        .filter_map(|l| l.as_any().downcast_ref::<Int8Layer>())
        .map(|l| &l.calibration)
        .collect()
}

/// The calibration records of `net` as a JSON array (the `/metrics` and
/// report-fact payload).
pub fn calibration_json(net: &Network) -> JsonValue {
    JsonValue::Array(calibration(net).into_iter().map(LayerCalibration::to_json).collect())
}

/// Serializes `net` as a version-2 checkpoint entry sequence.
///
/// Each int8 `Linear`/`Conv2d` layer contributes four entries, in
/// order: the `i8` weight tensor (symmetric, carrying the weight
/// scale), the `f32` bias, a zero-length `i8` marker carrying the
/// activation quantizer (scale + zero point), and an `f32` `[5]`
/// statistics tensor (`observed_min`, `observed_max`, `range_lo`,
/// `range_hi`, `clipped_fraction`). An int8 `Embedding` uses the same
/// group with its table as the weight and a zero-length bias (the layer
/// has none). An int8 `Conv1dBank` contributes one `(i8 weight, f32
/// bias)` pair per branch in branch order, then the shared activation
/// marker and statistics. Every fp32 layer contributes one plain `f32`
/// entry per parameter, in `params()` order (which is why this takes
/// the network mutably).
pub fn to_entries(net: &mut Network) -> Vec<QuantEntry> {
    let mut entries = Vec::new();
    for layer in net.layers_mut() {
        match layer.as_any().downcast_ref::<Int8Layer>() {
            Some(q) => q.push_entries(&mut entries),
            None => entries.extend(layer.params().into_iter().map(|p| QuantEntry::F32 {
                dims: p.value.shape().to_vec(),
                data: p.value.data().to_vec(),
            })),
        }
    }
    entries
}

/// Rebuilds an int8 network from a version-2 checkpoint entry sequence,
/// validated against the freshly built fp32 architecture `arch` (the
/// same network the checkpoint's training cell used): each quantizable
/// layer is replaced by its stored int8 layer, every other layer loads
/// its fp32 parameters. Stored int8 weights are adopted bit-for-bit —
/// never re-quantized — so a save/load round trip preserves every
/// output bit.
///
/// All mismatches (entry count, dtype, shape) are structured
/// [`CheckpointError::StructureMismatch`] values, never panics.
pub(crate) fn from_entries(
    mut arch: Network,
    entries: &[QuantEntry],
) -> Result<Network, CheckpointError> {
    let mut idx = 0usize;
    let mut next = |what: &str| {
        let i = idx;
        idx += 1;
        entries.get(i).map(|e| (i, e)).ok_or_else(|| {
            CheckpointError::StructureMismatch(format!("checkpoint ended early: expected {what}"))
        })
    };
    for (li, layer) in arch.layers_mut().iter_mut().enumerate() {
        let label = format!("{}[{li}]", layer.name());
        let any = layer.as_any();
        let (kernel, act, stats) = if let Some(lin) = any.downcast_ref::<Linear>() {
            let (weight, bias, act, stats) = read_group(&label, &mut next)?;
            let want = [lin.in_features(), lin.out_features()];
            if weight.shape() != want {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: weight shape {:?} != expected {want:?}",
                    weight.shape()
                )));
            }
            if bias.len() != lin.out_features() {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: bias length {} != {}",
                    bias.len(),
                    lin.out_features()
                )));
            }
            (Kernel::Linear(QLinear::from_parts(weight, bias, act.0, act.1)), act, stats)
        } else if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let (weight, bias, act, stats) = read_group(&label, &mut next)?;
            let k = conv.kernel();
            let want = [conv.out_channels(), conv.in_channels() * k * k];
            if weight.shape() != want {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: weight shape {:?} != expected {want:?}",
                    weight.shape()
                )));
            }
            if bias.len() != conv.out_channels() {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: bias length {} != {}",
                    bias.len(),
                    conv.out_channels()
                )));
            }
            let q = QConv2d::from_parts(
                weight,
                bias,
                conv.in_channels(),
                k,
                conv.stride(),
                conv.pad(),
                act.0,
                act.1,
            );
            (Kernel::Conv2d(q), act, stats)
        } else if let Some(emb) = any.downcast_ref::<Embedding>() {
            let (table, bias, act, stats) = read_group(&label, &mut next)?;
            let want = [emb.vocab(), emb.dim()];
            if table.shape() != want {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: table shape {:?} != expected {want:?}",
                    table.shape()
                )));
            }
            if !bias.is_empty() {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{label}: embeddings have no bias, found {} values",
                    bias.len()
                )));
            }
            (Kernel::Embedding(QEmbedding::from_parts(table)), act, stats)
        } else if let Some(bank) = any.downcast_ref::<Conv1dBank>() {
            let filters = bank.filters();
            let embed_dim = bank.convs()[0].embed_dim();
            let mut branches = Vec::new();
            for (bi, width) in bank.widths().into_iter().enumerate() {
                let blabel = format!("{label} branch {bi}");
                let weight = read_i8(&format!("{blabel} int8 weight"), &mut next)?;
                let want = [filters, width * embed_dim];
                if weight.shape() != want {
                    return Err(CheckpointError::StructureMismatch(format!(
                        "{blabel}: weight shape {:?} != expected {want:?}",
                        weight.shape()
                    )));
                }
                let bias = read_f32(&format!("{blabel} bias"), &mut next)?;
                if bias.len() != filters {
                    return Err(CheckpointError::StructureMismatch(format!(
                        "{blabel}: bias length {} != {filters}",
                        bias.len()
                    )));
                }
                branches.push((weight, bias));
            }
            let act = read_act(&label, &mut next)?;
            let stats = read_stats(&label, &mut next)?;
            let q = QConv1dBank::from_parts(filters, embed_dim, branches, act.0, act.1);
            (Kernel::Conv1dBank(q), act, stats)
        } else {
            for p in layer.params() {
                let (i, e) = next(&format!("fp32 parameter for layer {li}"))?;
                match e {
                    QuantEntry::F32 { dims, data } if dims == p.value.shape() => {
                        p.value.data_mut().copy_from_slice(data);
                    }
                    QuantEntry::F32 { dims, .. } => {
                        return Err(CheckpointError::StructureMismatch(format!(
                            "entry {i}: fallback parameter shape {dims:?} != network shape {:?}",
                            p.value.shape()
                        )));
                    }
                    QuantEntry::I8 { .. } => {
                        return Err(CheckpointError::StructureMismatch(format!(
                            "entry {i}: int8 entry where layer {li} expects an fp32 parameter"
                        )));
                    }
                }
            }
            continue;
        };
        *layer = Box::new(Int8Layer { kernel, calibration: stats_record(label, act, stats) });
    }
    let _ = next;
    if idx < entries.len() {
        return Err(CheckpointError::StructureMismatch(format!(
            "checkpoint has {} trailing entries starting at entry {idx}",
            entries.len() - idx
        )));
    }
    Ok(arch)
}

/// Appends one int8 weight tensor and its fp32 bias.
fn push_weight(entries: &mut Vec<QuantEntry>, weight: &QTensor, bias: &[f32]) {
    entries.push(QuantEntry::I8 {
        dims: weight.shape().to_vec(),
        data: weight.data().to_vec(),
        scale: weight.scale,
        zero_point: weight.zero_point,
    });
    entries.push(QuantEntry::F32 { dims: vec![bias.len()], data: bias.to_vec() });
}

/// Builds the calibration record back from a checkpoint's activation
/// quantizer and statistics entries.
fn stats_record(layer: String, act: (f32, i8), stats: [f32; 5]) -> LayerCalibration {
    LayerCalibration {
        layer,
        observed_min: stats[0],
        observed_max: stats[1],
        range_lo: stats[2],
        range_hi: stats[3],
        scale: act.0,
        zero_point: act.1,
        clipped_fraction: stats[4],
    }
}

/// One decoded quantized-layer group: int8 weight, fp32 bias,
/// activation `(scale, zero_point)`, calibration statistics.
type LayerGroup = (QTensor, Vec<f32>, (f32, i8), [f32; 5]);

/// Reads one int8 tensor entry.
fn read_i8<'a, F>(what: &str, next: &mut F) -> Result<QTensor, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(what)? {
        (_, QuantEntry::I8 { dims, data, scale, zero_point }) => {
            Ok(QTensor::from_parts(dims, data.clone(), *scale, *zero_point))
        }
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: expected {what} (an int8 tensor)"
        ))),
    }
}

/// Reads one fp32 tensor entry.
fn read_f32<'a, F>(what: &str, next: &mut F) -> Result<Vec<f32>, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(what)? {
        (_, QuantEntry::F32 { data, .. }) => Ok(data.clone()),
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: expected {what} (an fp32 tensor)"
        ))),
    }
}

/// Reads the zero-length int8 marker carrying one layer's activation
/// quantizer.
fn read_act<'a, F>(label: &str, next: &mut F) -> Result<(f32, i8), CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(&format!("{label} activation quantizer"))? {
        (_, QuantEntry::I8 { data, scale, zero_point, .. }) if data.is_empty() => {
            Ok((*scale, *zero_point))
        }
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: {label} expects a zero-length int8 activation-quantizer marker"
        ))),
    }
}

/// Reads the 5-value fp32 statistics tensor of one quantized layer.
fn read_stats<'a, F>(label: &str, next: &mut F) -> Result<[f32; 5], CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(&format!("{label} calibration statistics"))? {
        (_, QuantEntry::F32 { data, .. }) if data.len() == 5 => {
            Ok([data[0], data[1], data[2], data[3], data[4]])
        }
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: {label} expects a 5-value fp32 statistics tensor"
        ))),
    }
}

/// Reads the four-entry group of one quantized layer: weight, bias,
/// activation marker, statistics.
fn read_group<'a, F>(label: &str, next: &mut F) -> Result<LayerGroup, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    let weight = read_i8(&format!("{label} int8 weight"), next)?;
    let bias = read_f32(&format!("{label} bias"), next)?;
    let act = read_act(label, next)?;
    let stats = read_stats(label, next)?;
    Ok((weight, bias, act, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Flatten, Initializer, MaxPool2d, Relu};
    use dlbench_tensor::SeededRng;

    fn arch(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new("qnet");
        net.push(Conv2d::new(1, 3, 3, 1, 1, Initializer::Xavier, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2, false));
        net.push(Flatten::new());
        net.push(Linear::new(3 * 4 * 4, 5, Initializer::Xavier, &mut rng));
        net
    }

    fn cal(layer: &str) -> LayerCalibration {
        LayerCalibration {
            layer: layer.into(),
            observed_min: -1.5,
            observed_max: 2.0,
            range_lo: -1.2,
            range_hi: 1.9,
            scale: 0.0122,
            zero_point: -30,
            clipped_fraction: 0.004,
        }
    }

    /// Replaces every quantizable layer with an int8 layer under one
    /// fixed input quantizer (no calibration pass).
    fn quantize_by_hand(mut net: Network) -> Network {
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            if quantizable(layer.as_ref()) {
                let c = cal(&format!("{}[{li}]", layer.name()));
                *layer = Box::new(Int8Layer::from_fp32(layer.as_ref(), c));
            }
        }
        net
    }

    #[test]
    fn entries_roundtrip_preserves_every_output_bit() {
        let mut q = quantize_by_hand(arch(31));
        let mut rng = SeededRng::new(8);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let before = q.forward(&x, false);
        let entries = to_entries(&mut q);
        let mut back = from_entries(arch(99), &entries).unwrap();
        let after = back.forward(&x, false);
        assert!(before.data().iter().zip(after.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(calibration(&back).len(), 2);
        assert_eq!(calibration(&back), calibration(&q));
    }

    #[test]
    fn from_entries_rejects_wrong_architecture_and_truncation() {
        let mut q = quantize_by_hand(arch(31));
        let entries = to_entries(&mut q);
        // Wrong architecture: a different linear width.
        let mut rng = SeededRng::new(1);
        let mut other = Network::new("other");
        other.push(Linear::new(4, 4, Initializer::Xavier, &mut rng));
        let err = from_entries(other, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Truncated entry list.
        let err = from_entries(arch(1), &entries[..3]).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Trailing entries.
        let mut extra = entries.clone();
        extra.push(QuantEntry::F32 { dims: vec![1], data: vec![0.0] });
        let err = from_entries(arch(1), &extra).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
    }

    fn text_arch(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new("qtext");
        net.push(Embedding::new(20, 6, Initializer::Xavier, &mut rng));
        net.push(Conv1dBank::new(3, &[2, 3], 6, Initializer::Xavier, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(6, 2, Initializer::Xavier, &mut rng));
        net
    }

    fn token_batch() -> Tensor {
        let tokens: Vec<f32> = (0..2 * 7).map(|i| ((i * 13) % 20) as f32).collect();
        Tensor::from_vec(&[2, 1, 7, 1], tokens).unwrap()
    }

    #[test]
    fn text_entries_roundtrip_preserves_every_output_bit() {
        let mut q = quantize_by_hand(text_arch(41));
        let x = token_batch();
        let before = q.forward(&x, false);
        let entries = to_entries(&mut q);
        let mut back = from_entries(text_arch(77), &entries).unwrap();
        let after = back.forward(&x, false);
        assert!(before.data().iter().zip(after.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(calibration(&back).len(), 3);
        assert_eq!(calibration(&back), calibration(&q));
    }

    #[test]
    fn text_entries_reject_mismatched_tables_and_truncation() {
        let mut q = quantize_by_hand(text_arch(41));
        let entries = to_entries(&mut q);
        // Wrong vocabulary: the target arch's table disagrees.
        let mut rng = SeededRng::new(2);
        let mut other = Network::new("other");
        other.push(Embedding::new(9, 6, Initializer::Xavier, &mut rng));
        other.push(Conv1dBank::new(3, &[2, 3], 6, Initializer::Xavier, &mut rng));
        other.push(Relu::new());
        other.push(Linear::new(6, 2, Initializer::Xavier, &mut rng));
        let err = from_entries(other, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Truncated mid-bank: the second branch's bias is missing.
        let err = from_entries(text_arch(1), &entries[..7]).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // A non-empty embedding bias is rejected (embeddings have none).
        let mut forged = entries.clone();
        forged[1] = QuantEntry::F32 { dims: vec![1], data: vec![0.5] };
        let err = from_entries(text_arch(1), &forged).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // A bank branch weight with the wrong window width is rejected.
        let mut forged = entries.clone();
        forged[4] = QuantEntry::I8 {
            dims: vec![3, 4 * 6],
            data: vec![0; 3 * 4 * 6],
            scale: 0.01,
            zero_point: 0,
        };
        let err = from_entries(text_arch(1), &forged).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn forward_rejects_training_mode() {
        let msg = panic_message(|| {
            let mut q = quantize_by_hand(arch(31));
            q.forward(&Tensor::zeros(&[1, 1, 8, 8]), true);
        });
        assert!(msg.contains("inference-only"), "{msg}");
    }

    #[test]
    fn backward_rejects_int8_layers() {
        let msg = panic_message(|| {
            let mut q = quantize_by_hand(arch(31));
            q.forward(&Tensor::zeros(&[1, 1, 8, 8]), false);
            q.backward(&Tensor::zeros(&[1, 5]));
        });
        assert!(msg.contains("inference-only"), "{msg}");
    }

    #[test]
    fn calibration_json_carries_all_fields() {
        let q = quantize_by_hand(arch(31));
        let json = calibration_json(&q);
        let text = json.pretty();
        for field in [
            "layer",
            "observed_min",
            "observed_max",
            "range_lo",
            "range_hi",
            "scale",
            "zero_point",
            "clipped_fraction",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
