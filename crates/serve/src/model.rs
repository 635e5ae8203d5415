//! Model registry: named models rebuilt from framework personality
//! architecture specs and (optionally) warm-loaded from `dlbench-nn`
//! checkpoints, each served behind its own micro-batcher.

use crate::batcher::{BatchConfig, MicroBatcher, Prediction};
use crate::metrics::ServeMetrics;
use crate::ServeError;
use dlbench_data::{DatasetKind, Preprocessing};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_nn::Network;
use dlbench_quant::{calibration_json, quantize_checkpoint, quantize_trained, QuantConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Numeric representation a model is served in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelDtype {
    /// Full-precision fp32 inference (the training representation).
    Fp32,
    /// Post-training-quantized int8 inference (`dlbench-quant`).
    Int8,
}

impl ModelDtype {
    /// Canonical lowercase name (`"fp32"` / `"int8"`).
    pub fn name(&self) -> &'static str {
        match self {
            ModelDtype::Fp32 => "fp32",
            ModelDtype::Int8 => "int8",
        }
    }

    /// Parses a dtype name case-insensitively (`fp32`/`f32`/`float32`,
    /// `int8`/`i8`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fp32" | "f32" | "float32" => Some(ModelDtype::Fp32),
            "int8" | "i8" => Some(ModelDtype::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to rebuild the exact network a training cell
/// produced: the host personality, its default setting, the dataset,
/// the scale and the seed. Checkpoints saved by `dlbench train --save`
/// load bit-exactly against the network this spec rebuilds.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry name (the `<model>` in `/predict/<model>`).
    pub name: String,
    /// Host framework personality whose architecture is served.
    pub host: FrameworkKind,
    /// Default setting (owner + tuned-for dataset) in effect.
    pub setting: DefaultSetting,
    /// Dataset the model classifies.
    pub dataset: DatasetKind,
    /// Input scale (determines the spatial input size).
    pub scale: Scale,
    /// Seed the cell was trained with.
    pub seed: u64,
    /// Numeric representation to serve in. `Int8` quantizes fp32
    /// checkpoints on load (calibrating against the cell's held-out
    /// shard) and adopts version-2 quantized checkpoints bit-for-bit.
    pub dtype: ModelDtype,
}

impl ModelSpec {
    /// A spec for `host` serving its own default setting on `dataset`.
    pub fn own_default(
        name: impl Into<String>,
        host: FrameworkKind,
        dataset: DatasetKind,
        scale: Scale,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            host,
            setting: DefaultSetting::new(host, dataset),
            dataset,
            scale,
            seed,
            dtype: ModelDtype::Fp32,
        }
    }

    /// Returns the spec with its serving dtype replaced.
    #[must_use]
    pub fn with_dtype(mut self, dtype: ModelDtype) -> Self {
        self.dtype = dtype;
        self
    }

    /// `(channels, height, width)` of one input sample: pixel grids
    /// for image models, `(1, length, 1)` token-id sequences for text.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        trainer::input_dims(self.dataset, self.scale.image_size(self.dataset))
    }

    /// Instantiates the served model, loading parameters from a
    /// checkpoint file when given (otherwise the network keeps its
    /// seeded initialization — useful for load benchmarks where the
    /// weights' provenance is irrelevant). An `Int8` spec without a
    /// checkpoint quantizes the seeded initialization.
    pub fn instantiate(
        &self,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<ServedModel, ServeError> {
        match checkpoint {
            Some(path) => {
                let bytes =
                    std::fs::read(path).map_err(|e| ServeError::Checkpoint(e.to_string()))?;
                self.instantiate_from(&mut bytes.as_slice())
            }
            None => {
                let model = match self.dtype {
                    ModelDtype::Fp32 => self.build(),
                    ModelDtype::Int8 => quantize_trained(
                        self.build(),
                        self.host,
                        &self.setting,
                        self.dataset,
                        self.scale,
                        self.seed,
                        &QuantConfig::default(),
                    ),
                };
                Ok(self.served(model))
            }
        }
    }

    /// Instantiates the served model from an in-memory checkpoint
    /// stream. The checkpoint version is sniffed against the spec's
    /// dtype: an `Fp32` spec reads version-1 checkpoints (and rejects
    /// quantized ones with a structured [`ServeError::Checkpoint`]);
    /// an `Int8` spec quantizes version-1 checkpoints on the spot and
    /// adopts version-2 checkpoints bit-for-bit.
    pub fn instantiate_from(
        &self,
        mut r: &mut dyn std::io::Read,
    ) -> Result<ServedModel, ServeError> {
        let model = match self.dtype {
            ModelDtype::Fp32 => {
                let mut model = self.build();
                dlbench_nn::load_parameters(&mut model, &mut r)
                    .map_err(|e| ServeError::Checkpoint(e.to_string()))?;
                model
            }
            ModelDtype::Int8 => quantize_checkpoint(
                self.host,
                &self.setting,
                self.dataset,
                self.scale,
                self.seed,
                r,
                &QuantConfig::default(),
            )
            .map_err(|e| ServeError::Checkpoint(e.to_string()))?,
        };
        Ok(self.served(model))
    }

    fn build(&self) -> Network {
        trainer::build_cell_model(self.host, &self.setting, self.dataset, self.scale, self.seed)
    }

    fn served(&self, model: Network) -> ServedModel {
        let preprocessing =
            trainer::effective_preprocessing(self.host, &self.setting, self.dataset);
        // Mean subtraction needs the training-set statistics the cell
        // saw; the data seed is framework-independent, so regenerating
        // the training split reproduces them exactly.
        let channel_means = if preprocessing == Preprocessing::MeanSubtract {
            let (train, _) = trainer::generate_data(self.dataset, self.scale, self.seed);
            Preprocessing::channel_means(&train)
        } else {
            Vec::new()
        };
        ServedModel { spec: self.clone(), preprocessing, channel_means, model }
    }
}

/// A model ready to serve: the network plus the input pipeline the
/// training cell used, so served predictions match offline inference
/// bit for bit.
pub struct ServedModel {
    /// The spec this model was built from.
    pub spec: ModelSpec,
    /// Input preprocessing in effect for the cell.
    pub preprocessing: Preprocessing,
    /// Per-channel means (empty unless mean subtraction is in effect).
    pub channel_means: Vec<f32>,
    /// The network itself, in the spec's dtype: an int8 model is a
    /// `Network` whose quantizable layers are `dlbench_quant::Int8Layer`s.
    /// Both dtypes share the fixed-reduction-chain determinism contract,
    /// so predictions are bit-identical across batch sizes and thread
    /// counts either way.
    pub model: Network,
}

struct Entry {
    batcher: MicroBatcher,
    metrics: Arc<ServeMetrics>,
    dtype: ModelDtype,
    calibration: Option<JsonValue>,
}

/// Named models, each behind its own [`MicroBatcher`] and metrics.
#[derive(Default)]
pub struct ModelRegistry {
    entries: BTreeMap<String, Entry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `served` under its spec name, spawning its batcher
    /// worker. Fails if the name is already taken.
    pub fn register(&mut self, served: ServedModel, config: BatchConfig) -> Result<(), ServeError> {
        let name = served.spec.name.clone();
        if self.entries.contains_key(&name) {
            return Err(ServeError::BadInput(format!("model {name:?} already registered")));
        }
        let dtype = served.spec.dtype;
        let calibration = (dtype == ModelDtype::Int8).then(|| calibration_json(&served.model));
        let metrics = Arc::new(ServeMetrics::new());
        let batcher = MicroBatcher::spawn(served, config, Arc::clone(&metrics));
        self.entries.insert(name, Entry { batcher, metrics, dtype, calibration });
        Ok(())
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Routes one request to the named model's batcher and waits for
    /// its prediction.
    pub fn predict(&self, model: &str, input: Vec<f32>) -> Result<Prediction, ServeError> {
        let entry =
            self.entries.get(model).ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        entry.batcher.predict(input)
    }

    /// Live queue depth for the named model, if registered.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        self.entries.get(model).map(|e| e.batcher.queue_depth())
    }

    /// The `/metrics` document: one snapshot per model, keyed by name.
    /// Each snapshot leads with the model's dtype and — for quantized
    /// models — the per-layer calibration statistics.
    pub fn metrics_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries
                .iter()
                .map(|(name, e)| {
                    let mut fields = vec![("dtype".to_string(), JsonValue::from(e.dtype.name()))];
                    if let Some(cal) = &e.calibration {
                        fields.push(("calibration".to_string(), cal.clone()));
                    }
                    match e.metrics.snapshot(e.batcher.queue_depth()) {
                        JsonValue::Object(rest) => fields.extend(rest),
                        other => fields.push(("metrics".to_string(), other)),
                    }
                    (name.clone(), JsonValue::Object(fields))
                })
                .collect(),
        )
    }

    /// Graceful drain: every batcher stops accepting, finishes its
    /// queued requests, and its worker thread is joined.
    pub fn drain(&self) {
        for e in self.entries.values() {
            e.batcher.drain();
        }
    }
}
