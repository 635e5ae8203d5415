//! Train→serve checkpoint promotion with a health gate.
//!
//! A [`Promoter`] consumes rolling checkpoints from a live training run
//! (epoch-boundary snapshots from `dlbench-dist`, streamed through
//! [`dist_training_stream`]) and decides, per candidate, whether the
//! fleet hot-swaps to it:
//!
//! 1. **Finite parameters** — `dlbench_verify::Verifier::check_model`
//!    rejects NaN/Inf-poisoned checkpoints outright.
//! 2. **Finite logits** — a forward pass over a held-out shard must
//!    produce finite outputs.
//! 3. **Accuracy floor** — holdout accuracy must clear the configured
//!    floor, so a regressed checkpoint never replaces a healthier one.
//!
//! A rejected candidate leaves the fleet untouched: the old version
//! keeps serving, which the promotion test suite pins down.

use crate::fleet::Fleet;
use dlbench_data::{Dataset, Preprocessing};
use dlbench_dist::{run_dist_training_observed, DistConfig, DistOutcome};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_nn::Network;
use dlbench_serve::ModelSpec;
use dlbench_tensor::Tensor;
use dlbench_trace::{span, Category};
use dlbench_verify::Verifier;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use dlbench_data::DatasetKind;

/// Health-gate tuning.
#[derive(Debug, Clone, Copy)]
pub struct HealthGateConfig {
    /// Minimum holdout accuracy a candidate must reach (chance on the
    /// ten-class datasets is 0.1).
    pub min_accuracy: f32,
    /// Holdout shard size (taken from the head of the test split).
    pub holdout: usize,
}

impl Default for HealthGateConfig {
    fn default() -> Self {
        Self { min_accuracy: 0.15, holdout: 64 }
    }
}

/// The candidate screen: finite parameters, finite logits on a holdout
/// shard, and an accuracy floor.
pub struct HealthGate {
    images: Tensor,
    labels: Vec<usize>,
    preprocessing: Preprocessing,
    channel_means: Vec<f32>,
    min_accuracy: f32,
}

impl HealthGate {
    /// Builds the gate's holdout shard for `spec` (the same data
    /// pipeline the fleet serves with, so gate accuracy is serving
    /// accuracy).
    pub fn new(spec: &ModelSpec, config: HealthGateConfig) -> Self {
        let (train, test) = trainer::generate_data(spec.dataset, spec.scale, spec.seed);
        let preprocessing =
            trainer::effective_preprocessing(spec.host, &spec.setting, spec.dataset);
        let channel_means = preprocessing.means_for(&train);
        let (images, labels) = holdout_shard(&test, config.holdout);
        Self { images, labels, preprocessing, channel_means, min_accuracy: config.min_accuracy }
    }

    /// Screens one candidate model. Returns its holdout accuracy, or
    /// the reason it was rejected.
    ///
    /// Every candidate runs the parameter verifier first. On an int8
    /// candidate (a quantized checkpoint on an int8 fleet) that covers
    /// the remaining fp32 layers' parameters — int8 layers hold none —
    /// and the finite-logits and accuracy-floor checks run on the
    /// quantized network exactly as it will serve.
    pub fn check(&self, model: &mut Network) -> Result<f32, String> {
        let _s = span(Category::Fleet, "health_gate");
        Verifier::check_model(model).map_err(|e| format!("model check failed: {e}"))?;
        let x = self.preprocessing.apply(&self.images, &self.channel_means);
        let logits = model.forward(&x, false);
        if logits.has_non_finite() {
            return Err("non-finite logits on the holdout shard".to_string());
        }
        let preds = logits.argmax_rows();
        let correct = preds.iter().zip(&self.labels).filter(|(p, l)| p == l).count();
        let accuracy = correct as f32 / self.labels.len().max(1) as f32;
        if accuracy < self.min_accuracy {
            return Err(format!(
                "holdout accuracy {accuracy:.3} below the {:.3} floor",
                self.min_accuracy
            ));
        }
        Ok(accuracy)
    }
}

fn holdout_shard(test: &Dataset, holdout: usize) -> (Tensor, Vec<usize>) {
    let n = test.len().min(holdout.max(1));
    let idx: Vec<usize> = (0..n).collect();
    test.gather(&idx)
}

/// What happened to one offered candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum PromotionOutcome {
    /// The candidate cleared the gate and every replica now serves it.
    Promoted {
        /// Fleet version the candidate became.
        version: u64,
        /// Training epochs completed when the checkpoint was taken.
        epoch: usize,
        /// Holdout accuracy the gate measured.
        accuracy: f32,
        /// Requests carried across swaps without being dropped.
        requeued: usize,
    },
    /// The candidate was rejected; the fleet is untouched.
    Rejected {
        /// Training epochs completed when the checkpoint was taken.
        epoch: usize,
        /// Why the gate (or the checkpoint load) refused it.
        reason: String,
    },
}

/// Health-gates candidates and hot-swaps the fleet when they pass.
pub struct Promoter {
    fleet: Arc<Fleet>,
    gate: HealthGate,
}

impl Promoter {
    /// A promoter for `fleet`, gating with `config`.
    pub fn new(fleet: Arc<Fleet>, config: HealthGateConfig) -> Self {
        let gate = HealthGate::new(fleet.spec(), config);
        Self { fleet, gate }
    }

    /// Offers one checkpoint candidate taken after `epoch` epochs.
    pub fn offer(&self, epoch: usize, bytes: &[u8]) -> PromotionOutcome {
        let _s = span(Category::Fleet, "promotion_offer");
        let mut cursor = bytes;
        let mut served = match self.fleet.spec().instantiate_from(&mut cursor) {
            Ok(served) => served,
            Err(e) => {
                return PromotionOutcome::Rejected {
                    epoch,
                    reason: format!("checkpoint unreadable: {e}"),
                }
            }
        };
        let accuracy = match self.gate.check(&mut served.model) {
            Ok(acc) => acc,
            Err(reason) => return PromotionOutcome::Rejected { epoch, reason },
        };
        match self.fleet.promote(bytes) {
            Ok((version, requeued)) => {
                PromotionOutcome::Promoted { version, epoch, accuracy, requeued }
            }
            Err(e) => PromotionOutcome::Rejected { epoch, reason: format!("swap failed: {e}") },
        }
    }
}

/// One rolling checkpoint from a live training run.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Training epochs completed when the snapshot was taken.
    pub epoch: usize,
    /// Serialized parameters.
    pub bytes: Vec<u8>,
    /// Whether this is the run's final checkpoint.
    pub is_final: bool,
}

/// Starts a `dist-train` run on a background thread, streaming its
/// epoch-boundary checkpoints (every `every` epochs) plus the final
/// checkpoint as [`Candidate`]s. Join the handle for the
/// [`DistOutcome`]; the channel closes when training ends.
pub fn dist_training_stream(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    every: usize,
    dcfg: DistConfig,
) -> (JoinHandle<Result<DistOutcome, String>>, mpsc::Receiver<Candidate>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let every = every.max(1);
        let outcome = run_dist_training_observed(
            host,
            setting,
            dataset,
            scale,
            seed,
            &dcfg,
            Some(every),
            |epoch, bytes| {
                // A gone receiver just means nobody is promoting
                // anymore; training carries on regardless.
                let _ = tx.send(Candidate { epoch, bytes, is_final: false });
            },
        );
        if let Ok(out) = &outcome {
            let iters_per_epoch =
                (scale.train_samples(dataset) / setting.training().batch_size).max(1);
            let epoch = out.executed_iterations / iters_per_epoch;
            let _ = tx.send(Candidate { epoch, bytes: out.checkpoint.clone(), is_final: true });
        }
        outcome
    });
    (handle, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_serve::ModelDtype;

    #[test]
    fn int8_candidates_pass_the_verifier_and_the_gate() {
        let spec = ModelSpec::own_default(
            "m",
            FrameworkKind::TensorFlow,
            DatasetKind::Mnist,
            Scale::Tiny,
            42,
        )
        .with_dtype(ModelDtype::Int8);
        let mut served = spec.instantiate(None).unwrap();
        Verifier::check_model(&mut served.model).unwrap();
        let gate = HealthGate::new(&spec, HealthGateConfig { min_accuracy: 0.0, holdout: 16 });
        let accuracy = gate.check(&mut served.model).unwrap();
        assert!((0.0..=1.0).contains(&accuracy));
    }
}
