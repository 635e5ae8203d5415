//! # dlbench-quant
//!
//! Int8 post-training quantization for the DLBench suite — the
//! subsystem that lets every framework personality be measured on the
//! paper's three metric groups (speed, accuracy, adversarial
//! robustness) under the quantized deployments that dominate real
//! serving.
//!
//! The pipeline:
//!
//! ```text
//! trained fp32 Network ──▶ calibration pass (held-out shard)
//!                              │ per-layer RangeObserver:
//!                              │ min/max + EMA percentile range
//!                              ▼
//!               the same Network, layers replaced in place:
//!       Linear/Conv2d/Embedding/Conv1dBank → Int8Layer (symmetric
//!                        weights, affine activations, i32-accumulate
//!                        gemm_i8 / fused int8 conv, requantize between
//!                        layers); everything else stays fp32
//! ```
//!
//! * Weights are quantized **symmetrically per tensor** (`zero_point =
//!   0`, scale `max|w| / 127`); activations **affinely** from the
//!   calibrated range, so the quantized layer computes
//!   `y = s_x·s_w·(Σ x_q·w_q − z_x·Σ w_q) + bias` with a single
//!   [`dlbench_tensor::gemm_i8`] (or, for convolutions,
//!   [`dlbench_tensor::conv_forward_fused_i8`]) in i32.
//! * Determinism: i32 accumulation is exact, quantize/dequantize are
//!   per-element, and the remaining fp32 layers keep the suite's
//!   fixed-reduction-chain contract — quantized inference is
//!   bit-identical across thread counts and batch sizes (enforced by
//!   the determinism gate).
//! * An int8 model is an ordinary [`dlbench_nn::Network`], so it runs
//!   through the fp32 code (`Network::forward`/`forward_from`,
//!   `trainer::evaluate`); [`Int8Layer`]s are inference-only.
//! * [`quantize_checkpoint`] builds one from any personality
//!   checkpoint; [`to_entries`] and `dlbench-nn`'s version-2 checkpoint
//!   format persist it (scales, zero points and calibration stats
//!   included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod layers;
mod network;
mod observer;
mod qtensor;

pub use convert::{
    cost_split, quantize_checkpoint, quantize_network, quantize_trained, QuantConfig,
};
pub use layers::{im2col_i8, QConv1dBank, QConv2d};
pub use network::{calibration, calibration_json, to_entries, Int8Layer, LayerCalibration};

/// The int8 model [`quantize_network`] returns: an ordinary
/// [`dlbench_nn::Network`] whose quantizable layers are [`Int8Layer`]s.
/// The name stays for callers that spell the int8 model's type out.
pub type QuantizedNetwork = dlbench_nn::Network;
