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
//!                     QuantizedNetwork
//!       Linear/Conv2d → int8 (symmetric weights, affine activations,
//!                        i32-accumulate gemm_i8 / fused int8 conv,
//!                        requantize between layers); everything
//!                        else → fp32 fallback
//! ```
//!
//! * Weights are quantized **symmetrically per tensor** (`zero_point =
//!   0`, scale `max|w| / 127`); activations **affinely** from the
//!   calibrated range, so the quantized layer computes
//!   `y = s_x·s_w·(Σ x_q·w_q − z_x·Σ w_q) + bias` with a single
//!   [`dlbench_tensor::gemm_i8`] (or, for convolutions,
//!   [`dlbench_tensor::conv_forward_fused_i8`]) in i32.
//! * Determinism: i32 accumulation is exact, quantize/dequantize are
//!   per-element, and the fp32 fallback layers keep the suite's
//!   fixed-reduction-chain contract — quantized inference is
//!   bit-identical across thread counts and batch sizes (enforced by
//!   the determinism gate).
//! * [`quantize_checkpoint`] builds a [`QuantizedNetwork`] from any
//!   personality checkpoint; `dlbench-nn`'s version-2 checkpoint format
//!   persists the result (scales, zero points and calibration stats
//!   included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod layers;
mod network;
mod observer;
mod qtensor;

pub use convert::{
    calibration_shard, cost_split, quantize_checkpoint, quantize_checkpoint_path, quantize_network,
    quantize_trained, QuantConfig,
};
pub use layers::{im2col_i8, QConv1dBank, QConv2d, QEmbedding, QLayer, QLinear};
pub use network::{LayerCalibration, QuantizedNetwork};
pub use observer::RangeObserver;
pub use qtensor::QTensor;
