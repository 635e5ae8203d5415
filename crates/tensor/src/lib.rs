//! # dlbench-tensor
//!
//! The numeric substrate of the DLBench suite: a small, dependency-light,
//! row-major `f32` tensor library with exactly the operations the paper's
//! reference models need — dense linear algebra (blocked GEMM), fused
//! convolution kernels, elementwise maps, reductions, and a seeded
//! RNG façade so every experiment in the benchmark is reproducible.
//!
//! The design goal is *determinism first*: every operation evaluates
//! each output element in a fixed accumulation order, so a benchmark
//! cell run twice with the same seed produces bit-identical models,
//! accuracies and adversarial success rates. Large kernels execute in
//! parallel (see [`par`]) by partitioning disjoint rows of the output
//! across workers — the thread count changes wall-clock time, never
//! results.
//!
//! ## Example
//!
//! ```
//! use dlbench_tensor::{Tensor, SeededRng};
//!
//! let mut rng = SeededRng::new(7);
//! let a = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
//! let b = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod error;
mod fused;
mod im2col;
mod linalg;
mod ops;
pub mod par;
mod qlinalg;
mod rng;
mod shape;
mod tensor;

pub use error::{Result, TensorError};
pub use fused::{
    conv_backward_data, conv_backward_filter, conv_forward_fused, conv_forward_fused_i8,
    ConvBackward, PackedConvWeight,
};
pub use im2col::{col2im, im2col, Conv2dGeometry};
pub use linalg::{gemm, gemm_a_bt, gemm_at_b};
pub use ops::accuracy;
pub use qlinalg::{dequantize_i8, gemm_i8, quantize_i8};
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;
