//! # dlbench-frameworks
//!
//! The three **framework personalities** — TensorFlow, Caffe and Torch —
//! that DLBench benchmarks, reimplemented from scratch on the shared
//! `dlbench-nn` substrate.
//!
//! A personality bundles everything the paper shows travels with a
//! framework:
//!
//! * **Metadata** (paper Table I): version, backing library, interfaces,
//!   lines of code, license.
//! * **Default training hyperparameters** (Tables II/III): optimizer,
//!   base learning rate and schedule, batch size, iteration budget,
//!   regularizer, input preprocessing.
//! * **Default network architectures** (Tables IV/V), encoded as
//!   [`ArchSpec`] data so they can be instantiated at any input size
//!   (the fully-connected stages take their input dimensions from the
//!   output shapes the built `dlbench-nn` layers report, exactly
//!   reproducing the paper's dimensions at the native 28×28 / 32×32
//!   sizes).
//! * **Weight initialization scheme** and **execution profile** (for the
//!   simulated device timing model).
//!
//! The [`trainer`] module runs any *(host framework, default setting,
//! dataset, device)* cell — the unit of measurement for every figure and
//! table in the paper — and reports the three metric groups.
//!
//! ## Example
//!
//! ```
//! use dlbench_frameworks::{DefaultSetting, FrameworkKind, Scale, trainer};
//! use dlbench_data::DatasetKind;
//! use dlbench_simtime::devices;
//!
//! // TensorFlow training MNIST with its own MNIST default setting.
//! let host = FrameworkKind::TensorFlow;
//! let setting = DefaultSetting::new(host, DatasetKind::Mnist);
//! let outcome = trainer::run_training(host, setting, DatasetKind::Mnist, Scale::Tiny, 42);
//! assert!(outcome.accuracy > 0.2, "tiny-scale training should beat chance");
//! assert!(outcome.simulated_times(&devices::gtx_1080_ti()).train_seconds > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod defaults;
mod kind;
mod scale;
mod spec;
pub mod trainer;
mod verifier;

pub use defaults::{arch_defaults, training_defaults, DefaultSetting, Regularizer, TrainingConfig};
pub use kind::{FrameworkKind, FrameworkMeta};
pub use scale::Scale;
pub use spec::{ArchSpec, LayerSpecEntry};
pub use trainer::{GuardCtx, TrainGuard};
pub use verifier::Verifier;
