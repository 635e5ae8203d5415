//! # dlbench-core
//!
//! The DLBench benchmark suite — the paper's primary contribution,
//! reimplemented as a library: the three metric groups (runtime
//! performance, learning accuracy, adversarial robustness), the
//! configuration-cross methodology (own / dataset-dependent /
//! framework-dependent default settings), an experiment registry with
//! one entry per table and figure of the paper, and report rendering.
//!
//! ## Architecture
//!
//! * [`runner::BenchmarkRunner`] — runs and memoizes training cells
//!   (device-independent), then derives per-device simulated timings.
//! * [`experiments`] — one function per paper table/figure, each
//!   returning a structured [`report::ExperimentReport`].
//! * [`registry`] — enumerates the experiments (`fig1` … `table_ix`) so
//!   harnesses can run "everything the paper reports".
//! * [`report`] — paper-style ASCII rendering plus JSON export.
//! * [`spec`] — declarative run-spec grids expanded into content-hashed,
//!   cached cells. Core sits above every engine it orchestrates, so each
//!   cell runs by a direct call: the trainer, the data-parallel driver,
//!   the `dlbench-serve` HTTP tier or the `dlbench-fleet` simulator.
//!
//! ## Example
//!
//! ```no_run
//! use dlbench_core::registry::ExperimentId;
//! use dlbench_core::runner::BenchmarkRunner;
//! use dlbench_frameworks::Scale;
//!
//! let mut runner = BenchmarkRunner::new(Scale::Small, 42);
//! let report = ExperimentId::Fig1.run(&mut runner);
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod experiments;
pub mod extensions;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;

pub use dist::dist_report;
pub use metrics::CellMetrics;
pub use registry::ExperimentId;
pub use report::ExperimentReport;
pub use runner::BenchmarkRunner;
pub use spec::{ExperimentSpec, Plan, SpecRun};
