//! # dlbench-verify
//!
//! Correctness tooling for the DLBench substrate — the gate every
//! benchmark result passes before it is trusted:
//!
//! * [`gradcheck`] — central-difference gradient checking for every
//!   layer, the loss, and whole networks ([`gradcheck_layer`],
//!   [`gradcheck_loss`], [`gradcheck_network`]).
//! * [`golden`] — golden-trace regression: regenerates paper artifacts
//!   at `Scale::Tiny` and diffs their JSON byte-for-byte (and
//!   field-by-field on mismatch) against goldens committed under
//!   `tests/goldens/`; `DLBENCH_BLESS=1` rewrites them.
//!
//! The runtime guard that `--verify` installs, `Verifier`, lives in
//! `dlbench-frameworks` next to the `TrainGuard` trait it implements:
//! the fleet's promotion gate runs it too, and this crate depends on
//! `dlbench-core` (for the goldens), which sits above the fleet.
//!
//! A benchmark that mis-reports accuracy or attack success is worse
//! than no benchmark; this crate exists so the numbers in the reports
//! can be traced back to checked math.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod gradcheck;

pub use gradcheck::{
    gradcheck_layer, gradcheck_loss, gradcheck_network, GradCheckConfig, GradCheckReport,
    ParamCheck,
};
