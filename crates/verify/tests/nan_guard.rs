//! End-to-end check of the `--verify` invariant guard: a NaN injected
//! into the model mid-training is flagged within one epoch.

use dlbench_core::BenchmarkRunner;
use dlbench_data::DatasetKind;
use dlbench_frameworks::{FrameworkKind, GuardCtx, Scale, TrainGuard, Verifier};
use std::sync::Arc;

/// Sabotages the model at the end of a chosen epoch, then runs the real
/// [`Verifier`] checks — exactly what a production `--verify` run would
/// see if a kernel bug produced a NaN.
struct NanInjector {
    inject_at_epoch: usize,
    verifier: Verifier,
}

impl TrainGuard for NanInjector {
    fn after_epoch(&self, ctx: &mut GuardCtx<'_>) -> Result<(), String> {
        if ctx.epoch == self.inject_at_epoch {
            ctx.model.params()[0].value.data_mut()[0] = f32::NAN;
        }
        self.verifier.after_epoch(ctx)
    }
}

#[test]
fn injected_nan_is_flagged_within_one_epoch() {
    let mut runner = BenchmarkRunner::new(Scale::Tiny, 42);
    runner.set_guard(Arc::new(NanInjector { inject_at_epoch: 0, verifier: Verifier::new() }));
    let key = BenchmarkRunner::own_default_key(FrameworkKind::Torch, DatasetKind::Mnist);
    let violations = runner.with_outcome(key, |out| out.guard_violations.clone());
    assert_eq!(violations.len(), 1, "{violations:?}");
    // Caught at the very epoch the NaN appeared.
    assert!(violations[0].contains("epoch 0"), "{violations:?}");
    assert!(violations[0].contains("NaN"), "{violations:?}");
    // And surfaced through the runner-level aggregation.
    let all = runner.violations();
    assert_eq!(all.len(), 1);
    assert!(all[0].starts_with("Torch"), "{all:?}");
}

#[test]
fn clean_training_passes_verifier() {
    let mut runner = BenchmarkRunner::new(Scale::Tiny, 42);
    runner.set_guard(Arc::new(Verifier::new()));
    let key = BenchmarkRunner::own_default_key(FrameworkKind::Torch, DatasetKind::Mnist);
    let violations = runner.with_outcome(key, |out| out.guard_violations.clone());
    assert!(violations.is_empty(), "{violations:?}");
    assert!(runner.violations().is_empty());
}
