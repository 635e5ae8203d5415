//! Runtime invariant guards: the [`Verifier`] hook that `--verify`
//! installs into `BenchmarkRunner`.

use crate::trainer::{GuardCtx, TrainGuard};
use dlbench_nn::Network;

/// Production invariant guard, checked at every training epoch
/// boundary:
///
/// * the epoch's loss is finite;
/// * every parameter tensor holds only finite values;
/// * every gradient tensor holds only finite values;
/// * every gradient has the same shape as its parameter.
///
/// The first violated invariant is reported (with the epoch it was
/// caught at) and recorded in the run's `guard_violations`; training
/// itself continues so reports still carry curves and timings.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verifier;

impl Verifier {
    /// Creates the guard.
    pub fn new() -> Self {
        Verifier
    }

    /// Runs the model-state invariants (everything except the loss
    /// check) against a network. Exposed so tests and ad-hoc tools can
    /// validate a model outside a training loop.
    pub fn check_model(model: &mut Network) -> Result<(), String> {
        for (i, p) in model.params().iter().enumerate() {
            if p.value.has_non_finite() {
                return Err(format!("parameter tensor #{i} contains NaN/Inf values"));
            }
            if p.grad.has_non_finite() {
                return Err(format!("gradient tensor #{i} contains NaN/Inf values"));
            }
            if p.value.shape() != p.grad.shape() {
                return Err(format!(
                    "parameter tensor #{i}: value shape {:?} != gradient shape {:?}",
                    p.value.shape(),
                    p.grad.shape()
                ));
            }
        }
        Ok(())
    }
}

impl TrainGuard for Verifier {
    fn after_epoch(&self, ctx: &mut GuardCtx<'_>) -> Result<(), String> {
        if !ctx.loss.is_finite() {
            return Err(format!("epoch {}: non-finite loss {}", ctx.epoch, ctx.loss));
        }
        Self::check_model(ctx.model).map_err(|msg| format!("epoch {}: {msg}", ctx.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Initializer, Linear};
    use dlbench_tensor::SeededRng;

    fn tiny_net() -> Network {
        let mut rng = SeededRng::new(1);
        let mut net = Network::new("tiny");
        net.push(Linear::new(4, 3, Initializer::Xavier, &mut rng));
        net
    }

    #[test]
    fn healthy_model_passes() {
        let mut net = tiny_net();
        assert_eq!(Verifier::check_model(&mut net), Ok(()));
    }

    #[test]
    fn nan_weight_is_flagged() {
        let mut net = tiny_net();
        net.params()[0].value.data_mut()[0] = f32::NAN;
        let err = Verifier::check_model(&mut net).unwrap_err();
        assert!(err.contains("parameter tensor #0"), "{err}");
    }

    #[test]
    fn inf_gradient_is_flagged() {
        let mut net = tiny_net();
        net.params()[1].grad.data_mut()[0] = f32::INFINITY;
        let err = Verifier::check_model(&mut net).unwrap_err();
        assert!(err.contains("gradient tensor #1"), "{err}");
    }

    #[test]
    fn non_finite_loss_is_flagged() {
        let mut net = tiny_net();
        let guard = Verifier::new();
        let mut ctx = GuardCtx { epoch: 3, iteration: 40, loss: f32::NAN, model: &mut net };
        let err = guard.after_epoch(&mut ctx).unwrap_err();
        assert!(err.contains("epoch 3"), "{err}");
        assert!(err.contains("non-finite loss"), "{err}");
    }
}
