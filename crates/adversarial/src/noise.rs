//! Random-noise "attack" baseline.
//!
//! The paper's robustness metric covers "targeted attacks and random
//! (untargeted) attacks". Random perturbations of the same L∞ magnitude
//! as FGSM are the control condition: a model whose accuracy collapses
//! under random noise is fragile independent of gradients, while the
//! FGSM-minus-noise gap isolates the *adversarial* component of the
//! vulnerability.

use crate::fgsm::{campaign, FgsmReport};
use crate::report::ConfusionRates;
use dlbench_nn::Network;
use dlbench_tensor::{SeededRng, Tensor};

/// Random-perturbation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// L∞ magnitude of the perturbation (compare with FGSM's ε).
    pub epsilon: f32,
    /// Sign-noise (`±ε`, matching FGSM's step geometry) vs uniform in
    /// `[-ε, ε]`.
    pub sign_noise: bool,
    /// Valid input range for clamping.
    pub clamp: Option<(f32, f32)>,
}

/// Perturbs one sample (`x` is `[1, …]`) at its input with random
/// noise and reports the prediction flip as the gradient attacks do:
/// success is a changed prediction, not disagreement with a label.
pub fn noise_attack(
    net: &mut Network,
    x: &Tensor,
    config: &NoiseConfig,
    rng: &mut SeededRng,
) -> FgsmReport {
    assert_eq!(x.shape()[0], 1, "noise_attack operates on single samples");
    let original_pred = net.forward(x, false).argmax_rows()[0];
    let mut adversarial = x.clone();
    for v in adversarial.data_mut() {
        let delta = if config.sign_noise {
            if rng.bernoulli(0.5) {
                config.epsilon
            } else {
                -config.epsilon
            }
        } else {
            rng.uniform(-config.epsilon, config.epsilon)
        };
        *v += delta;
    }
    if let Some((lo, hi)) = config.clamp {
        adversarial.clamp_inplace(lo, hi);
    }
    let adversarial_pred = net.forward(&adversarial, false).argmax_rows()[0];
    FgsmReport {
        adversarial,
        split: 0,
        original_pred,
        adversarial_pred,
        success: adversarial_pred != original_pred,
    }
}

/// Noise campaign over a labelled set, through the gradient attacks'
/// predict-first loop: only the correctly classified samples are
/// perturbed, so a skipped sample draws nothing from `rng`.
pub fn noise_success_rates(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    num_classes: usize,
    config: &NoiseConfig,
    rng: &mut SeededRng,
) -> ConfusionRates {
    campaign(net, images, labels, num_classes, |net, x, _| noise_attack(net, x, config, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Initializer, Linear};

    fn toy_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("noise-toy");
        net.push(Linear::new(6, 4, Initializer::Xavier, rng));
        net
    }

    #[test]
    fn zero_epsilon_never_flips() {
        let mut rng = SeededRng::new(1);
        let mut net = toy_net(&mut rng);
        let images = Tensor::rand_uniform(&[10, 6], 0.0, 1.0, &mut rng);
        let labels = net.forward(&images, false).argmax_rows();
        let config = NoiseConfig { epsilon: 0.0, sign_noise: true, clamp: None };
        let rates = noise_success_rates(&mut net, &images, &labels, 4, &config, &mut rng);
        assert_eq!(rates.mean_success_rate(), 0.0);
        assert_eq!(rates.total_attempts(), 10);
    }

    #[test]
    fn perturbation_bounded() {
        let mut rng = SeededRng::new(2);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 6], 0.3, 0.7, &mut rng);
        let config = NoiseConfig { epsilon: 0.1, sign_noise: false, clamp: None };
        let before = x.clone();
        let report = noise_attack(&mut net, &x, &config, &mut rng);
        assert_eq!(x, before, "input must not be mutated");
        assert_eq!(report.split, 0, "noise perturbs the input");
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            assert!((a - b).abs() <= 0.1 + 1e-6);
        }
        assert_eq!(report.success, report.adversarial_pred != report.original_pred);
    }

    #[test]
    fn misclassified_samples_draw_no_noise() {
        let mut rng = SeededRng::new(4);
        let mut net = toy_net(&mut rng);
        let images = Tensor::rand_uniform(&[8, 6], 0.0, 1.0, &mut rng);
        let labels = net.forward(&images, false).argmax_rows();
        // The same set behind one sample under a wrong label.
        let extra = Tensor::rand_uniform(&[1, 6], 0.0, 1.0, &mut rng);
        let wrong = (net.forward(&extra, false).argmax_rows()[0] + 1) % 4;
        let padded = Tensor::concat0(&[&extra, &images]).unwrap();
        let padded_labels: Vec<usize> = std::iter::once(wrong).chain(labels.clone()).collect();
        let config = NoiseConfig { epsilon: 0.8, sign_noise: false, clamp: Some((0.0, 1.0)) };
        // The campaign's rates and where it leaves the noise stream.
        let mut run = |images: &Tensor, labels: &[usize]| {
            let mut draws = SeededRng::new(99);
            let rates = noise_success_rates(&mut net, images, labels, 4, &config, &mut draws);
            (rates, draws.uniform(0.0, 1.0).to_bits())
        };
        let (rates, next) = run(&images, &labels);
        assert_eq!(rates.total_attempts(), 8);
        assert_eq!(run(&padded, &padded_labels), (rates, next));
    }

    #[test]
    fn large_noise_flips_some_predictions() {
        let mut rng = SeededRng::new(3);
        let mut net = toy_net(&mut rng);
        let images = Tensor::rand_uniform(&[40, 6], 0.0, 1.0, &mut rng);
        let labels = net.forward(&images, false).argmax_rows();
        let config = NoiseConfig { epsilon: 2.0, sign_noise: true, clamp: None };
        let rates = noise_success_rates(&mut net, &images, &labels, 4, &config, &mut rng);
        assert!(rates.mean_success_rate() > 0.1, "huge noise should flip something");
    }
}
