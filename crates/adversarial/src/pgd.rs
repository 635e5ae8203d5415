//! Projected Gradient Descent attack (Madry et al., 2017 — the paper's
//! reference [33]).
//!
//! PGD is FGSM iterated with an L∞ projection back into the ε-ball
//! around the original input: the strongest first-order untargeted
//! attack in the paper's citation set, included here as the benchmark's
//! "beyond" extension for stress-testing robustness rankings obtained
//! with single-step FGSM.

use crate::fgsm::{campaign, perturbation_split, sign_step, FgsmReport};
use crate::report::ConfusionRates;
use dlbench_nn::Network;
use dlbench_tensor::{SeededRng, Tensor};

/// PGD parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgdConfig {
    /// L∞ ball radius around the original input.
    pub epsilon: f32,
    /// Per-step size (typically `epsilon / 4`).
    pub step: f32,
    /// Number of gradient steps.
    pub steps: usize,
    /// Randomize the starting point inside the ε-ball (Madry-style).
    pub random_start: bool,
    /// Valid input range for clamping, if any.
    pub clamp: Option<(f32, f32)>,
}

impl PgdConfig {
    /// A canonical configuration: 10 steps of ε/4 with random start.
    pub fn standard(epsilon: f32) -> Self {
        Self {
            epsilon,
            step: epsilon / 4.0,
            steps: 10,
            random_start: true,
            clamp: Some((0.0, 1.0)),
        }
    }
}

/// Crafts one untargeted PGD example for a single sample, perturbing
/// at the same layer as FGSM (see [`FgsmReport::split`]).
pub fn pgd(
    net: &mut Network,
    x: &Tensor,
    label: usize,
    config: &PgdConfig,
    rng: &mut SeededRng,
) -> FgsmReport {
    assert_eq!(x.shape()[0], 1, "pgd operates on single samples");
    let split = perturbation_split(net);
    let clean = net.forward_prefix(split, x, false);
    let original_pred = net.forward_from(split, &clean, false).argmax_rows()[0];

    let mut adv = clean.clone();
    if config.random_start {
        for v in adv.data_mut() {
            *v += rng.uniform(-config.epsilon, config.epsilon);
        }
    }
    for _ in 0..config.steps {
        let logits = net.forward_from(split, &adv, false);
        sign_step(net, split, &logits, label, config.step, &mut adv);
        // Project back into the eps-ball, then into the valid range.
        for (v, &orig) in adv.data_mut().iter_mut().zip(clean.data()) {
            *v = v.clamp(orig - config.epsilon, orig + config.epsilon);
        }
        if let Some((lo, hi)) = config.clamp {
            adv.clamp_inplace(lo, hi);
        }
    }
    let adversarial_pred = net.forward_from(split, &adv, false).argmax_rows()[0];
    FgsmReport {
        adversarial: adv,
        split,
        original_pred,
        adversarial_pred,
        // Same semantics as `fgsm`: success is a changed prediction,
        // not disagreement with the label.
        success: adversarial_pred != original_pred,
    }
}

/// PGD campaign over a labelled set (same predict-first tallying as
/// FGSM's: a skipped sample costs no PGD iterations and draws nothing
/// from `rng`).
pub fn pgd_success_rates(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    num_classes: usize,
    config: &PgdConfig,
    rng: &mut SeededRng,
) -> ConfusionRates {
    campaign(net, inputs, labels, num_classes, |net, x, label| pgd(net, x, label, config, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgsm::tests::{text_net, tokens};
    use crate::fgsm::{fgsm, FgsmConfig};
    use dlbench_nn::{Initializer, Linear, Relu};

    fn toy_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("pgd-toy");
        net.push(Linear::new(6, 8, Initializer::Xavier, rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 4, Initializer::Xavier, rng));
        net
    }

    #[test]
    fn stays_in_epsilon_ball() {
        let mut rng = SeededRng::new(1);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 6], 0.2, 0.8, &mut rng);
        let config = PgdConfig { clamp: None, ..PgdConfig::standard(0.1) };
        let report = pgd(&mut net, &x, 0, &config, &mut rng);
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            assert!((a - b).abs() <= 0.1 + 1e-5);
        }
    }

    #[test]
    fn token_model_stays_in_ball_and_beats_or_ties_fgsm() {
        let mut rng = SeededRng::new(3);
        let mut net = text_net(&mut rng);
        let eps = 0.4;
        let mut fgsm_wins = 0;
        let mut pgd_wins = 0;
        for i in 0..12 {
            let x = tokens(&mut rng.fork(100 + i), 1, 6);
            let label = net.forward(&x, false).argmax_rows()[0];
            let clean = net.forward_prefix(1, &x, false);
            let f = fgsm(&mut net, &x, label, &FgsmConfig { epsilon: eps, clamp: None });
            let cfg = PgdConfig { random_start: false, clamp: None, ..PgdConfig::standard(eps) };
            let p = pgd(&mut net, &x, label, &cfg, &mut rng);
            assert_eq!(p.split, 1);
            for (a, b) in p.adversarial.data().iter().zip(clean.data()) {
                assert!((a - b).abs() <= eps + 1e-5);
            }
            fgsm_wins += f.success as usize;
            pgd_wins += p.success as usize;
        }
        assert!(pgd_wins >= fgsm_wins, "PGD {pgd_wins} < FGSM {fgsm_wins}");
    }

    #[test]
    fn clamped_outputs_valid() {
        let mut rng = SeededRng::new(3);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 6], 0.0, 1.0, &mut rng);
        let report = pgd(&mut net, &x, 1, &PgdConfig::standard(0.5), &mut rng);
        assert!(report.adversarial.min() >= 0.0);
        assert!(report.adversarial.max() <= 1.0);
    }

    #[test]
    fn campaign_skips_misclassified() {
        let mut rng = SeededRng::new(4);
        let mut net = toy_net(&mut rng);
        let images = Tensor::rand_uniform(&[5, 6], 0.0, 1.0, &mut rng);
        let preds = net.forward(&images, false).argmax_rows();
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 4).collect();
        let rates =
            pgd_success_rates(&mut net, &images, &wrong, 4, &PgdConfig::standard(0.1), &mut rng);
        assert_eq!(rates.total_attempts(), 0);
    }
}
