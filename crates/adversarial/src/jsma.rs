//! Targeted Jacobian-based Saliency Map Attack (paper Equation (2)).

use dlbench_nn::Network;
use dlbench_tensor::Tensor;

/// JSMA parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JsmaConfig {
    /// Per-step perturbation added to the selected feature.
    pub theta: f32,
    /// Maximum fraction of input features the attack may modify before
    /// giving up (the distortion budget Γ of Papernot et al.).
    pub max_distortion: f32,
    /// Valid input range for clamping (e.g. `(0, 1)`).
    pub clamp: (f32, f32),
}

impl Default for JsmaConfig {
    fn default() -> Self {
        Self { theta: 0.25, max_distortion: 0.15, clamp: (0.0, 1.0) }
    }
}

/// Result of one targeted crafting attempt.
#[derive(Debug, Clone)]
pub struct JsmaOutcome {
    /// Whether the model now predicts the target class.
    pub success: bool,
    /// Saliency-map iterations performed (each costs one forward and
    /// `num_classes` backward passes — the quantity the crafting-time
    /// model charges).
    pub iterations: usize,
    /// The (possibly unsuccessful) final example.
    pub adversarial: Tensor,
}

/// Softmax-probability Jacobian rows `dF_c/dx` for every class, computed
/// by one forward pass and `num_classes` input-gradient passes (the
/// network's caches are reused across them; no parameter gradient is
/// computed).
fn jacobian(net: &mut Network, x: &Tensor, num_classes: usize) -> Vec<Tensor> {
    let logits = net.forward(x, false);
    let probs = logits.softmax_rows();
    let p = probs.data();
    (0..num_classes)
        .map(|c| {
            // dp_c/dz_j = p_c (δ_cj − p_j): seed the logit gradient and
            // let the network's backward produce dp_c/dx.
            let mut seed = Tensor::zeros(logits.shape());
            for j in 0..num_classes {
                let delta = if j == c { 1.0 } else { 0.0 };
                seed.data_mut()[j] = p[c] * (delta - p[j]);
            }
            net.input_grad(0, &seed)
        })
        .collect()
}

/// Crafts a targeted adversarial example pushing single sample `x`
/// (`[1, …]`) toward class `target`.
///
/// Implements the paper's Equation (2): features with a negative target
/// derivative or positive other-class derivative sum are rejected; among
/// the rest, the one maximizing `∂F_t/∂x_i · |Σ_{j≠t} ∂F_j/∂x_i|` is
/// increased by `theta` each iteration.
pub fn jsma(net: &mut Network, x: &Tensor, target: usize, config: &JsmaConfig) -> JsmaOutcome {
    assert_eq!(x.shape()[0], 1, "jsma operates on single samples");
    let num_classes = net.output_shape(x.shape())[1];
    assert!(target < num_classes, "target class out of range");
    let features = x.len();
    let max_iters = ((features as f32) * config.max_distortion).ceil() as usize;

    let mut adv = x.clone();
    let mut saturated = vec![false; features];
    for it in 0..max_iters {
        let pred = net.forward(&adv, false).argmax_rows()[0];
        if pred == target {
            return JsmaOutcome { success: true, iterations: it, adversarial: adv };
        }
        let jac = jacobian(net, &adv, num_classes);
        // Saliency map per Equation (2).
        let mut best: Option<(usize, f32)> = None;
        for (i, &is_saturated) in saturated.iter().enumerate() {
            if is_saturated {
                continue;
            }
            let dt = jac[target].data()[i];
            let others: f32 =
                (0..num_classes).filter(|&j| j != target).map(|j| jac[j].data()[i]).sum();
            if dt < 0.0 || others > 0.0 {
                continue;
            }
            let saliency = dt * others.abs();
            if best.is_none_or(|(_, s)| saliency > s) {
                best = Some((i, saliency));
            }
        }
        let Some((i, _)) = best else {
            // Saliency map empty: the attack is stuck (paper: crafting
            // fails for this source/target pair).
            return JsmaOutcome { success: false, iterations: it + 1, adversarial: adv };
        };
        let v = &mut adv.data_mut()[i];
        *v = (*v + config.theta).clamp(config.clamp.0, config.clamp.1);
        if *v >= config.clamp.1 - 1e-6 {
            saturated[i] = true;
        }
    }
    let success = net.forward(&adv, false).argmax_rows()[0] == target;
    JsmaOutcome { success, iterations: max_iters, adversarial: adv }
}

/// Success-rate row for crafting a fixed `source` digit into every
/// target class (paper Figure 9 / Table IX): for each target ≠ source,
/// the fraction of source-class samples successfully crafted, plus the
/// mean iterations spent per attempt (for Table VIII's crafting time).
pub fn jsma_success_matrix(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    source: usize,
    num_classes: usize,
    config: &JsmaConfig,
) -> (Vec<f32>, f64) {
    let mut successes = vec![0usize; num_classes];
    let mut attempts = 0usize;
    let mut total_iterations = 0u64;
    for (i, &label) in labels.iter().enumerate() {
        if label != source {
            continue;
        }
        let x = images.slice_batch(i);
        if net.forward(&x, false).argmax_rows()[0] != source {
            continue;
        }
        attempts += 1;
        for (target, wins) in successes.iter_mut().enumerate() {
            if target == source {
                continue;
            }
            let outcome = jsma(net, &x, target, config);
            total_iterations += outcome.iterations as u64;
            if outcome.success {
                *wins += 1;
            }
        }
    }
    let rates = successes
        .iter()
        .map(|&s| if attempts == 0 { 0.0 } else { s as f32 / attempts as f32 })
        .collect();
    let mean_iterations = if attempts == 0 {
        0.0
    } else {
        total_iterations as f64 / (attempts * (num_classes - 1)) as f64
    };
    (rates, mean_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Initializer, Linear};
    use dlbench_tensor::SeededRng;

    fn toy_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("jsma-toy");
        net.push(Linear::new(6, 4, Initializer::Xavier, rng));
        net
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let mut rng = SeededRng::new(1);
        let mut net = toy_net(&mut rng);
        let x = Tensor::randn(&[1, 6], 0.0, 1.0, &mut rng);
        let jac = jacobian(&mut net, &x, 4);
        let eps = 1e-3f32;
        for (c, jac_row) in jac.iter().enumerate() {
            for i in 0..6 {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let pp = net.forward(&xp, false).softmax_rows().data()[c];
                let pm = net.forward(&xm, false).softmax_rows().data()[c];
                let num = (pp - pm) / (2.0 * eps);
                let ana = jac_row.data()[i];
                assert!((num - ana).abs() < 1e-3, "J[{c}][{i}]: {num} vs {ana}");
            }
        }
    }

    #[test]
    fn jacobian_rows_sum_to_zero() {
        // Σ_c dp_c/dx_i = 0 because probabilities sum to 1.
        let mut rng = SeededRng::new(2);
        let mut net = toy_net(&mut rng);
        let x = Tensor::randn(&[1, 6], 0.0, 1.0, &mut rng);
        let jac = jacobian(&mut net, &x, 4);
        for i in 0..6 {
            let total: f32 = (0..4).map(|c| jac[c].data()[i]).sum();
            assert!(total.abs() < 1e-5, "column {i} sums to {total}");
        }
    }

    #[test]
    fn already_target_is_immediate_success() {
        let mut rng = SeededRng::new(3);
        let mut net = toy_net(&mut rng);
        let x = Tensor::randn(&[1, 6], 0.0, 1.0, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let outcome = jsma(&mut net, &x, pred, &JsmaConfig::default());
        assert!(outcome.success);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn distortion_budget_bounds_changes() {
        let mut rng = SeededRng::new(4);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 6], 0.0, 0.2, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let target = (pred + 1) % 4;
        let config = JsmaConfig { theta: 0.05, max_distortion: 0.5, clamp: (0.0, 1.0) };
        let outcome = jsma(&mut net, &x, target, &config);
        let changed = outcome
            .adversarial
            .data()
            .iter()
            .zip(x.data())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        // ≤ max_iters features touched (budget = 0.5 * 6 = 3).
        assert!(changed <= 3, "changed {changed}");
        assert!(outcome.iterations <= 3);
    }

    #[test]
    fn values_stay_clamped() {
        let mut rng = SeededRng::new(5);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 6], 0.8, 1.0, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let outcome = jsma(&mut net, &x, (pred + 2) % 4, &JsmaConfig::default());
        assert!(outcome.adversarial.max() <= 1.0 + 1e-6);
        assert!(outcome.adversarial.min() >= 0.0);
    }
}
