//! Untargeted Fast Gradient Sign Method (paper Equation (1)).

use crate::report::ConfusionRates;
use dlbench_nn::{Embedding, Network, SoftmaxCrossEntropy};
use dlbench_tensor::Tensor;

/// FGSM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FgsmConfig {
    /// Perturbation magnitude ε (the paper's §III.E uses 0.001 on raw
    /// MNIST pixels; calibrate per input pipeline).
    pub epsilon: f32,
    /// Optional clamp range keeping the adversarial example a valid
    /// input (e.g. `(0, 1)` for raw pixels; `None` for standardized
    /// inputs).
    pub clamp: Option<(f32, f32)>,
}

/// Result of one FGSM (or PGD, or random-noise) crafting attempt.
#[derive(Debug, Clone)]
pub struct FgsmReport {
    /// The crafted example (FGSM's `x + ε·sign(∇ₓL)`), taken at layer
    /// `split`.
    pub adversarial: Tensor,
    /// Index of the layer `adversarial` enters: 0 for pixel models,
    /// where it is an input; past the leading embedding for token
    /// models, where it holds perturbed embedding activations. Replay
    /// it with `net.forward_from(split, &adversarial, false)`.
    pub split: usize,
    /// Model prediction on the original input.
    pub original_pred: usize,
    /// Model prediction on the adversarial input.
    pub adversarial_pred: usize,
    /// Whether the prediction changed (untargeted success).
    pub success: bool,
}

/// Where the gradient attacks perturb: past the network's leading
/// [`Embedding`] layers. Token ids are discrete and an embedding lookup
/// has a zero input gradient, so a token model is attacked in the
/// continuous embedding space (Miyato et al., 2017); a pixel model,
/// which starts with no embedding, at its input.
pub(crate) fn perturbation_split(net: &Network) -> usize {
    net.layers().iter().take_while(|l| l.as_any().is::<Embedding>()).count()
}

/// One ascent step: backpropagates the loss of `logits` (the forward
/// pass from `split` that produced them must be the network's last) to
/// `split`, computing no parameter gradient, and moves `adv` by
/// `step·sign(∇L)`.
pub(crate) fn sign_step(
    net: &mut Network,
    split: usize,
    logits: &Tensor,
    label: usize,
    step: f32,
    adv: &mut Tensor,
) {
    let mut loss = SoftmaxCrossEntropy::new();
    loss.forward(logits, &[label]);
    let grad = net.input_grad(split, &loss.backward());
    for (v, &g) in adv.data_mut().iter_mut().zip(grad.data()) {
        *v += step * sign(g);
    }
}

/// Crafts one untargeted adversarial example for a single sample
/// (`x` is `[1, …]`, `label` its true class), perturbing at the
/// network's [`FgsmReport::split`].
pub fn fgsm(net: &mut Network, x: &Tensor, label: usize, config: &FgsmConfig) -> FgsmReport {
    assert_eq!(x.shape()[0], 1, "fgsm operates on single samples");
    let split = perturbation_split(net);
    let mut adversarial = net.forward_prefix(split, x, false);
    let logits = net.forward_from(split, &adversarial, false);
    let original_pred = logits.argmax_rows()[0];
    sign_step(net, split, &logits, label, config.epsilon, &mut adversarial);
    if let Some((lo, hi)) = config.clamp {
        adversarial.clamp_inplace(lo, hi);
    }
    let adversarial_pred = net.forward_from(split, &adversarial, false).argmax_rows()[0];
    FgsmReport {
        adversarial,
        split,
        original_pred,
        adversarial_pred,
        // Success means the attack *changed* the model's mind, not that
        // the result disagrees with the label: on an input the model
        // already misclassifies, `!= label` would count a do-nothing
        // perturbation as a win.
        success: adversarial_pred != original_pred,
    }
}

/// The paper's `sign()` (Equation (1)): −1 / 0 / +1.
fn sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Runs FGSM over a labelled set and tallies per-source-class success
/// rates (paper Figure 8).
///
/// Only samples the model classifies correctly are attacked (an
/// already-misclassified input needs no crafting).
pub fn fgsm_success_rates(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    num_classes: usize,
    config: &FgsmConfig,
) -> ConfusionRates {
    campaign(net, inputs, labels, num_classes, |net, x, label| fgsm(net, x, label, config))
}

/// The predict-first campaign loop the FGSM, PGD and noise tallies
/// share: one batched forward decides who gets attacked, and `craft`
/// (at least one more forward per sample, plus the gradient attacks'
/// backward passes or the noise baseline's draws) runs only for the
/// correctly classified samples instead of being thrown away
/// afterwards for the rest.
pub(crate) fn campaign(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    num_classes: usize,
    mut craft: impl FnMut(&mut Network, &Tensor, usize) -> FgsmReport,
) -> ConfusionRates {
    assert_eq!(inputs.shape()[0], labels.len(), "input/label mismatch");
    let mut rates = ConfusionRates::new(num_classes);
    let preds = net.forward(inputs, false).argmax_rows();
    for (i, &label) in labels.iter().enumerate() {
        if preds[i] == label {
            let report = craft(net, &inputs.slice_batch(i), label);
            rates.record(label, report.adversarial_pred);
        }
    }
    rates
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dlbench_nn::{Conv1dBank, Initializer, Linear, Relu};
    use dlbench_tensor::SeededRng;

    fn linear_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("fgsm-toy");
        net.push(Linear::new(4, 3, Initializer::Xavier, rng));
        net
    }

    /// A sentence-CNN token model: embedding first, as in every text
    /// personality.
    pub(crate) fn text_net(rng: &mut SeededRng) -> Network {
        let mut net = Network::new("embed-toy");
        net.push(Embedding::new(10, 4, Initializer::Xavier, rng));
        net.push(Conv1dBank::new(3, &[2, 3], 4, Initializer::Xavier, rng));
        net.push(Relu::new());
        net.push(Linear::new(6, 2, Initializer::Xavier, rng));
        net
    }

    /// `n` sequences of `l` token ids below 10, shaped `[n, 1, l, 1]`.
    pub(crate) fn tokens(rng: &mut SeededRng, n: usize, l: usize) -> Tensor {
        let data: Vec<f32> = (0..n * l).map(|_| (rng.uniform(0.0, 10.0)).floor()).collect();
        Tensor::from_vec(&[n, 1, l, 1], data).unwrap()
    }

    #[test]
    fn sign_matches_paper_definition() {
        assert_eq!(sign(3.2), 1.0);
        assert_eq!(sign(-0.1), -1.0);
        assert_eq!(sign(0.0), 0.0);
    }

    #[test]
    fn perturbation_is_linf_bounded() {
        let mut rng = SeededRng::new(1);
        let mut net = linear_net(&mut rng);
        let x = Tensor::randn(&[1, 4], 0.0, 1.0, &mut rng);
        let report = fgsm(&mut net, &x, 0, &FgsmConfig { epsilon: 0.1, clamp: None });
        assert_eq!(report.split, 0, "a pixel model is perturbed at its input");
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            assert!((a - b).abs() <= 0.1 + 1e-6);
        }
    }

    #[test]
    fn perturbation_is_linf_bounded_in_embedding_space() {
        let mut rng = SeededRng::new(1);
        let mut net = text_net(&mut rng);
        let x = tokens(&mut rng, 1, 6);
        let clean = net.forward_prefix(1, &x, false);
        let report = fgsm(&mut net, &x, 0, &FgsmConfig { epsilon: 0.05, clamp: None });
        assert_eq!(report.split, 1, "a token model is perturbed past its embedding");
        assert_eq!(report.adversarial.shape(), clean.shape());
        for (a, b) in report.adversarial.data().iter().zip(clean.data()) {
            assert!((a - b).abs() <= 0.05 + 1e-6);
        }
        let replayed = net.forward_from(report.split, &report.adversarial, false);
        assert_eq!(replayed.argmax_rows()[0], report.adversarial_pred);
    }

    #[test]
    fn large_epsilon_flips_a_confident_linear_model() {
        // A linear model's loss gradient points away from the true
        // class; a big enough step must change the argmax.
        let mut rng = SeededRng::new(2);
        let mut net = linear_net(&mut rng);
        let x = Tensor::randn(&[1, 4], 0.0, 1.0, &mut rng);
        let label = net.forward(&x, false).argmax_rows()[0];
        let report = fgsm(&mut net, &x, label, &FgsmConfig { epsilon: 10.0, clamp: None });
        assert!(report.success, "eps=10 should dominate a unit-scale input");
    }

    #[test]
    fn large_epsilon_flips_a_token_model() {
        // With an ε far above the embedding scale the suffix input is
        // dominated by the ascent direction; at least one of several
        // samples must flip.
        let mut rng = SeededRng::new(2);
        let mut net = text_net(&mut rng);
        let mut flipped = 0;
        for i in 0..8 {
            let x = tokens(&mut rng.fork(i), 1, 6);
            let label = net.forward(&x, false).argmax_rows()[0];
            let report = fgsm(&mut net, &x, label, &FgsmConfig { epsilon: 25.0, clamp: None });
            flipped += report.success as usize;
        }
        assert!(flipped > 0, "eps=25 should dominate Xavier-scale embeddings");
    }

    #[test]
    fn clamp_keeps_valid_range() {
        let mut rng = SeededRng::new(3);
        let mut net = linear_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 4], 0.0, 1.0, &mut rng);
        let report = fgsm(&mut net, &x, 0, &FgsmConfig { epsilon: 5.0, clamp: Some((0.0, 1.0)) });
        assert!(report.adversarial.min() >= 0.0);
        assert!(report.adversarial.max() <= 1.0);
    }

    #[test]
    fn success_is_relative_to_the_original_prediction() {
        // Regression: `success` used to compare against the *label*, so
        // a do-nothing perturbation of an already-misclassified sample
        // counted as a successful attack.
        let mut rng = SeededRng::new(5);
        let mut net = linear_net(&mut rng);
        let x = Tensor::randn(&[1, 4], 0.0, 1.0, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let wrong_label = (pred + 1) % 3;
        // ε = 0 leaves the input untouched; the prediction cannot
        // change, so the attack must not count as a success even though
        // the prediction disagrees with the (wrong) label.
        let report = fgsm(&mut net, &x, wrong_label, &FgsmConfig { epsilon: 0.0, clamp: None });
        assert_eq!(report.adversarial_pred, report.original_pred);
        assert!(!report.success);
    }

    #[test]
    fn success_rates_match_crafting_each_correct_sample() {
        // Regression companion for the predict-first restructure: the
        // tally must be what per-sample crafting over the correctly
        // classified subset produces, with identical attempt counts.
        let mut rng = SeededRng::new(6);
        let mut net = linear_net(&mut rng);
        let images = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
        let preds = net.forward(&images, false).argmax_rows();
        // Half right, half deliberately wrong.
        let labels: Vec<usize> = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % 2 == 0 { p } else { (p + 1) % 3 })
            .collect();
        let config = FgsmConfig { epsilon: 0.1, clamp: None };
        let rates = fgsm_success_rates(&mut net, &images, &labels, 3, &config);

        let correct = labels.iter().enumerate().filter(|&(i, &l)| preds[i] == l).count();
        assert_eq!(rates.total_attempts(), correct);
        assert_eq!(correct, 4);
        let mut expect = ConfusionRates::new(3);
        for (i, &label) in labels.iter().enumerate() {
            if preds[i] != label {
                continue;
            }
            let report = fgsm(&mut net, &images.slice_batch(i), label, &config);
            expect.record(label, report.adversarial_pred);
        }
        assert_eq!(rates.total_attempts(), expect.total_attempts());
        for class in 0..3 {
            assert_eq!(rates.success_rate(class), expect.success_rate(class));
        }
    }

    #[test]
    fn success_rates_skip_misclassified() {
        let mut rng = SeededRng::new(4);
        let mut net = linear_net(&mut rng);
        let images = Tensor::randn(&[6, 4], 0.0, 1.0, &mut rng);
        // Deliberately wrong labels: nothing is originally correct, so
        // nothing is attacked.
        let preds = net.forward(&images, false).argmax_rows();
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 3).collect();
        let rates = fgsm_success_rates(
            &mut net,
            &images,
            &wrong,
            3,
            &FgsmConfig { epsilon: 0.1, clamp: None },
        );
        assert_eq!(rates.total_attempts(), 0);
    }

    #[test]
    fn token_campaigns_skip_misclassified_and_are_deterministic() {
        let mut rng = SeededRng::new(4);
        let mut net = text_net(&mut rng);
        let toks = tokens(&mut rng, 10, 6);
        let preds = net.forward(&toks, false).argmax_rows();
        let cfg = FgsmConfig { epsilon: 0.3, clamp: None };
        let a = fgsm_success_rates(&mut net, &toks, &preds, 2, &cfg);
        let b = fgsm_success_rates(&mut net, &toks, &preds, 2, &cfg);
        assert_eq!(a.total_attempts(), 10);
        assert_eq!(a, b);
        // All-wrong labels: nothing attacked.
        let wrong: Vec<usize> = preds.iter().map(|&p| 1 - p).collect();
        let r = fgsm_success_rates(&mut net, &toks, &wrong, 2, &cfg);
        assert_eq!(r.total_attempts(), 0);
    }
}
