//! Property-based tests for attack invariants.

use dlbench_adversarial::{fgsm, jsma, pgd, FgsmConfig, JsmaConfig, PgdConfig};
use dlbench_nn::{Initializer, Linear, Network, Relu};
use dlbench_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

fn mlp(inputs: usize, classes: usize, rng: &mut SeededRng) -> Network {
    let mut net = Network::new("prop-mlp");
    net.push(Linear::new(inputs, 8, Initializer::Xavier, rng));
    net.push(Relu::new());
    net.push(Linear::new(8, classes, Initializer::Xavier, rng));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fgsm_linf_bound_holds(
        inputs in 2usize..12, eps in 0.001f32..0.5, seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let x = Tensor::randn(&[1, inputs], 0.0, 1.0, &mut rng);
        let report = fgsm(&mut net, &x, 1, &FgsmConfig { epsilon: eps, clamp: None });
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            prop_assert!((a - b).abs() <= eps + 1e-6);
        }
    }

    #[test]
    fn fgsm_with_clamp_stays_in_range(
        inputs in 2usize..12, eps in 0.1f32..2.0, seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 1.0, &mut rng);
        let report =
            fgsm(&mut net, &x, 0, &FgsmConfig { epsilon: eps, clamp: Some((0.0, 1.0)) });
        prop_assert!(report.adversarial.min() >= 0.0);
        prop_assert!(report.adversarial.max() <= 1.0);
    }

    #[test]
    fn fgsm_clamped_perturbation_still_within_eps_ball(
        inputs in 2usize..12, eps in 0.001f32..0.5, seed in 0u64..500,
    ) {
        // Clamping to the data range can only shrink a perturbation,
        // never grow it past the L-inf budget.
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 1.0, &mut rng);
        let report =
            fgsm(&mut net, &x, 1, &FgsmConfig { epsilon: eps, clamp: Some((0.0, 1.0)) });
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            prop_assert!((a - b).abs() <= eps + 1e-6);
        }
    }

    #[test]
    fn pgd_linf_bound_holds(
        inputs in 2usize..12, eps in 0.01f32..0.4, seed in 0u64..500,
    ) {
        // Every PGD iterate is projected back into the eps ball, so the
        // final adversarial example must respect the same L-inf budget.
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 1.0, &mut rng);
        let config = PgdConfig::standard(eps);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let report = pgd(&mut net, &x, 1, pred, &config, &mut rng);
        for (a, b) in report.adversarial.data().iter().zip(x.data()) {
            prop_assert!((a - b).abs() <= eps + 1e-6);
        }
    }

    #[test]
    fn jsma_distortion_budget_enforced(
        inputs in 4usize..16, budget in 0.05f32..0.5, seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 0.3, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let target = (pred + 1) % 4;
        let config = JsmaConfig { theta: 0.2, max_distortion: budget, clamp: (0.0, 1.0) };
        let outcome = jsma(&mut net, &x, target, &config);
        let max_iters = ((inputs as f32) * budget).ceil() as usize;
        prop_assert!(outcome.iterations <= max_iters);
        let changed = outcome
            .adversarial
            .data()
            .iter()
            .zip(x.data())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        prop_assert!(changed <= max_iters);
    }

    #[test]
    fn jsma_only_increases_features(inputs in 4usize..12, seed in 0u64..500) {
        // The saliency attack perturbs by +theta only.
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 3, &mut rng);
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 0.5, &mut rng);
        let pred = net.forward(&x, false).argmax_rows()[0];
        let outcome = jsma(&mut net, &x, (pred + 1) % 3, &JsmaConfig::default());
        for (a, b) in outcome.adversarial.data().iter().zip(x.data()) {
            prop_assert!(*a >= b - 1e-6, "feature decreased: {b} -> {a}");
        }
    }

    #[test]
    fn attacks_leave_weights_untouched(inputs in 2usize..10, seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let mut net = mlp(inputs, 4, &mut rng);
        let snapshot = net.snapshot();
        let x = Tensor::rand_uniform(&[1, inputs], 0.0, 1.0, &mut rng);
        fgsm(&mut net, &x, 0, &FgsmConfig { epsilon: 0.2, clamp: None });
        jsma(&mut net, &x, 2, &JsmaConfig::default());
        // Parameter values (not grads) must be unchanged.
        let after = net.snapshot();
        prop_assert_eq!(snapshot, after);
    }
}
