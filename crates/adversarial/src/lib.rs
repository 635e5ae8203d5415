//! # dlbench-adversarial
//!
//! The adversarial-robustness metric group of the DLBench suite (paper
//! §II.C and §III.E): attacks that craft adversarial examples against
//! trained models, and the success-rate/crafting-time statistics the
//! paper reports in Figures 8–9 and Tables VIII–IX.
//!
//! Two attacks are implemented, matching the paper:
//!
//! * [`fgsm`] — the untargeted Fast Gradient Sign Method
//!   (Goodfellow et al., 2014): `x' = x + ε·sign(∇ₓ L(x, y))`.
//! * [`jsma`] — the targeted Jacobian-based Saliency Map Attack
//!   (Papernot et al., 2016): greedy per-feature perturbation driven by
//!   the saliency map of Equation (2) in the paper.
//!
//! Both operate on any trained [`dlbench_nn::Network`] through its
//! input-gradient path, so they apply uniformly to models trained by any
//! framework personality — which is exactly what lets the benchmark
//! compare the *frameworks'* robustness rather than the attacks.
//!
//! The gradient attacks ([`fgsm`] and its iterated form [`pgd`]) find
//! their perturbation point in the network itself. A pixel model is
//! perturbed at its input. A token model's ids are discrete and its
//! embedding lookup has a zero input gradient, so it is perturbed in
//! the continuous *embedding space*, past its leading embedding layer;
//! [`FgsmReport::split`] names that layer for replaying the example.
//!
//! ## Example
//!
//! ```
//! use dlbench_adversarial::{fgsm, FgsmConfig};
//! use dlbench_nn::{Initializer, Linear, Network};
//! use dlbench_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Network::new("toy");
//! net.push(Linear::new(4, 3, Initializer::Xavier, &mut rng));
//! let x = Tensor::randn(&[1, 4], 0.0, 1.0, &mut rng);
//! let report = fgsm(&mut net, &x, 1, &FgsmConfig { epsilon: 0.25, clamp: Some((-3.0, 3.0)) });
//! assert_eq!(report.adversarial.shape(), x.shape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fgsm;
mod jsma;
mod noise;
mod pgd;
mod report;

pub use fgsm::{fgsm, fgsm_success_rates, FgsmConfig, FgsmReport};
pub use jsma::{jsma, jsma_success_matrix, JsmaConfig, JsmaOutcome};
pub use noise::{noise_attack, noise_success_rates, NoiseConfig};
pub use pgd::{pgd, pgd_success_rates, PgdConfig};
pub use report::{ConfusionRates, CraftingCostModel};
