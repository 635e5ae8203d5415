//! One function per paper table and figure.
//!
//! Every function regenerates the corresponding artifact of the paper's
//! evaluation from the reproduction's own measurements (accuracy) and
//! timing model (runtime), returning a structured
//! [`ExperimentReport`](crate::report::ExperimentReport).

use crate::report::{ExperimentReport, Series};
use crate::runner::{BenchmarkRunner, TrainKey};
use dlbench_adversarial::{
    fgsm_success_rates, jsma_success_matrix, CraftingCostModel, FgsmConfig, JsmaConfig,
};
use dlbench_data::{DatasetKind, Preprocessing};
use dlbench_frameworks::{trainer, training_defaults, DefaultSetting, FrameworkKind, Scale};
use dlbench_simtime::{devices, CostModel};

/// FGSM perturbation used by the robustness experiments.
///
/// The paper uses ε = 0.001 against models trained on real MNIST; our
/// synthetic glyphs have much larger decision margins, so the suite's
/// default is larger. The *comparison* (TF-trained vs Caffe-trained
/// robustness) is what the experiment reproduces.
pub const FGSM_EPSILON: f32 = 0.15;

/// JSMA configuration for the targeted-attack experiments.
pub fn jsma_config() -> JsmaConfig {
    JsmaConfig { theta: 0.30, max_distortion: 0.20, clamp: (0.0, 1.0) }
}

/// Number of crafting attempts Table VIII's "average crafting time"
/// normalizes to (1,000 source images × 9 targets).
pub const CRAFTING_ATTEMPTS: usize = 9_000;

fn all_frameworks() -> [FrameworkKind; 3] {
    FrameworkKind::ALL
}

// ---------------------------------------------------------------------
// Tables I–V: the configuration database.
// ---------------------------------------------------------------------

/// Table I: framework properties.
pub fn table_i() -> ExperimentReport {
    let mut r =
        ExperimentReport::new("table_i", "Deep Learning Software Frameworks and Basic Properties");
    for fw in all_frameworks() {
        let m = fw.meta();
        r.facts.push((
            m.framework.name().to_string(),
            format!(
                "version {} ({}), {}, interfaces: {}, LoC {}, {} license, {}",
                m.version,
                m.hash_tag,
                m.library,
                m.interfaces,
                m.lines_of_code,
                m.license,
                m.website
            ),
        ));
    }
    r
}

fn training_table(id: &str, title: &str, ds: DatasetKind) -> ExperimentReport {
    let mut r = ExperimentReport::new(id, title);
    for fw in all_frameworks() {
        let c = training_defaults(fw, ds);
        r.facts.push((
            fw.name().to_string(),
            format!(
                "algorithm {}, base lr {}, batch {}, max iterations {}, epochs {:.2}, {}, regularizer {}",
                c.algorithm.name(),
                c.base_lr,
                c.batch_size,
                c.max_iterations,
                c.paper_epochs(ds),
                c.preprocessing.name(),
                c.regularizer.name(),
            ),
        ));
    }
    r
}

/// Table II: default training parameters on MNIST.
pub fn table_ii() -> ExperimentReport {
    training_table("table_ii", "Default training parameters on MNIST", DatasetKind::Mnist)
}

/// Table III: default training parameters on CIFAR-10.
pub fn table_iii() -> ExperimentReport {
    training_table("table_iii", "Default training parameters on CIFAR-10", DatasetKind::Cifar10)
}

fn arch_table(id: &str, title: &str, ds: DatasetKind) -> ExperimentReport {
    let mut r = ExperimentReport::new(id, title);
    let native = ds.native_size();
    for fw in all_frameworks() {
        let spec = dlbench_frameworks::trainer::effective_arch(fw, &DefaultSetting::new(fw, ds));
        let lines = spec.describe((ds.channels(), native, native));
        r.facts.push((fw.name().to_string(), lines.join(" | ")));
    }
    r.notes.push(
        "fully-connected input dimensions are derived from the pooling geometry at the native \
         image size; they reproduce the paper's Table IV/V dimensions"
            .into(),
    );
    r
}

/// Table IV: default network architectures on MNIST.
pub fn table_iv() -> ExperimentReport {
    arch_table("table_iv", "Primary Default Neural Network Parameters on MNIST", DatasetKind::Mnist)
}

/// Table V: default network architectures on CIFAR-10.
pub fn table_v() -> ExperimentReport {
    arch_table(
        "table_v",
        "Primary Default Neural Network Parameters on CIFAR-10",
        DatasetKind::Cifar10,
    )
}

// ---------------------------------------------------------------------
// Figures 1–2: own defaults, CPU and GPU.
// ---------------------------------------------------------------------

fn own_defaults_figure(
    runner: &mut BenchmarkRunner,
    id: &str,
    ds: DatasetKind,
) -> ExperimentReport {
    let title =
        format!("Experimental Results on {}, using {} Default Settings", ds.name(), ds.name());
    let mut r = ExperimentReport::new(id, title);
    let keys: Vec<TrainKey> =
        all_frameworks().map(|fw| BenchmarkRunner::own_default_key(fw, ds)).to_vec();
    runner.prefetch(&keys);
    for device in [devices::xeon_e5_1620(), devices::gtx_1080_ti()] {
        for fw in all_frameworks() {
            let key = BenchmarkRunner::own_default_key(fw, ds);
            let label = format!("{}-{}", fw.abbrev(), device.kind.label());
            r.rows.push(runner.metrics(key, &device, label));
        }
    }
    r
}

/// Figure 1: MNIST with each framework's own MNIST defaults (CPU+GPU).
pub fn fig1(runner: &mut BenchmarkRunner) -> ExperimentReport {
    own_defaults_figure(runner, "fig_1", DatasetKind::Mnist)
}

/// Figure 2: CIFAR-10 with each framework's own CIFAR-10 defaults.
pub fn fig2(runner: &mut BenchmarkRunner) -> ExperimentReport {
    own_defaults_figure(runner, "fig_2", DatasetKind::Cifar10)
}

// ---------------------------------------------------------------------
// Figures 3–4: dataset-dependent default settings (GPU).
// ---------------------------------------------------------------------

fn dataset_dependent_figure(
    runner: &mut BenchmarkRunner,
    id: &str,
    ds: DatasetKind,
) -> ExperimentReport {
    let title = format!(
        "Experimental Results on {} (Dataset-dependent Default Settings on GPU)",
        ds.name()
    );
    let mut r = ExperimentReport::new(id, title);
    let gpu = devices::gtx_1080_ti();
    let keys: Vec<TrainKey> = all_frameworks()
        .iter()
        .flat_map(|&fw| {
            [DatasetKind::Mnist, DatasetKind::Cifar10].map(|tuned_for| TrainKey {
                host: fw,
                setting: DefaultSetting::new(fw, tuned_for),
                dataset: ds,
            })
        })
        .collect();
    runner.prefetch(&keys);
    for fw in all_frameworks() {
        for tuned_for in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let key =
                TrainKey { host: fw, setting: DefaultSetting::new(fw, tuned_for), dataset: ds };
            let label = format!("{} ({})", fw.name(), key.setting.label());
            r.rows.push(runner.metrics(key, &gpu, label));
        }
    }
    r
}

/// Figure 3: MNIST under each framework's MNIST and CIFAR-10 defaults.
pub fn fig3(runner: &mut BenchmarkRunner) -> ExperimentReport {
    dataset_dependent_figure(runner, "fig_3", DatasetKind::Mnist)
}

/// Figure 4: CIFAR-10 under each framework's MNIST and CIFAR-10
/// defaults (Caffe's MNIST setting fails to converge here).
pub fn fig4(runner: &mut BenchmarkRunner) -> ExperimentReport {
    dataset_dependent_figure(runner, "fig_4", DatasetKind::Cifar10)
}

/// Figure 5: Caffe's training-loss trajectory on CIFAR-10 under its
/// MNIST vs CIFAR-10 default settings.
pub fn fig5(runner: &mut BenchmarkRunner) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        "fig_5",
        "Training Loss (convergence) of Caffe on CIFAR-10 with its MNIST and CIFAR-10 defaults",
    );
    let keys: Vec<TrainKey> = [DatasetKind::Mnist, DatasetKind::Cifar10]
        .map(|tuned_for| TrainKey {
            host: FrameworkKind::Caffe,
            setting: DefaultSetting::new(FrameworkKind::Caffe, tuned_for),
            dataset: DatasetKind::Cifar10,
        })
        .to_vec();
    runner.prefetch(&keys);
    for tuned_for in [DatasetKind::Mnist, DatasetKind::Cifar10] {
        let key = TrainKey {
            host: FrameworkKind::Caffe,
            setting: DefaultSetting::new(FrameworkKind::Caffe, tuned_for),
            dataset: DatasetKind::Cifar10,
        };
        let (name, points, converged) = runner.with_outcome(key, |out| {
            (
                format!("{}-Settings", tuned_for.name()),
                out.loss_curve.iter().map(|&(i, l)| (i as f64, l as f64)).collect::<Vec<_>>(),
                out.converged,
            )
        });
        if !converged {
            r.notes.push(format!("{name}: training did not converge (flat loss plateau)"));
        }
        r.series.push(Series { name, points });
    }
    r
}

// ---------------------------------------------------------------------
// Figures 6–7: framework-dependent default settings (GPU).
// ---------------------------------------------------------------------

fn framework_dependent_figure(
    runner: &mut BenchmarkRunner,
    id: &str,
    ds: DatasetKind,
) -> ExperimentReport {
    let title = format!(
        "Experimental Results on {} (Framework-dependent Default Settings on GPU)",
        ds.name()
    );
    let mut r = ExperimentReport::new(id, title);
    let gpu = devices::gtx_1080_ti();
    let keys: Vec<TrainKey> = all_frameworks()
        .iter()
        .flat_map(|&host| {
            all_frameworks().map(|owner| TrainKey {
                host,
                setting: DefaultSetting::new(owner, ds),
                dataset: ds,
            })
        })
        .collect();
    runner.prefetch(&keys);
    for host in all_frameworks() {
        for owner in all_frameworks() {
            let key = TrainKey { host, setting: DefaultSetting::new(owner, ds), dataset: ds };
            let label = format!("{} ({})", host.name(), key.setting.label());
            r.rows.push(runner.metrics(key, &gpu, label));
        }
    }
    r
}

/// Figure 6: MNIST, each framework trained with each framework's MNIST
/// default setting.
pub fn fig6(runner: &mut BenchmarkRunner) -> ExperimentReport {
    framework_dependent_figure(runner, "fig_6", DatasetKind::Mnist)
}

/// Figure 7: CIFAR-10, each framework trained with each framework's
/// CIFAR-10 default setting.
pub fn fig7(runner: &mut BenchmarkRunner) -> ExperimentReport {
    framework_dependent_figure(runner, "fig_7", DatasetKind::Cifar10)
}

// ---------------------------------------------------------------------
// Tables VI–VII: summaries.
// ---------------------------------------------------------------------

fn summary_table(runner: &mut BenchmarkRunner, id: &str, ds: DatasetKind) -> ExperimentReport {
    let mut r = ExperimentReport::new(
        id,
        format!("Configurations for Training {} using TensorFlow, Caffe and Torch", ds.name()),
    );
    let cpu = devices::xeon_e5_1620();
    let gpu = devices::gtx_1080_ti();
    // All three sections' cells up front (prefetch dedupes overlap:
    // e.g. a framework's own default appears in every section).
    let mut keys: Vec<TrainKey> =
        all_frameworks().map(|fw| BenchmarkRunner::own_default_key(fw, ds)).to_vec();
    for fw in all_frameworks() {
        for tuned_for in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            keys.push(TrainKey {
                host: fw,
                setting: DefaultSetting::new(fw, tuned_for),
                dataset: ds,
            });
        }
    }
    for host in all_frameworks() {
        for owner in all_frameworks() {
            keys.push(TrainKey { host, setting: DefaultSetting::new(owner, ds), dataset: ds });
        }
    }
    runner.prefetch(&keys);
    // (a) Baseline defaults, CPU and GPU.
    for device in [&cpu, &gpu] {
        for fw in all_frameworks() {
            let key = BenchmarkRunner::own_default_key(fw, ds);
            let label = format!("(a) {}-{}", fw.abbrev(), device.kind.label());
            r.rows.push(runner.metrics(key, device, label));
        }
    }
    // (b) Dataset-dependent defaults (GPU).
    for fw in all_frameworks() {
        for tuned_for in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let key =
                TrainKey { host: fw, setting: DefaultSetting::new(fw, tuned_for), dataset: ds };
            let label = format!("(b) {} / {}", fw.abbrev(), key.setting.label());
            r.rows.push(runner.metrics(key, &gpu, label));
        }
    }
    // (c) Framework-dependent defaults (GPU).
    for host in all_frameworks() {
        for owner in all_frameworks() {
            let key = TrainKey { host, setting: DefaultSetting::new(owner, ds), dataset: ds };
            let label = format!("(c) {} / {}", host.abbrev(), key.setting.label());
            r.rows.push(runner.metrics(key, &gpu, label));
        }
    }
    r
}

/// Table VI: MNIST summary (baseline / dataset-dependent / framework-
/// dependent sections).
pub fn table_vi(runner: &mut BenchmarkRunner) -> ExperimentReport {
    summary_table(runner, "table_vi", DatasetKind::Mnist)
}

/// Table VII: CIFAR-10 summary.
pub fn table_vii(runner: &mut BenchmarkRunner) -> ExperimentReport {
    summary_table(runner, "table_vii", DatasetKind::Cifar10)
}

// ---------------------------------------------------------------------
// Figure 8: untargeted FGSM.
// ---------------------------------------------------------------------

/// Figure 8: per-digit FGSM success rates against the TensorFlow- and
/// Caffe-trained MNIST models, plus the per-digit difference.
pub fn fig8(runner: &mut BenchmarkRunner) -> ExperimentReport {
    let mut r = ExperimentReport::new("fig_8", "Experimental Results on Untargeted FGSM Attacks");
    r.facts.push(("epsilon".into(), format!("{FGSM_EPSILON}")));
    let scale = runner.scale();
    let seed = runner.seed();
    let keys: Vec<TrainKey> = [FrameworkKind::TensorFlow, FrameworkKind::Caffe]
        .map(|fw| BenchmarkRunner::own_default_key(fw, DatasetKind::Mnist))
        .to_vec();
    runner.prefetch(&keys);
    let mut rates_by_fw = Vec::new();
    for fw in [FrameworkKind::TensorFlow, FrameworkKind::Caffe] {
        let key = BenchmarkRunner::own_default_key(fw, DatasetKind::Mnist);
        let rates = runner.with_outcome(key, |out| {
            assert_eq!(out.preprocessing, Preprocessing::Raw01, "attacks operate on raw pixels");
            let (_, test) = trainer::generate_data(DatasetKind::Mnist, scale, seed);
            let config = FgsmConfig { epsilon: FGSM_EPSILON, clamp: Some((0.0, 1.0)) };
            fgsm_success_rates(&mut out.model, &test.images, &test.labels, 10, &config)
        });
        r.series.push(Series {
            name: format!("{} MNIST success rate", fw.name()),
            points: rates
                .success_rates()
                .iter()
                .enumerate()
                .map(|(d, &s)| (d as f64, s as f64))
                .collect(),
        });
        rates_by_fw.push(rates);
    }
    let diff: Vec<(f64, f64)> = (0..10)
        .map(|d| {
            (d as f64, (rates_by_fw[1].success_rate(d) - rates_by_fw[0].success_rate(d)) as f64)
        })
        .collect();
    r.series.push(Series { name: "Success Rate Difference (Caffe - TF)".into(), points: diff });
    let mean_tf = rates_by_fw[0].mean_success_rate();
    let mean_caffe = rates_by_fw[1].mean_success_rate();
    r.facts.push(("mean success TF".into(), format!("{mean_tf:.3}")));
    r.facts.push(("mean success Caffe".into(), format!("{mean_caffe:.3}")));
    if mean_caffe >= mean_tf {
        r.notes.push("TF-trained model is more robust than Caffe-trained (paper shape)".into());
    } else {
        r.notes.push("WARNING: robustness ordering deviates from the paper".into());
    }
    r
}

// ---------------------------------------------------------------------
// Figure 9 / Tables VIII–IX: targeted JSMA campaign.
// ---------------------------------------------------------------------

/// The four host/parameter combinations of the paper's targeted-attack
/// study, in presentation order: TF (TF), TF (Caffe), Caffe (TF),
/// Caffe (Caffe).
pub fn jsma_combos() -> [(FrameworkKind, FrameworkKind); 4] {
    [
        (FrameworkKind::TensorFlow, FrameworkKind::TensorFlow),
        (FrameworkKind::TensorFlow, FrameworkKind::Caffe),
        (FrameworkKind::Caffe, FrameworkKind::TensorFlow),
        (FrameworkKind::Caffe, FrameworkKind::Caffe),
    ]
}

/// Result of the shared JSMA campaign (Figure 9, Tables VIII and IX all
/// render views of this data).
#[derive(Debug, Clone)]
pub struct JsmaCampaign {
    /// Per combo: `(host, params_owner, per-target success rates for
    /// source digit 1, mean saliency iterations, crafting minutes)`.
    pub combos: Vec<(FrameworkKind, FrameworkKind, Vec<f32>, f64, f64)>,
    /// Source digit attacked (the paper uses digit 1).
    pub source_digit: usize,
}

/// Max source images attacked per combo at each scale.
fn jsma_sources(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 3,
        Scale::Small => 6,
        Scale::Paper => 20,
    }
}

/// Runs (or returns the cached) targeted-attack campaign.
pub fn jsma_campaign(runner: &mut BenchmarkRunner) -> JsmaCampaign {
    if let Some(c) = runner.jsma_cache.clone() {
        return c;
    }
    let scale = runner.scale();
    let seed = runner.seed();
    let source_digit = 1usize;
    let max_sources = jsma_sources(scale);
    let gpu = devices::gtx_1080_ti();
    let keys: Vec<TrainKey> = jsma_combos()
        .map(|(host, owner)| TrainKey {
            host,
            setting: DefaultSetting::new(owner, DatasetKind::Mnist),
            dataset: DatasetKind::Mnist,
        })
        .to_vec();
    runner.prefetch(&keys);
    let mut combos = Vec::new();
    for (host, owner) in jsma_combos() {
        let setting = DefaultSetting::new(owner, DatasetKind::Mnist);
        let key = TrainKey { host, setting, dataset: DatasetKind::Mnist };
        let (rates, mean_iters) = runner.with_outcome(key, |out| {
            let (_, test) = trainer::generate_data(DatasetKind::Mnist, scale, seed);
            // Keep only the first `max_sources` samples of the source
            // digit to bound attack cost.
            let mut kept = Vec::new();
            for (i, &l) in test.labels.iter().enumerate() {
                if l == source_digit && kept.len() < max_sources {
                    kept.push(i);
                }
            }
            let (images, labels) = test.gather(&kept);
            jsma_success_matrix(&mut out.model, &images, &labels, source_digit, 10, &jsma_config())
        });
        // Crafting time: paper-scale single-sample cost through the
        // host's profile on the GPU device.
        let arch = trainer::effective_arch(host, &setting);
        let cost = arch.paper_cost((1, 28, 28), 1);
        let model =
            CraftingCostModel::new(CostModel::new(gpu.clone(), host.execution_profile()), cost, 10);
        let minutes = model.crafting_seconds(mean_iters, CRAFTING_ATTEMPTS) / 60.0;
        combos.push((host, owner, rates, mean_iters, minutes));
    }
    let campaign = JsmaCampaign { combos, source_digit };
    runner.jsma_cache = Some(campaign.clone());
    campaign
}

/// Figure 9: success rate of crafting digit 1 into each target class,
/// for the four host/parameter combinations.
pub fn fig9(runner: &mut BenchmarkRunner) -> ExperimentReport {
    let campaign = jsma_campaign(runner);
    let mut r = ExperimentReport::new("fig_9", "Success Rate of Crafting digit 1");
    for (host, owner, rates, _, _) in &campaign.combos {
        r.series.push(Series {
            name: format!("{} ({})", host.abbrev(), owner.abbrev()),
            points: rates.iter().enumerate().map(|(t, &s)| (t as f64, s as f64)).collect(),
        });
    }
    r.notes.push("target class 1 = source; its success rate is reported as 0".into());
    r
}

/// Table VIII: average crafting time of targeted attacks on MNIST.
pub fn table_viii(runner: &mut BenchmarkRunner) -> ExperimentReport {
    let campaign = jsma_campaign(runner);
    let mut r =
        ExperimentReport::new("table_viii", "Average Crafting Time of Targeted Attacks on MNIST");
    for (host, owner, _, mean_iters, minutes) in &campaign.combos {
        r.facts.push((
            format!("{} ({} parameters)", host.abbrev(), owner.abbrev()),
            format!("{minutes:.0} min (mean saliency iterations {mean_iters:.1})"),
        ));
    }
    r.facts.push(("normalization".into(), format!("{CRAFTING_ATTEMPTS} crafting attempts")));
    r
}

/// Table IX: per-target success rates with the default feature-map
/// widths and regularizers annotated.
pub fn table_ix(runner: &mut BenchmarkRunner) -> ExperimentReport {
    let campaign = jsma_campaign(runner);
    let mut r = ExperimentReport::new(
        "table_ix",
        "Impact of Default Feature Maps / Regularization Methods on MNIST",
    );
    for (host, owner, rates, _, _) in &campaign.combos {
        let setting = DefaultSetting::new(*owner, DatasetKind::Mnist);
        let (fc_in, fc_out) = trainer::effective_arch(*host, &setting).first_fc((1, 28, 28));
        let regularizer = match *host {
            FrameworkKind::TensorFlow => "drop out",
            FrameworkKind::Caffe => "weight decay",
            FrameworkKind::Torch => "none",
        };
        let rate_list: Vec<String> = rates
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != campaign.source_digit)
            .map(|(t, s)| format!("{t}:{s:.3}"))
            .collect();
        r.facts.push((
            format!("{} ({})", host.abbrev(), owner.abbrev()),
            format!(
                "third layer {fc_in} -> {fc_out}, {regularizer}; success {}",
                rate_list.join(" ")
            ),
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render_paper_values() {
        let t1 = table_i();
        assert_eq!(t1.facts.len(), 3);
        assert!(t1.facts[0].1.contains("1281085"));

        let t2 = table_ii();
        assert!(t2.facts.iter().any(|(k, v)| k == "TensorFlow" && v.contains("Adam")));
        assert!(t2.facts.iter().any(|(k, v)| k == "Caffe" && v.contains("batch 64")));
        assert!(t2.facts.iter().any(|(k, v)| k == "Torch" && v.contains("0.05")));

        let t3 = table_iii();
        assert!(t3.facts.iter().all(|(_, v)| v.contains("SGD")));
        assert!(t3.facts.iter().any(|(_, v)| v.contains("max iterations 1000000")));
    }

    #[test]
    fn arch_tables_mention_paper_layers() {
        let t4 = table_iv();
        let tf_row = &t4.facts.iter().find(|(k, _)| k == "TensorFlow").unwrap().1;
        assert!(tf_row.contains("5x5, 1->32"), "{tf_row}");
        assert!(tf_row.contains("3136->1024"), "{tf_row}");
        let t5 = table_v();
        let torch_row = &t5.facts.iter().find(|(k, _)| k == "Torch").unwrap().1;
        assert!(torch_row.contains("6400->128"), "{torch_row}");
    }

    #[test]
    fn jsma_combo_order_matches_paper() {
        let combos = jsma_combos();
        assert_eq!(combos[0], (FrameworkKind::TensorFlow, FrameworkKind::TensorFlow));
        assert_eq!(combos[3], (FrameworkKind::Caffe, FrameworkKind::Caffe));
    }
}
