//! Text-workload benchmark: the sentence-CNN IMDB cells measured on
//! the paper's three axes — accuracy, (modeled) time per epoch, and
//! adversarial robustness — per personality, fp32 versus int8.
//!
//! ```sh
//! cargo bench --bench text              # full attack sample counts
//! cargo bench --bench text -- --quick   # CI smoke: reduced samples
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_text.json`: one row
//! per framework personality on synthetic IMDB at scale Tiny. Each row
//! carries the fp32 and int8 top-1 accuracies, the modeled CPU/GPU
//! training time per paper epoch and testing-time int8 speedup, and
//! the embedding-space FGSM/PGD success rates against the fp32 model
//! plus their transfer rates against the int8 model. Token ids are
//! discrete, so the attacks craft in the continuous embedding space
//! (past the embedding layer, at the report's `split`), and the
//! perturbed embedding transfers by replaying it through the quantized
//! suffix from that split, whose first quantized layer re-quantizes it
//! with frozen calibration parameters.
//!
//! Everything here is seeded and wall-clock-free inside the JSON (wall
//! time goes to stdout only), so the document is byte-identical across
//! runs — check.sh runs it twice and `cmp`s the output.

use dlbench_adversarial::{fgsm, pgd, FgsmConfig, FgsmReport, PgdConfig};
use dlbench_bench::{attack_row, both_correct, write_report, BenchArgs, BENCH_SEED};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, training_defaults, DefaultSetting, FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_nn::Network;
use dlbench_quant::{calibration, calibration_json, cost_split, quantize_checkpoint, QuantConfig};
use dlbench_simtime::{devices, CostModel};
use dlbench_tensor::SeededRng;
use dlbench_trace::Stopwatch;

struct CellRow {
    host: FrameworkKind,
    json: JsonValue,
    fp32_acc: f32,
    int8_acc: f32,
    epoch_cpu_s: f64,
}

fn run_cell(host: FrameworkKind, attack_samples: usize) -> CellRow {
    let dataset = DatasetKind::Imdb;
    let scale = Scale::Tiny;
    let seed = BENCH_SEED;
    let setting = DefaultSetting::new(host, dataset);
    let out = trainer::run_training(host, setting, dataset, scale, seed);
    let fp32_acc = out.accuracy;

    // Modeled time per paper epoch on the testbed devices — the text
    // mirror of the paper's Figure 1 training-time axis.
    let epochs =
        f64::from(training_defaults(setting.owner, dataset).paper_epochs(dataset)).max(1e-9);
    let cpu = out.simulated_times(&devices::xeon_e5_1620());
    let gpu = out.simulated_times(&devices::gtx_1080_ti());
    let mut net = out.model;
    let (epoch_cpu_s, epoch_gpu_s) = (cpu.train_seconds / epochs, gpu.train_seconds / epochs);

    // Quantize a serialized copy so the fp32 network survives for
    // crafting — the same byte path `serve --quantize int8` takes.
    let mut ckpt = Vec::new();
    dlbench_nn::save_parameters(&mut net, &mut ckpt).expect("in-memory checkpoint");
    let cfg = QuantConfig::default();
    let mut qnet =
        quantize_checkpoint(host, &setting, dataset, scale, seed, &mut ckpt.as_slice(), &cfg)
            .expect("quantize the fresh checkpoint");

    // Text pipelines pass token ids through, so they need no channel
    // means.
    let (_, test) = trainer::generate_data(dataset, scale, seed);
    let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
    let int8_acc = trainer::evaluate(&mut qnet, &test, preprocessing, &[]);

    // Modeled int8 testing-time speedup at the serving batch size.
    let size = scale.image_size(dataset);
    let batch = 100usize;
    let (ic, ih, iw) = trainer::input_dims(dataset, size);
    let (qcost, fcost) = cost_split(&net, &[batch, ic, ih, iw]);
    let total = qcost.merge(fcost);
    let mut speedups = Vec::new();
    for device in [devices::xeon_e5_1620(), devices::gtx_1080_ti()] {
        let model = CostModel::new(device, host.execution_profile());
        let fp32_s = model.inference_seconds_batched(&total, batch);
        let int8_s = model.inference_seconds_batched_int8(&qcost, &fcost, batch);
        speedups.push(fp32_s / int8_s);
    }

    // Embedding-space transfer attacks over the both-correct pool:
    // craft against fp32, replay the perturbed embedding through the
    // int8 suffix (layers after the embedding). Embedding activations
    // are unbounded, so nothing is clamped.
    let pool = both_correct(&mut net, &mut qnet, &test);
    let epsilon = 0.02f32;
    let fgsm_cfg = FgsmConfig { epsilon, clamp: None };
    let pgd_cfg = PgdConfig { clamp: None, ..PgdConfig::standard(epsilon) };
    let mut rng = SeededRng::new(seed).fork(0x7E_817);

    let n_attack = pool.len().min(attack_samples);
    let (mut fgsm_fp32, mut fgsm_int8) = (0usize, 0usize);
    let (mut pgd_fp32, mut pgd_int8) = (0usize, 0usize);
    for &i in &pool[..n_attack] {
        let (x, labels) = test.gather(&[i]);
        let label = labels[0];
        let transferred = |q: &mut Network, r: &FgsmReport| {
            q.forward_from(r.split, &r.adversarial, false).argmax_rows()[0] != label
        };
        let r = fgsm(&mut net, &x, label, &fgsm_cfg);
        fgsm_fp32 += usize::from(r.success);
        fgsm_int8 += usize::from(transferred(&mut qnet, &r));
        // The pool holds correctly classified samples only: the clean
        // prediction is the label.
        let r = pgd(&mut net, &x, label, label, &pgd_cfg, &mut rng);
        pgd_fp32 += usize::from(r.success);
        pgd_int8 += usize::from(transferred(&mut qnet, &r));
    }

    let json = JsonValue::Object(vec![
        ("framework".into(), host.name().into()),
        ("dataset".into(), dataset.name().into()),
        ("fp32_accuracy".into(), fp32_acc.into()),
        ("int8_accuracy".into(), int8_acc.into()),
        ("accuracy_drop_pp".into(), ((fp32_acc - int8_acc) * 100.0).into()),
        ("epoch_train_cpu_s".into(), epoch_cpu_s.into()),
        ("epoch_train_gpu_s".into(), epoch_gpu_s.into()),
        ("speedup_cpu".into(), speedups[0].into()),
        ("speedup_gpu".into(), speedups[1].into()),
        ("layers_quantized".into(), calibration(&qnet).len().into()),
        ("calibration".into(), calibration_json(&qnet)),
        (
            "attacks".into(),
            JsonValue::Object(vec![
                ("epsilon".into(), epsilon.into()),
                ("space".into(), "embedding".into()),
                ("fgsm".into(), attack_row(fgsm_fp32, fgsm_int8, n_attack)),
                ("pgd".into(), attack_row(pgd_fp32, pgd_int8, n_attack)),
            ]),
        ),
    ]);
    CellRow { host, json, fp32_acc, int8_acc, epoch_cpu_s }
}

fn main() {
    let args = BenchArgs::from_env();
    if args.listed("text") {
        return;
    }
    let attack_samples = if args.quick { 8 } else { 32 };

    println!(
        "DLBench text sweep — synthetic IMDB, scale Tiny, seed {BENCH_SEED:#x}, \
         {attack_samples} embedding-space FGSM/PGD transfer samples per cell"
    );
    let started = Stopwatch::start();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>9} {:>9} {:>8} {:>14}",
        "framework", "fp32_acc", "int8_acc", "drop_pp", "epoch_cpu_s"
    );
    for host in FrameworkKind::ALL {
        let row = run_cell(host, attack_samples);
        println!(
            "{:<12} {:>8.2}% {:>8.2}% {:>+7.2} {:>14.2}",
            row.host.name(),
            row.fp32_acc * 100.0,
            row.int8_acc * 100.0,
            (row.fp32_acc - row.int8_acc) * 100.0,
            row.epoch_cpu_s,
        );
        rows.push(row.json);
    }

    let doc = JsonValue::Object(vec![
        ("name".into(), "text".into()),
        ("dataset".into(), "imdb".into()),
        ("scale".into(), "tiny".into()),
        ("seed".into(), (BENCH_SEED as usize).into()),
        ("attack_samples".into(), attack_samples.into()),
        ("rows".into(), JsonValue::Array(rows)),
    ]);
    let path = write_report("BENCH_text.json", &(doc.pretty() + "\n"));
    println!("done in {:.1}s; rows written to {}", started.elapsed_s(), path.display());
}
