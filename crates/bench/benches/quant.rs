//! Quantization benchmark: post-training int8 versus fp32 per
//! personality × dataset, measured on the paper's three axes — speed
//! (modeled testing-time ratio), accuracy (top-1 drop) and adversarial
//! robustness (FGSM/PGD/JSMA success-rate shift under transfer).
//!
//! ```sh
//! cargo bench --bench quant              # full attack sample counts
//! cargo bench --bench quant -- --quick   # CI smoke: reduced samples
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_quant.json`: one row
//! per *(framework, dataset)* cell at scale Tiny. Each row carries the
//! fp32 and int8 top-1 accuracies, the modeled CPU/GPU testing-time
//! speedups, the per-layer calibration record, and for each attack the
//! fp32 success rate, the transfer success rate against the int8 model
//! and their delta. The transfer protocol follows the black-box
//! convention: examples are crafted against the fp32 network only, over
//! samples both models classify correctly, then replayed unchanged
//! against the quantized network.
//!
//! Everything here is seeded and wall-clock-free inside the JSON (wall
//! time goes to stdout only), so the document is byte-identical across
//! runs — check.sh runs it twice and `cmp`s the output.

use dlbench_adversarial::{fgsm, jsma, pgd, FgsmConfig, JsmaConfig, PgdConfig};
use dlbench_bench::{attack_row, both_correct, write_report, BenchArgs, BENCH_SEED};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_nn::Network;
use dlbench_quant::{calibration, calibration_json, cost_split, quantize_checkpoint, QuantConfig};
use dlbench_simtime::{devices, CostModel};
use dlbench_tensor::{SeededRng, Tensor};
use dlbench_trace::Stopwatch;

struct CellRow {
    host: FrameworkKind,
    dataset: DatasetKind,
    json: JsonValue,
    fp32_acc: f32,
    int8_acc: f32,
    speedup_cpu: f64,
}

#[allow(clippy::too_many_lines)]
fn run_cell(
    host: FrameworkKind,
    dataset: DatasetKind,
    attack_samples: usize,
    jsma_samples: usize,
) -> CellRow {
    let scale = Scale::Tiny;
    let seed = BENCH_SEED;
    let setting = DefaultSetting::new(host, dataset);
    let out = trainer::run_training(host, setting, dataset, scale, seed);
    let mut net = out.model;
    let fp32_acc = out.accuracy;

    // Quantize a serialized copy so the fp32 network survives for
    // crafting; this is also exactly the byte path `serve --quantize
    // int8` takes, so the bench measures what deployment ships.
    let mut ckpt = Vec::new();
    dlbench_nn::save_parameters(&mut net, &mut ckpt).expect("in-memory checkpoint");
    let cfg = QuantConfig::default();
    let mut qnet =
        quantize_checkpoint(host, &setting, dataset, scale, seed, &mut ckpt.as_slice(), &cfg)
            .expect("quantize the fresh checkpoint");

    let (train, test) = trainer::generate_data(dataset, scale, seed);
    let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
    let channel_means = preprocessing.means_for(&train);
    let int8_acc = trainer::evaluate(&mut qnet, &test, preprocessing, &channel_means);

    // Modeled testing-time ratio: int8 GEMM throughput plus 1-byte
    // activation traffic for quantized layers, fp32 charges elsewhere.
    let size = scale.image_size(dataset);
    let batch = 100usize;
    let shape = [batch, dataset.channels(), size, size];
    let (qcost, fcost) = cost_split(&net, &shape);
    let total = qcost.merge(fcost);
    let mut speedups = Vec::new();
    for device in [devices::xeon_e5_1620(), devices::gtx_1080_ti()] {
        let model = CostModel::new(device, host.execution_profile());
        let fp32_s = model.inference_seconds_batched(&total, batch);
        let int8_s = model.inference_seconds_batched_int8(&qcost, &fcost, batch);
        speedups.push(fp32_s / int8_s);
    }
    let (speedup_cpu, speedup_gpu) = (speedups[0], speedups[1]);

    // Transfer attacks: craft on fp32 over the both-correct pool, then
    // replay the crafted examples unchanged against the int8 network.
    let pool = both_correct(&mut net, &mut qnet, &test);
    let epsilon = 0.15f32;
    let fgsm_cfg = FgsmConfig { epsilon, clamp: Some((0.0, 1.0)) };
    let pgd_cfg = PgdConfig::standard(epsilon);
    let jsma_cfg = JsmaConfig::default();
    let mut rng = SeededRng::new(seed).fork(0x9_0A17);

    let n_grad = pool.len().min(attack_samples);
    let (mut fgsm_fp32, mut fgsm_int8) = (0usize, 0usize);
    let (mut pgd_fp32, mut pgd_int8) = (0usize, 0usize);
    for &i in &pool[..n_grad] {
        let (x, labels) = test.gather(&[i]);
        let label = labels[0];
        let transferred =
            |q: &mut Network, adv: &Tensor| q.forward(adv, false).argmax_rows()[0] != label;
        let r = fgsm(&mut net, &x, label, &fgsm_cfg);
        fgsm_fp32 += usize::from(r.success);
        fgsm_int8 += usize::from(transferred(&mut qnet, &r.adversarial));
        let r = pgd(&mut net, &x, label, &pgd_cfg, &mut rng);
        pgd_fp32 += usize::from(r.success);
        pgd_int8 += usize::from(transferred(&mut qnet, &r.adversarial));
    }

    // JSMA is targeted and costs a saliency sweep per pixel flipped, so
    // its sample budget stays small; target class is `label + 1 mod 10`.
    let n_jsma = pool.len().min(jsma_samples);
    let (mut jsma_fp32, mut jsma_int8) = (0usize, 0usize);
    for &i in &pool[..n_jsma] {
        let (x, labels) = test.gather(&[i]);
        let target = (labels[0] + 1) % 10;
        let outcome = jsma(&mut net, &x, target, &jsma_cfg);
        jsma_fp32 += usize::from(outcome.success);
        jsma_int8 +=
            usize::from(qnet.forward(&outcome.adversarial, false).argmax_rows()[0] == target);
    }

    let json = JsonValue::Object(vec![
        ("framework".into(), host.name().into()),
        ("dataset".into(), dataset.name().into()),
        ("fp32_accuracy".into(), fp32_acc.into()),
        ("int8_accuracy".into(), int8_acc.into()),
        ("accuracy_drop_pp".into(), ((fp32_acc - int8_acc) * 100.0).into()),
        ("speedup_cpu".into(), speedup_cpu.into()),
        ("speedup_gpu".into(), speedup_gpu.into()),
        ("layers".into(), qnet.len().into()),
        ("layers_quantized".into(), calibration(&qnet).len().into()),
        ("calibration".into(), calibration_json(&qnet)),
        (
            "attacks".into(),
            JsonValue::Object(vec![
                ("epsilon".into(), epsilon.into()),
                ("fgsm".into(), attack_row(fgsm_fp32, fgsm_int8, n_grad)),
                ("pgd".into(), attack_row(pgd_fp32, pgd_int8, n_grad)),
                ("jsma".into(), attack_row(jsma_fp32, jsma_int8, n_jsma)),
            ]),
        ),
    ]);
    CellRow { host, dataset, json, fp32_acc, int8_acc, speedup_cpu }
}

fn main() {
    let args = BenchArgs::from_env();
    if args.listed("quant") {
        return;
    }
    let (attack_samples, jsma_samples) = if args.quick { (8, 2) } else { (32, 4) };

    println!(
        "DLBench quantization sweep — scale Tiny, seed {BENCH_SEED:#x}, \
         {attack_samples} FGSM/PGD and {jsma_samples} JSMA transfer samples per cell"
    );
    let started = Stopwatch::start();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<9} {:>9} {:>9} {:>8} {:>12}",
        "framework", "dataset", "fp32_acc", "int8_acc", "drop_pp", "cpu_speedup"
    );
    for host in FrameworkKind::ALL {
        for dataset in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let row = run_cell(host, dataset, attack_samples, jsma_samples);
            println!(
                "{:<12} {:<9} {:>8.2}% {:>8.2}% {:>+7.2} {:>11.2}x",
                row.host.name(),
                row.dataset.name(),
                row.fp32_acc * 100.0,
                row.int8_acc * 100.0,
                (row.fp32_acc - row.int8_acc) * 100.0,
                row.speedup_cpu
            );
            rows.push(row.json);
        }
    }

    let doc = JsonValue::Object(vec![
        ("name".into(), "quant".into()),
        ("scale".into(), "tiny".into()),
        ("seed".into(), (BENCH_SEED as usize).into()),
        ("attack_samples".into(), attack_samples.into()),
        ("jsma_samples".into(), jsma_samples.into()),
        ("rows".into(), JsonValue::Array(rows)),
    ]);
    let path = write_report("BENCH_quant.json", &(doc.pretty() + "\n"));
    println!("done in {:.1}s; rows written to {}", started.elapsed_s(), path.display());
}
