//! CLI subcommand implementations.

use crate::args::ParsedArgs;
use dlbench_adversarial::{
    fgsm_success_rates, jsma_success_matrix, noise_success_rates, pgd_success_rates, FgsmConfig,
    JsmaConfig, NoiseConfig, PgdConfig,
};
use dlbench_core::runner::BenchmarkRunner;
use dlbench_core::ExperimentId;
use dlbench_data::{DatasetKind, SynthCifar10, SynthMnist};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_simtime::devices;
use dlbench_tensor::SeededRng;

/// The `--scale` flag: [`Scale::parse`], defaulting to Tiny.
pub(crate) fn parse_scale(raw: Option<&str>) -> Result<Scale, String> {
    raw.map_or(Ok(Scale::Tiny), |s| {
        Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}` (tiny|small|paper)"))
    })
}

pub(crate) fn parse_dtype(raw: Option<&str>) -> Result<dlbench_serve::ModelDtype, String> {
    match raw {
        None => Ok(dlbench_serve::ModelDtype::Fp32),
        Some(s) => dlbench_serve::ModelDtype::parse(s)
            .ok_or_else(|| format!("unknown quantize mode `{s}` (fp32|int8)")),
    }
}

/// Applies `--threads N` and returns the worker count now in effect.
///
/// `0` (or an absent flag) keeps the default resolution: the
/// `DLBENCH_THREADS` environment variable if set, else the machine's
/// available parallelism. Thread count never changes results — only
/// wall-clock time (see the threading model notes in DESIGN.md).
pub(crate) fn configure_threads(args: &ParsedArgs) -> Result<usize, String> {
    let n = args.get_parsed("threads", 0usize)?;
    if n > 0 {
        dlbench_tensor::par::set_threads(n);
    }
    Ok(dlbench_tensor::par::threads())
}

/// `dlbench list`
pub fn list() -> Result<(), String> {
    println!("{:<12} artifact", "key");
    for id in ExperimentId::ALL {
        let kind = if id.needs_training() { "measured" } else { "static" };
        println!("{:<12} [{kind}]", id.key());
    }
    println!("\nrun with: dlbench run <key>… [--scale tiny|small|paper]");
    Ok(())
}

/// `dlbench info`
pub fn info() -> Result<(), String> {
    for fw in FrameworkKind::ALL {
        let m = fw.meta();
        println!("{}", fw.name());
        println!("  version    {} ({})", m.version, m.hash_tag);
        println!("  library    {}", m.library);
        println!("  interfaces {}", m.interfaces);
        println!("  LoC        {}", m.lines_of_code);
        println!("  license    {}", m.license);
        println!("  website    {}", m.website);
        let p = fw.execution_profile();
        println!(
            "  profile    cpu eff {:.3}, gpu eff {:.2}, dispatch {:.0}us, iter overhead {:.1}ms",
            p.cpu_efficiency, p.gpu_efficiency, p.dispatch_us, p.iter_overhead_ms
        );
    }
    Ok(())
}

/// Arms the tracer when `--trace FILE` is present and returns the
/// export path; pair with [`trace_finish`] once the traced work is
/// done.
pub(crate) fn trace_start(args: &ParsedArgs) -> Option<String> {
    let path = args.get("trace")?.to_string();
    dlbench_trace::configure(dlbench_trace::TraceConfig::on());
    dlbench_trace::clear();
    Some(path)
}

/// Drains everything recorded since [`trace_start`], writes it as a
/// Chrome trace_event JSON document, and disarms the tracer.
pub(crate) fn trace_finish(path: Option<String>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let events = dlbench_trace::take_events();
    dlbench_trace::configure(dlbench_trace::TraceConfig::Off);
    let dropped = dlbench_trace::dropped_events();
    write_text_file(&path, &dlbench_trace::chrome_trace(&events))?;
    if dropped > 0 {
        println!("[trace: ring buffer dropped {dropped} events; raise capacity if this matters]");
    }
    println!("[trace: {} events written to {path}]", events.len());
    Ok(())
}

fn write_text_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Checks the `--verify` / `DLBENCH_BLESS` combination up front:
/// blessing reruns the golden experiments, which is only meaningful
/// under `--verify` — a silently ignored `DLBENCH_BLESS=1` would let
/// users believe they refreshed the goldens when nothing happened.
pub(crate) fn verify_mode(args: &ParsedArgs) -> Result<(bool, bool), String> {
    let verify = args.flag("verify");
    let bless = dlbench_verify::golden::bless_enabled();
    if bless && !verify {
        return Err(format!(
            "{}=1 requires --verify: blessing goldens without the \
             verification pass would record unchecked reports",
            dlbench_verify::golden::BLESS_ENV
        ));
    }
    Ok((verify, bless))
}

/// `dlbench run`
pub fn run(args: &ParsedArgs) -> Result<(), String> {
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    let threads = configure_threads(args)?;
    let (verify, bless) = verify_mode(args)?;
    let trace = trace_start(args);
    let mut runner = BenchmarkRunner::new(scale, seed);
    if verify {
        runner.set_guard(std::sync::Arc::new(dlbench_frameworks::Verifier::new()));
    }
    let ids: Vec<ExperimentId> = if args.positionals.is_empty() {
        ExperimentId::ALL.to_vec()
    } else {
        args.positionals
            .iter()
            .map(|k| ExperimentId::from_key(k).ok_or_else(|| format!("unknown experiment `{k}`")))
            .collect::<Result<_, _>>()?
    };
    let out_dir = args.get("out").unwrap_or("target/dlbench-reports");
    for id in ids {
        let mut report = id.run(&mut runner);
        // Execution provenance: thread count affects wall-clock only,
        // but is recorded so report consumers can see how a run was
        // produced. The verify flag travels with the report so readers
        // know whether the epoch-boundary invariant guard was active.
        report.facts.push(("threads".into(), threads.to_string()));
        report.facts.push(("verify".into(), verify.to_string()));
        for v in runner.violations() {
            report.notes.push(format!("verify: {v}"));
        }
        println!("{}", report.render());
        if args.flag("bars") {
            print!("{}", report.render_bars());
        }
        if args.flag("json") {
            let path = format!("{out_dir}/{}.json", id.key());
            write_text_file(&path, &report.to_json())?;
            println!("  [json written to {path}]");
        }
    }
    trace_finish(trace)?;
    let violations = runner.violations();
    if !violations.is_empty() {
        return Err(format!(
            "verification failed: {} invariant violation(s)\n  {}",
            violations.len(),
            violations.join("\n  ")
        ));
    }
    if bless {
        // Goldens are pinned at Tiny/seed 42 and regenerated with a
        // dedicated runner, independent of this run's --scale/--seed.
        dlbench_verify::golden::check_all().map_err(|diffs| diffs.join("\n"))?;
        println!(
            "[goldens blessed under {} at scale Tiny, seed {}]",
            dlbench_verify::golden::golden_dir().display(),
            dlbench_verify::golden::GOLDEN_SEED
        );
    }
    Ok(())
}

fn cell_from_args(
    args: &ParsedArgs,
) -> Result<(FrameworkKind, DefaultSetting, DatasetKind), String> {
    let host = FrameworkKind::parse(args.get("framework").unwrap_or("tf"))?;
    let dataset = DatasetKind::parse(args.get("dataset").unwrap_or("mnist"))?;
    let owner = match args.get("setting-owner") {
        Some(raw) => FrameworkKind::parse(raw)?,
        None => host,
    };
    let tuned_for = match args.get("setting-dataset") {
        Some(raw) => DatasetKind::parse(raw)?,
        None => dataset,
    };
    Ok((host, DefaultSetting::new(owner, tuned_for), dataset))
}

/// Epoch-boundary checkpointing for `train --checkpoint-every N`:
/// every Nth epoch the model is serialized to the `--save` path (a
/// rolling checkpoint — each snapshot overwrites the last, so a crashed
/// run can warm-start from the most recent boundary via `--load`).
struct CheckpointGuard {
    every: usize,
    path: String,
    saves: std::sync::atomic::AtomicUsize,
}

impl dlbench_frameworks::TrainGuard for CheckpointGuard {
    fn after_epoch(&self, ctx: &mut dlbench_frameworks::GuardCtx<'_>) -> Result<(), String> {
        if !(ctx.epoch + 1).is_multiple_of(self.every) {
            return Ok(());
        }
        dlbench_nn::save_parameters_path(ctx.model, &self.path)
            .map_err(|e| format!("checkpoint at epoch {} failed: {e}", ctx.epoch))?;
        self.saves.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

/// `dlbench train`
pub fn train(args: &ParsedArgs) -> Result<(), String> {
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let trace = trace_start(args);
    let (host, setting, dataset) = cell_from_args(args)?;
    println!(
        "training {} with setting {} on {} (scale {scale:?}, seed {seed})",
        host.name(),
        setting.label(),
        dataset.name()
    );
    let every = args.get_parsed("checkpoint-every", 0usize)?;
    let ckpt_guard = if every > 0 {
        let path = args
            .get("save")
            .ok_or("--checkpoint-every requires --save FILE (the rolling checkpoint path)")?;
        Some(CheckpointGuard {
            every,
            path: path.to_string(),
            saves: std::sync::atomic::AtomicUsize::new(0),
        })
    } else {
        None
    };
    let guard = ckpt_guard.as_ref().map(|g| g as &dyn dlbench_frameworks::TrainGuard);
    let mut out = match args.get("load") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let mut reader = std::io::BufReader::new(file);
            println!("warm-starting from checkpoint {path}");
            trainer::run_training_resumed(host, setting, dataset, scale, seed, guard, &mut reader)
                .map_err(|e| format!("cannot warm-start from {path}: {e}"))?
        }
        None => trainer::run_training_guarded(host, setting, dataset, scale, seed, guard),
    };
    if !out.guard_violations.is_empty() {
        return Err(format!("checkpointing failed: {}", out.guard_violations.join("; ")));
    }
    if let Some(g) = &ckpt_guard {
        println!(
            "checkpointing   every {} epoch(s): {} snapshot(s) rolled into {}",
            g.every,
            g.saves.load(std::sync::atomic::Ordering::Relaxed),
            g.path
        );
    }
    trace_finish(trace)?;
    let cpu = out.simulated_times(&devices::xeon_e5_1620());
    let gpu = out.simulated_times(&devices::gtx_1080_ti());
    println!("accuracy        {:.2}%", out.accuracy * 100.0);
    println!("converged       {}", out.converged);
    println!("final loss      {:.4}", out.final_loss());
    println!("iterations      {} (paper budget {})", out.executed_iterations, out.paper_iterations);
    println!("wall train      {:.1}s (this host, reduced scale)", out.wall_train_seconds);
    println!(
        "sim train CPU   {:.2}s   GPU {:.2}s (paper-scale schedule)",
        cpu.train_seconds, gpu.train_seconds
    );
    println!("sim test  CPU   {:.2}s   GPU {:.2}s", cpu.test_seconds, gpu.test_seconds);
    if let Some(path) = args.get("save") {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        dlbench_nn::save_parameters(&mut out.model, &mut file)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        println!("checkpoint      written to {path}");
    }
    Ok(())
}

/// `dlbench quantize`: post-training int8 quantization of one cell.
///
/// Loads an fp32 (v1) or quantized (v2) checkpoint — or trains the cell
/// fresh when `--load` is absent — calibrates activation ranges on a
/// held-out training shard, and reports per-layer calibration stats,
/// the fp32→int8 accuracy drop and the modeled testing-time speedup on
/// the paper's devices. `--save FILE` writes the quantized network as a
/// version-2 checkpoint that `serve`/`fleet` adopt bit-for-bit.
pub fn quantize(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_quant::{
        calibration, cost_split, quantize_checkpoint, quantize_trained, to_entries, Int8Layer,
        QuantConfig,
    };
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let trace = trace_start(args);
    let (host, setting, dataset) = cell_from_args(args)?;
    let defaults = QuantConfig::default();
    let cfg = QuantConfig {
        percentile: args.get_parsed("percentile", defaults.percentile)?,
        momentum: args.get_parsed("momentum", defaults.momentum)?,
        calib_samples: args.get_parsed("calib-samples", defaults.calib_samples)?,
        calib_batch: defaults.calib_batch,
    };
    println!(
        "quantizing {} ({} setting) on {} to int8 (scale {scale:?}, seed {seed}, \
         {} calibration samples @ p{})",
        host.name(),
        setting.label(),
        dataset.name(),
        cfg.calib_samples,
        cfg.percentile
    );

    let (train, test) = trainer::generate_data(dataset, scale, seed);
    let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
    let channel_means = preprocessing.means_for(&train);

    let mut fp32_acc: Option<f32> = None;
    let mut qnet = match args.get("load") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            match dlbench_nn::checkpoint_version(&bytes) {
                Some('2') => {
                    println!("loaded quantized (v2) checkpoint {path}; adopting stored int8 bits");
                    quantize_checkpoint(
                        host,
                        &setting,
                        dataset,
                        scale,
                        seed,
                        &mut bytes.as_slice(),
                        &cfg,
                    )
                    .map_err(|e| format!("cannot load {path}: {e}"))?
                }
                _ => {
                    // v1 fp32 checkpoints keep an fp32 reference model
                    // around for the accuracy-drop comparison; anything
                    // unrecognized fails with the loader's structured
                    // error, never a panic.
                    let mut m = trainer::build_cell_model(host, &setting, dataset, scale, seed);
                    dlbench_nn::load_parameters(&mut m, &mut bytes.as_slice())
                        .map_err(|e| format!("cannot load {path}: {e}"))?;
                    println!("loaded fp32 checkpoint {path}");
                    fp32_acc =
                        Some(trainer::evaluate(&mut m, &test, preprocessing, &channel_means));
                    quantize_trained(m, host, &setting, dataset, scale, seed, &cfg)
                }
            }
        }
        None => {
            let out = trainer::run_training(host, setting, dataset, scale, seed);
            let mut m = out.model;
            fp32_acc = Some(trainer::evaluate(&mut m, &test, preprocessing, &channel_means));
            quantize_trained(m, host, &setting, dataset, scale, seed, &cfg)
        }
    };

    println!("layers          {} ({} quantized to int8)", qnet.len(), calibration(&qnet).len());
    for layer in qnet.layers() {
        let dtype = if layer.as_any().is::<Int8Layer>() { "int8" } else { "fp32 fallback" };
        println!("  {} ({dtype})", layer.name());
    }
    println!("calibration:");
    println!(
        "  {:<12} {:>21} {:>21} {:>11} {:>4} {:>7}",
        "layer", "observed", "calibrated", "scale", "zp", "clip%"
    );
    for c in calibration(&qnet) {
        println!(
            "  {:<12} [{:>8.3},{:>8.3}] [{:>8.3},{:>8.3}] {:>11.6} {:>4} {:>6.2}%",
            c.layer,
            c.observed_min,
            c.observed_max,
            c.range_lo,
            c.range_hi,
            c.scale,
            c.zero_point,
            c.clipped_fraction * 100.0
        );
    }

    let int8_acc = trainer::evaluate(&mut qnet, &test, preprocessing, &channel_means);
    match fp32_acc {
        Some(f) => println!(
            "accuracy        fp32 {:.2}%   int8 {:.2}%   (drop {:+.2}pp)",
            f * 100.0,
            int8_acc * 100.0,
            (f - int8_acc) * 100.0
        ),
        None => println!(
            "accuracy        int8 {:.2}% (v2 checkpoint carries no fp32 reference)",
            int8_acc * 100.0
        ),
    }

    // Modeled testing-time speedup: int8 GEMMs run at the device's
    // int8 throughput, fp32 fallback layers are charged unchanged.
    let arch = trainer::build_cell_model(host, &setting, dataset, scale, seed);
    let size = scale.image_size(dataset);
    let batch = 100usize;
    let (ic, ih, iw) = trainer::input_dims(dataset, size);
    let shape = [batch, ic, ih, iw];
    let (qcost, fcost) = cost_split(&arch, &shape);
    let total = qcost.merge(fcost);
    for (label, device) in [("CPU", devices::xeon_e5_1620()), ("GPU", devices::gtx_1080_ti())] {
        let model = dlbench_simtime::CostModel::new(device, host.execution_profile());
        let fp32_s = model.inference_seconds_batched(&total, batch);
        let int8_s = model.inference_seconds_batched_int8(&qcost, &fcost, batch);
        println!(
            "sim test {label}    fp32 {:.2}ms   int8 {:.2}ms per {batch}-batch ({:.2}x speedup)",
            fp32_s * 1e3,
            int8_s * 1e3,
            fp32_s / int8_s
        );
    }

    if let Some(path) = args.get("save") {
        dlbench_nn::save_quantized_path(&to_entries(&mut qnet), path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("checkpoint      quantized (v2) written to {path}");
    }
    trace_finish(trace)?;
    Ok(())
}

/// `dlbench attack`
pub fn attack(args: &ParsedArgs) -> Result<(), String> {
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let epsilon = args.get_parsed("epsilon", 0.15f32)?;
    let kind = args.get("attack").unwrap_or("fgsm").to_ascii_lowercase();
    let (host, setting, dataset) = cell_from_args(args)?;
    if dataset == DatasetKind::Cifar10 {
        return Err(
            "attacks are defined on the MNIST cells (paper §III.E) and the IMDB text cells \
             (embedding space); pick `dataset mnist` or `dataset imdb`"
                .into(),
        );
    }
    println!(
        "{kind} attack vs {} ({} setting), epsilon {epsilon}, scale {scale:?}",
        host.name(),
        setting.label()
    );
    if dataset.is_text() && matches!(kind.as_str(), "jsma" | "noise") {
        return Err(format!(
            "`{kind}` operates on pixel inputs; text cells support fgsm|pgd \
             (crafted in embedding space)"
        ));
    }
    if !matches!(kind.as_str(), "fgsm" | "pgd" | "jsma" | "noise") {
        let known = if dataset.is_text() { "fgsm|pgd" } else { "fgsm|pgd|jsma|noise" };
        return Err(format!("unknown attack `{kind}` ({known})"));
    }
    let mut model = match args.get("load") {
        Some(path) => {
            // Attack a checkpointed model directly — no training run.
            // A checkpoint from a different architecture fails with the
            // structure-mismatch message, never a panic.
            let mut m = trainer::build_cell_model(host, &setting, dataset, scale, seed);
            dlbench_nn::load_parameters_path(&mut m, path)
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            println!("loaded checkpoint {path} (skipping training)");
            m
        }
        None => trainer::run_training(host, setting, dataset, scale, seed).model,
    };
    let (_, test) = trainer::generate_data(dataset, scale, seed);
    let mut rng = SeededRng::new(seed).fork(0xA77);
    let classes = dataset.num_classes();
    // fgsm and pgd perturb a text model's embedding activations (token
    // ids have a zero input gradient), which no valid range bounds;
    // noise and jsma run on MNIST digits only.
    let (clamp, title) = if dataset.is_text() {
        (None, "per-source-class success (embedding-space)")
    } else {
        (Some((0.0, 1.0)), "per-source-digit success")
    };
    match kind.as_str() {
        "fgsm" => {
            let config = FgsmConfig { epsilon, clamp };
            let rates =
                fgsm_success_rates(&mut model, &test.images, &test.labels, classes, &config);
            print_rates(title, &rates.success_rates());
            println!("mean success rate: {:.3}", rates.mean_success_rate());
        }
        "pgd" => {
            let config = PgdConfig { clamp, ..PgdConfig::standard(epsilon) };
            let rates = pgd_success_rates(
                &mut model,
                &test.images,
                &test.labels,
                classes,
                &config,
                &mut rng,
            );
            print_rates(title, &rates.success_rates());
            println!("mean success rate: {:.3}", rates.mean_success_rate());
        }
        "noise" => {
            let config = NoiseConfig { epsilon, sign_noise: true, clamp: Some((0.0, 1.0)) };
            let rates =
                noise_success_rates(&mut model, &test.images, &test.labels, 10, &config, &mut rng);
            print_rates("per-source-digit success", &rates.success_rates());
            println!(
                "mean success rate: {:.3} (random-noise baseline at the same epsilon)",
                rates.mean_success_rate()
            );
        }
        "jsma" => {
            let source = args.get_parsed("source", 1usize)?;
            let config = JsmaConfig::default();
            let (rates, mean_iters) =
                jsma_success_matrix(&mut model, &test.images, &test.labels, source, 10, &config);
            print_rates(&format!("crafting digit {source} into target"), &rates);
            println!("mean saliency iterations per attempt: {mean_iters:.1}");
        }
        other => unreachable!("attack `{other}` was refused before training"),
    }
    Ok(())
}

fn print_rates(title: &str, rates: &[f32]) {
    println!("{title}:");
    for (i, r) in rates.iter().enumerate() {
        println!("  {i}: {r:.3}");
    }
}

/// `dlbench ablate`
pub fn ablate(args: &ParsedArgs) -> Result<(), String> {
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let report = dlbench_core::extensions::regularizer_robustness(scale, seed);
    println!("{}", report.render());
    Ok(())
}

/// `dlbench stats`
pub fn stats(args: &ParsedArgs) -> Result<(), String> {
    let dataset = DatasetKind::parse(args.get("dataset").unwrap_or("mnist"))?;
    let size = args.get_parsed("size", dataset.native_size())?;
    let samples = args.get_parsed("samples", 512usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    let data = match dataset {
        DatasetKind::Mnist => SynthMnist::generate(samples, size, seed),
        DatasetKind::Cifar10 => SynthCifar10::generate(samples, size, seed),
        DatasetKind::Imdb => dlbench_text::SynthImdb::generate(samples, size, seed),
    };
    let s = data.stats();
    if dataset.is_text() {
        println!("{} stand-in ({samples} sequences @{size} tokens, seed {seed})", dataset.name());
    } else {
        println!("{} stand-in ({samples} samples @{size}x{size}, seed {seed})", dataset.name());
    }
    println!("  pixel entropy   {:.2} bits (32-bin histogram)", s.pixel_entropy);
    println!("  sparsity        {:.1}% of pixels below 0.1", s.sparsity * 100.0);
    for (ch, (m, sd)) in s.channel_means.iter().zip(&s.channel_stds).enumerate() {
        println!("  channel {ch}       mean {m:.3}, std {sd:.3}");
    }
    Ok(())
}

/// Builds the micro-batcher config shared by `serve` and the live
/// `fleet`, refusing a zero batch size or queue (the batcher would run
/// either as 1).
fn batch_config_from_args(args: &ParsedArgs) -> Result<dlbench_serve::BatchConfig, String> {
    let defaults = dlbench_serve::BatchConfig::default();
    Ok(dlbench_serve::BatchConfig {
        max_batch: positive_count(args, "max-batch", defaults.max_batch)?,
        max_wait: std::time::Duration::from_millis(
            args.get_parsed("batch-wait-ms", defaults.max_wait.as_millis() as u64)?,
        ),
        queue_capacity: positive_count(args, "queue", defaults.queue_capacity)?,
    })
}

/// `dlbench serve`
pub fn serve(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_serve::{ModelRegistry, ModelSpec};
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let port = args.get_parsed("port", 8080u16)?;
    let config = batch_config_from_args(args)?;
    let dtype = parse_dtype(args.get("quantize"))?;
    let trace = trace_start(args);

    let mut registry = ModelRegistry::new();
    if args.positionals.is_empty() {
        // One model from the usual cell flags, optionally checkpointed.
        let (host, setting, dataset) = cell_from_args(args)?;
        let name = args.get("name").unwrap_or("default").to_string();
        let spec = ModelSpec { name, host, setting, dataset, scale, seed, dtype };
        let checkpoint = args.get("load").map(std::path::Path::new);
        let served = spec.instantiate(checkpoint).map_err(|e| e.to_string())?;
        registry.register(served, config).map_err(|e| e.to_string())?;
    } else {
        // Multiple models: NAME=FRAMEWORK:DATASET[:CHECKPOINT].
        for raw in &args.positionals {
            let (name, rest) = raw.split_once('=').ok_or_else(|| {
                format!("model spec `{raw}` must be NAME=FRAMEWORK:DATASET[:CHECKPOINT]")
            })?;
            let mut parts = rest.splitn(3, ':');
            let host = FrameworkKind::parse(parts.next().unwrap_or(""))?;
            let dataset = DatasetKind::parse(
                parts.next().ok_or_else(|| format!("model spec `{raw}` missing dataset"))?,
            )?;
            let checkpoint = parts.next().map(std::path::Path::new);
            let spec = ModelSpec::own_default(name, host, dataset, scale, seed).with_dtype(dtype);
            let served = spec.instantiate(checkpoint).map_err(|e| e.to_string())?;
            registry.register(served, config).map_err(|e| e.to_string())?;
        }
    }
    let names = registry.names().join(", ");
    let count = registry.len();
    let server = dlbench_serve::serve(registry, &format!("127.0.0.1:{port}"))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!("serving {count} model(s) [{names}] on http://{}", server.addr());
    println!("  POST /predict/<model>    body: JSON array of input floats");
    println!("  GET  /healthz | GET /metrics | POST /shutdown");
    println!(
        "  batching: max {} per forward, flushed at once unless backlogged, \
         then up to {}ms for stragglers, queue {}",
        config.max_batch,
        config.max_wait.as_millis(),
        config.queue_capacity
    );
    server.wait();
    println!("drained; all in-flight requests answered");
    trace_finish(trace)?;
    Ok(())
}

/// `dlbench loadgen`
pub fn loadgen(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_serve::loadgen::{self, LoadConfig, LoadMode};
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;

    if args.flag("sweep") {
        let deadlines: Vec<u64> = args
            .get("deadlines-ms")
            .unwrap_or("0,1,2,5,10")
            .split(',')
            .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad deadline `{s}`")))
            .collect::<Result<_, _>>()?;
        let requests = positive_count(args, "requests", 64)?;
        let rate = positive_option(args, "rate", 200.0)?;
        let max_batch = positive_count(args, "max-batch", 8)?;
        let doc = loadgen::sweep_personalities(scale, seed, &deadlines, requests, rate, max_batch);
        let out = args.get("out").unwrap_or("target/dlbench-reports/BENCH_serve.json");
        write_text_file(out, &doc.pretty())?;
        println!("[serve sweep written to {out}]");
        return Ok(());
    }

    let url = args.get("url").ok_or("loadgen needs --url HOST:PORT (or --sweep)")?;
    let addr: std::net::SocketAddr =
        url.parse().map_err(|_| format!("bad --url `{url}` (expected HOST:PORT)"))?;
    let model = args.get("model").unwrap_or("default");
    let dataset = DatasetKind::parse(args.get("dataset").unwrap_or("mnist"))?;
    let requests = args.get_parsed("requests", 64usize)?;
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => LoadMode::Closed { concurrency: args.get_parsed("concurrency", 4usize)? },
        "open" => LoadMode::Open { rate_rps: positive_option(args, "rate", 100.0)? },
        other => return Err(format!("unknown mode `{other}` (closed|open)")),
    };
    let inputs = loadgen::sample_inputs(dataset, scale, seed, 16);
    println!("{mode:?} load: {requests} requests at {url}, model `{model}`");
    let report = loadgen::run(addr, model, &inputs, &LoadConfig { mode, requests });
    println!("sent            {}", report.sent);
    println!("ok              {}", report.ok);
    println!("shed (503)      {}", report.shed);
    println!("errors          {}", report.errors);
    println!("wall            {:.2}s", report.wall_s);
    println!("throughput      {:.1} req/s", report.achieved_rps);
    if let Some(s) = report.latency_ms.summary() {
        println!(
            "latency (ms)    p50 {:.2}   p95 {:.2}   p99 {:.2}   max {:.2}",
            s.p50, s.p95, s.p99, s.max
        );
    }
    Ok(())
}

/// Parses `raw` as a positive, finite number, naming it `what` in errors.
fn positive_finite(what: &str, raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        Ok(_) => Err(format!("{what} `{raw}` must be positive and finite")),
        Err(_) => Err(format!("bad {what} `{raw}`")),
    }
}

/// Option `--key` as a positive, finite number, or `default` when absent.
fn positive_option(args: &ParsedArgs, key: &str, default: f64) -> Result<f64, String> {
    args.get(key).map_or(Ok(default), |raw| positive_finite(&format!("--{key}"), raw))
}

/// Option `--key` as a count of at least 1, or `default` when absent.
fn positive_count(args: &ParsedArgs, key: &str, default: usize) -> Result<usize, String> {
    match args.get_parsed(key, default)? {
        0 => Err(format!("--{key} must be positive")),
        n => Ok(n),
    }
}

fn parse_routing(raw: &str) -> Result<dlbench_fleet::RoutingPolicy, String> {
    dlbench_fleet::RoutingPolicy::parse(raw)
        .ok_or_else(|| format!("unknown routing policy `{raw}` (rr|least-queue|batch-aware)"))
}

/// `dlbench fleet --sweep`: arrival rates × routing policies ×
/// autoscaling through the simtime fleet simulator, written as
/// `BENCH_fleet.json`. Pure sim-time, so the document is byte-identical
/// across runs (check.sh enforces this).
fn fleet_sweep(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_fleet::{fleet_sweep_doc, RoutingPolicy, SimFleetConfig};
    let rates: Vec<f64> = args
        .get("rates")
        .unwrap_or("1000,50000,1000000")
        .split(',')
        .map(|s| positive_finite("rate", s))
        .collect::<Result<_, _>>()?;
    let policies: Vec<RoutingPolicy> = match args.get("routing") {
        None => RoutingPolicy::ALL.to_vec(),
        Some(raw) => raw.split(',').map(|s| parse_routing(s.trim())).collect::<Result<_, _>>()?,
    };
    let autoscale_modes: &[bool] = match args.get("autoscale").unwrap_or("both") {
        "both" => &[false, true],
        "on" => &[true],
        "off" => &[false],
        other => return Err(format!("unknown --autoscale `{other}` (both|on|off)")),
    };
    let requests = positive_count(args, "requests", 2_000)?;
    let mut base = SimFleetConfig::new(0.0, requests);
    base.host = FrameworkKind::parse(args.get("framework").unwrap_or("tf"))?;
    base.dataset = DatasetKind::parse(args.get("dataset").unwrap_or("mnist"))?;
    base.scale = parse_scale(args.get("scale"))?;
    base.seed = args.get_parsed("seed", 42u64)?;
    base.replicas = args.get_parsed("replicas", 2usize)?.max(1);
    base.max_batch = args.get_parsed("max-batch", 8usize)?.max(1);
    base.target_p99_ms = positive_option(args, "target-p99-ms", 20.0)?;
    base.dtype = parse_dtype(args.get("quantize"))?;
    let doc = fleet_sweep_doc(&base, &rates, &policies, autoscale_modes);
    let out = args.get("out").unwrap_or("target/dlbench-reports/BENCH_fleet.json");
    write_text_file(out, &(doc.pretty() + "\n"))?;
    let cells = rates.len() * policies.len() * autoscale_modes.len();
    println!("[fleet sweep: {cells} cells written to {out}]");
    Ok(())
}

/// `dlbench fleet`: a live fleet demo — N replicas serve under
/// concurrent load while a real `dist-train` run streams epoch-boundary
/// checkpoints through the health gate and hot-swaps the fleet.
pub fn fleet(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_fleet::{
        dist_training_stream, Fleet, FleetConfig, HealthGateConfig, Promoter, PromotionOutcome,
    };
    use dlbench_serve::{loadgen, ModelSpec};
    if args.flag("sweep") {
        return fleet_sweep(args);
    }
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let trace = trace_start(args);
    let (host, setting, dataset) = cell_from_args(args)?;
    let config = FleetConfig {
        replicas: args.get_parsed("replicas", 2usize)?.max(1),
        policy: parse_routing(args.get("routing").unwrap_or("least-queue"))?,
        batch: batch_config_from_args(args)?,
        target_p99_ms: positive_option(args, "target-p99-ms", 50.0)?,
    };
    let dtype = parse_dtype(args.get("quantize"))?;
    let spec = ModelSpec { name: "default".into(), host, setting, dataset, scale, seed, dtype };
    let concurrency = args.get_parsed("concurrency", 4usize)?.max(1);
    let every = args.get_parsed("promote-every", 1usize)?.max(1);
    let workers = args.get_parsed("workers", 2usize)?.max(1);

    println!(
        "fleet: {} replica(s), {} routing, target p99 {}ms",
        config.replicas, config.policy, config.target_p99_ms
    );
    let fleet = std::sync::Arc::new(
        Fleet::new(spec, config, None).map_err(|e| format!("starting the fleet: {e}"))?,
    );
    let promoter = Promoter::new(std::sync::Arc::clone(&fleet), HealthGateConfig::default());
    let max_steps = match args.get_parsed("max-steps", 0usize)? {
        0 => None,
        n => Some(n),
    };
    let dcfg = dlbench_dist::DistConfig { workers, max_steps, ..Default::default() };
    println!("training: {workers} worker(s), promoting every {every} epoch(s)");
    let (train_handle, candidates) =
        dist_training_stream(host, setting, dataset, scale, seed, every, dcfg);

    // Load hammers the fleet on a background thread for the whole
    // promotion window, so every swap happens under traffic.
    let inputs = loadgen::sample_inputs(dataset, scale, seed, 16);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let fleet_ref = &fleet;
        let inputs = &inputs;
        let stop_ref = &stop;
        let load = scope
            .spawn(move || dlbench_fleet::drive_until(fleet_ref, inputs, concurrency, stop_ref));
        for c in candidates {
            let kind = if c.is_final { "final" } else { "rolling" };
            match promoter.offer(c.epoch, &c.bytes) {
                PromotionOutcome::Promoted { version, epoch, accuracy, requeued } => println!(
                    "  promoted {kind} checkpoint @ epoch {epoch} -> v{version} \
                     (holdout acc {accuracy:.3}, {requeued} request(s) carried across)"
                ),
                PromotionOutcome::Rejected { epoch, reason } => {
                    println!("  rejected {kind} checkpoint @ epoch {epoch}: {reason}")
                }
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        load.join().expect("load driver panicked")
    });
    let outcome = train_handle.join().map_err(|_| "training thread panicked".to_string())??;

    println!(
        "training done: {} iteration(s), final loss {:.4}, accuracy {:.2}%",
        outcome.executed_iterations,
        outcome.final_loss(),
        outcome.accuracy * 100.0
    );
    println!(
        "load: {} sent, {} ok, {} shed, {} error(s)",
        report.sent, report.ok, report.shed, report.errors
    );
    if let Some(s) = &report.latency_ms {
        println!(
            "latency (ms)    p50 {:.2}   p95 {:.2}   p99 {:.2}   max {:.2}",
            s.p50, s.p95, s.p99, s.max
        );
    }
    for (version, n) in &report.by_version {
        println!("  v{version}: {n} request(s)");
    }
    println!(
        "SLO burn        {:.3}  (target p99 {}ms)",
        fleet.slo_burn(),
        fleet.config().target_p99_ms
    );
    println!("fleet version   v{}", fleet.version());
    if report.errors > 0 {
        return Err(format!("{} request(s) errored during promotion", report.errors));
    }
    fleet.drain();
    trace_finish(trace)?;
    Ok(())
}

/// Per-thread structural validation of a training trace: spans must
/// nest properly (no partial overlap) and at least one thread must
/// carry the full epoch ⊃ iteration ⊃ layer ⊃ kernel chain.
fn validate_trace(events: &[dlbench_trace::Event]) -> Result<(), String> {
    use dlbench_trace::Category;
    use std::collections::BTreeMap;
    let mut per_tid: BTreeMap<u64, Vec<&dlbench_trace::Event>> = BTreeMap::new();
    for e in events {
        if e.is_span() {
            per_tid.entry(e.tid).or_default().push(e);
        }
    }
    if per_tid.is_empty() {
        return Err("trace contains no spans".into());
    }
    let mut full_chain = false;
    for (tid, mut spans) in per_tid {
        // Outermost-first at equal starts, so a stack walk detects any
        // partial overlap between same-thread spans.
        spans.sort_by(|a, b| a.start_ns().cmp(&b.start_ns()).then(b.end_ns().cmp(&a.end_ns())));
        let mut stack: Vec<&dlbench_trace::Event> = Vec::new();
        for span in spans {
            while let Some(top) = stack.last() {
                if span.start_ns() >= top.end_ns() {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if span.end_ns() > top.end_ns() {
                    return Err(format!(
                        "thread {tid}: span `{}` partially overlaps `{}` — broken nesting",
                        span.name, top.name
                    ));
                }
            }
            if span.cat == Category::Kernel {
                let mut have = (false, false, false);
                for anc in &stack {
                    match (anc.cat, anc.name.as_ref()) {
                        (Category::Layer, _) => have.0 = true,
                        (Category::Train, "iteration") => have.1 = true,
                        (Category::Train, "epoch") => have.2 = true,
                        _ => {}
                    }
                }
                full_chain |= have == (true, true, true);
            }
            stack.push(span);
        }
    }
    if !full_chain {
        return Err("no thread carries the epoch ⊃ iteration ⊃ layer ⊃ kernel chain".into());
    }
    Ok(())
}

/// Every layer of the cell's architecture must have produced at least
/// one forward span; returns the layer count on success.
fn check_layer_coverage(
    events: &[dlbench_trace::Event],
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
) -> Result<usize, String> {
    use std::collections::BTreeSet;
    let model = trainer::build_cell_model(host, setting, dataset, scale, seed);
    let expected: BTreeSet<&str> = model.layers().iter().map(|l| l.name()).collect();
    let seen: BTreeSet<&str> = events
        .iter()
        .filter(|e| e.cat == dlbench_trace::Category::Layer && e.is_span())
        .map(|e| e.name.as_ref())
        .collect();
    let missing: Vec<&str> = expected.iter().copied().filter(|n| !seen.contains(n)).collect();
    if missing.is_empty() {
        Ok(expected.len())
    } else {
        Err(format!("layers with no forward span: {}", missing.join(", ")))
    }
}

/// Each named kernel must have produced spans, and every one of them
/// must carry its FLOPs, or the profile's GFLOP/s join is empty.
/// Returns the span counts, e.g. `"12 gemm_i8 + 4 qconv_fused"`.
fn check_kernel_spans(events: &[dlbench_trace::Event], kernels: &[&str]) -> Result<String, String> {
    let mut counts = Vec::new();
    for &kernel in kernels {
        let flops: Vec<u64> = events
            .iter()
            .filter(|e| e.name.as_ref() == kernel)
            .filter_map(|e| match e.kind {
                dlbench_trace::EventKind::Span { flops, .. } => Some(flops),
                _ => None,
            })
            .collect();
        if flops.is_empty() {
            return Err(format!("produced no {kernel} spans"));
        }
        if flops.contains(&0) {
            return Err(format!("has a {kernel} span carrying zero FLOPs"));
        }
        counts.push(format!("{} {kernel}", flops.len()));
    }
    Ok(counts.join(" + "))
}

/// Structural checks on a distributed-training trace: the collective's
/// spans must be present and `broadcast` must sit inside `allreduce`
/// (same-thread nesting is already proven by [`validate_trace`]; this
/// checks the distributed chain specifically).
fn validate_dist_trace(events: &[dlbench_trace::Event]) -> Result<(), String> {
    use dlbench_trace::Category;
    let dist_span = |name: &str| {
        events.iter().any(|e| e.cat == Category::Dist && e.is_span() && e.name.as_ref() == name)
    };
    for required in ["allreduce", "broadcast", "shard_wait", "shard_compute"] {
        if !dist_span(required) {
            return Err(format!("dist trace is missing `{required}` spans"));
        }
    }
    // Every broadcast must be enclosed by an allreduce on its thread.
    for bc in events
        .iter()
        .filter(|e| e.cat == Category::Dist && e.is_span() && e.name.as_ref() == "broadcast")
    {
        let enclosed = events.iter().any(|ar| {
            ar.cat == Category::Dist
                && ar.is_span()
                && ar.name.as_ref() == "allreduce"
                && ar.tid == bc.tid
                && ar.start_ns() <= bc.start_ns()
                && bc.end_ns() <= ar.end_ns()
        });
        if !enclosed {
            return Err("a `broadcast` span is not nested inside an `allreduce`".into());
        }
    }
    Ok(())
}

/// `dlbench profile`
pub fn profile(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_trace::{ChromeTraceDoc, ProfileReport, TraceConfig};
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let dataset = DatasetKind::parse(args.get("dataset").unwrap_or("mnist"))?;
    let out = args.get("trace").unwrap_or("target/dlbench-reports/TRACE_profile.json").to_string();
    let out_dir = args.get("out").unwrap_or("target/dlbench-reports").to_string();
    let mut doc = ChromeTraceDoc::new();
    for (i, &host) in FrameworkKind::ALL.iter().enumerate() {
        let setting = DefaultSetting::new(host, dataset);
        let label = format!("{} ({}) on {}", host.name(), setting.label(), dataset.name());
        dlbench_trace::configure(TraceConfig::on());
        dlbench_trace::clear();
        let _ = trainer::run_training(host, setting, dataset, scale, seed);
        let events = dlbench_trace::take_events();
        dlbench_trace::configure(TraceConfig::Off);
        validate_trace(&events).map_err(|e| format!("{label}: {e}"))?;
        let layers = check_layer_coverage(&events, host, &setting, dataset, scale, seed)
            .map_err(|e| format!("{label}: {e}"))?;
        // Every personality trains convolutions: the fused backward's two
        // kernels must show up with their FLOPs.
        check_kernel_spans(&events, &["conv_bwd_data", "conv_bwd_filter"])
            .map_err(|e| format!("{label}: training {e}"))?;
        // Efficiency is judged against what the simtime model says this
        // personality should extract from the CPU reference device.
        let reference =
            devices::xeon_e5_1620().throughput_gflops * host.execution_profile().cpu_efficiency;
        let report = ProfileReport::from_events(&events);
        let span_count = events.iter().filter(|e| e.is_span()).count();
        println!("== {label} ==");
        println!("{span_count} spans across {layers} instrumented layers, nesting OK");
        println!("{}", report.render(Some(reference)));
        if args.flag("json") {
            let path = format!("{out_dir}/PROFILE_{}.json", host.name().to_ascii_lowercase());
            write_text_file(&path, &report.to_json(Some(reference)))?;
            println!("  [profile json written to {path}]");
        }
        doc.add_process((i + 1) as u64, &label, &events);
    }
    // One distributed pass: ring all-reduce over 2 workers, so the
    // trace also demonstrates the collective spans (allreduce ⊃
    // broadcast, shard_wait, ring_exchange) alongside the per-layer
    // kernels.
    {
        let host = FrameworkKind::TensorFlow;
        let setting = DefaultSetting::new(host, dataset);
        let label = format!("{} x2 ring on {}", host.name(), dataset.name());
        let config = dlbench_dist::DistConfig {
            workers: 2,
            strategy: dlbench_dist::Strategy::Ring,
            max_steps: Some(60),
            ..Default::default()
        };
        dlbench_trace::configure(TraceConfig::on());
        dlbench_trace::clear();
        let outcome = dlbench_dist::run_dist_training(host, setting, dataset, scale, seed, &config)
            .map_err(|e| format!("{label}: {e}"))?;
        let events = dlbench_trace::take_events();
        dlbench_trace::configure(TraceConfig::Off);
        validate_trace(&events).map_err(|e| format!("{label}: {e}"))?;
        validate_dist_trace(&events).map_err(|e| format!("{label}: {e}"))?;
        let dist_spans =
            events.iter().filter(|e| e.cat == dlbench_trace::Category::Dist && e.is_span()).count();
        println!("== {label} ==");
        println!(
            "{dist_spans} collective spans over {} steps, allreduce nesting OK; \
             {} bytes/step on the wire",
            outcome.executed_iterations, outcome.comm.bytes_per_step
        );
        let report = ProfileReport::from_events(&events);
        let reference =
            devices::xeon_e5_1620().throughput_gflops * host.execution_profile().cpu_efficiency;
        println!("{}", report.render(Some(reference)));
        doc.add_process((FrameworkKind::ALL.len() + 1) as u64, &label, &events);
    }
    // One quantized-inference pass: post-training-quantize the trained
    // TF cell and trace a batched int8 forward, so the profile also
    // covers the `gemm_i8`/`qconv_fused`/`quantize_i8` kernels with
    // their joined FLOP/s (inference-only — the train-chain validation
    // above does not apply here).
    {
        let host = FrameworkKind::TensorFlow;
        let setting = DefaultSetting::new(host, dataset);
        let label = format!("{} int8 inference on {}", host.name(), dataset.name());
        let out = trainer::run_training(host, setting, dataset, scale, seed);
        let mut qnet = dlbench_quant::quantize_trained(
            out.model,
            host,
            &setting,
            dataset,
            scale,
            seed,
            &dlbench_quant::QuantConfig::default(),
        );
        let (train, test) = trainer::generate_data(dataset, scale, seed);
        let idx: Vec<usize> = (0..test.len().min(64)).collect();
        let (images, _labels) = test.gather(&idx);
        let preprocessing = trainer::effective_preprocessing(host, &setting, dataset);
        let x = preprocessing.apply(&images, &preprocessing.means_for(&train));
        dlbench_trace::configure(TraceConfig::on());
        dlbench_trace::clear();
        let _ = qnet.forward(&x, false);
        let events = dlbench_trace::take_events();
        dlbench_trace::configure(TraceConfig::Off);
        // The two int8 kernels: `gemm_i8` behind `qlinear` and the fused
        // int8 conv behind `qconv2d`.
        let counts = check_kernel_spans(&events, &["gemm_i8", "qconv_fused"])
            .map_err(|e| format!("{label}: quantized forward {e}"))?;
        println!("== {label} ==");
        println!(
            "{} spans over a {}-sample int8 forward ({} of {} layers quantized)",
            counts,
            idx.len(),
            dlbench_quant::calibration(&qnet).len(),
            qnet.len()
        );
        let reference =
            devices::xeon_e5_1620().throughput_gflops * host.execution_profile().cpu_efficiency;
        let report = ProfileReport::from_events(&events);
        println!("{}", report.render(Some(reference)));
        doc.add_process((FrameworkKind::ALL.len() + 2) as u64, &label, &events);
    }
    let rendered = doc.render();
    // The exporter hand-emits JSON; prove the artifact parses before
    // handing it to the user.
    dlbench_json::parse(&rendered).map_err(|e| format!("exported trace is invalid JSON: {e}"))?;
    write_text_file(&out, &rendered)?;
    println!("[chrome trace written to {out}; load in Perfetto or chrome://tracing]");
    Ok(())
}

/// Parses `--kill W:S[,W:S…]` into kill faults.
fn parse_kills(raw: &str) -> Result<Vec<dlbench_dist::Kill>, String> {
    raw.split(',')
        .map(|item| {
            let (w, s) = item
                .split_once(':')
                .ok_or_else(|| format!("bad --kill entry `{item}` (expected WORKER:STEP)"))?;
            Ok(dlbench_dist::Kill {
                worker: w.trim().parse().map_err(|_| format!("bad worker in `{item}`"))?,
                step: s.trim().parse().map_err(|_| format!("bad step in `{item}`"))?,
            })
        })
        .collect()
}

/// Parses `--straggle W:FACTOR[:FROM][,…]` into straggler faults.
fn parse_stragglers(raw: &str) -> Result<Vec<dlbench_dist::Straggler>, String> {
    raw.split(',')
        .map(|item| {
            let mut parts = item.split(':');
            let worker = parts
                .next()
                .and_then(|w| w.trim().parse().ok())
                .ok_or_else(|| format!("bad worker in `{item}` (expected WORKER:FACTOR[:FROM])"))?;
            let factor = parts
                .next()
                .and_then(|f| f.trim().parse().ok())
                .ok_or_else(|| format!("bad factor in `{item}` (expected WORKER:FACTOR[:FROM])"))?;
            let from_step = match parts.next() {
                None => 0,
                Some(s) => s.trim().parse().map_err(|_| format!("bad from-step in `{item}`"))?,
            };
            if parts.next().is_some() {
                return Err(format!("too many fields in `{item}` (expected WORKER:FACTOR[:FROM])"));
            }
            Ok(dlbench_dist::Straggler { worker, factor, from_step })
        })
        .collect()
}

/// Parses a comma-separated worker-count list for the scaling sweep.
fn parse_worker_list(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|s| s.trim().parse::<usize>().map_err(|_| format!("bad worker count `{s}`")))
        .collect()
}

/// `dlbench dist-train`
pub fn dist_train(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_dist::{run_dist_training, scaling_sweep, DistConfig, FaultPlan, Strategy};
    let scale = parse_scale(args.get("scale"))?;
    let seed = args.get_parsed("seed", 42u64)?;
    configure_threads(args)?;
    let max_steps = match args.get_parsed("max-steps", 0usize)? {
        0 => None,
        n => Some(n),
    };

    if args.flag("sweep") {
        let workers = parse_worker_list(args.get("workers").unwrap_or("1,2,4,8"))?;
        let strategies: Vec<Strategy> = match args.get("strategy") {
            None => Strategy::ALL.to_vec(),
            Some(raw) => {
                raw.split(',').map(|s| Strategy::parse(s.trim())).collect::<Result<_, _>>()?
            }
        };
        println!(
            "dist scaling sweep: workers {workers:?}, strategies [{}], scale {scale:?}, seed {seed}",
            strategies.iter().map(|s| s.name()).collect::<Vec<_>>().join(", ")
        );
        let doc = scaling_sweep(scale, seed, &workers, &strategies, max_steps);
        let out = args.get("out").unwrap_or("target/dlbench-reports/BENCH_dist.json");
        write_text_file(out, &doc.pretty())?;
        println!("[dist scaling sweep written to {out}]");
        return Ok(());
    }

    let (host, setting, dataset) = cell_from_args(args)?;
    let workers = args.get_parsed("workers", 2usize)?;
    let strategy = Strategy::parse(args.get("strategy").unwrap_or("ps"))?;
    let mut faults = FaultPlan::default();
    if let Some(raw) = args.get("kill") {
        faults.kills = parse_kills(raw)?;
    }
    if let Some(raw) = args.get("straggle") {
        faults.stragglers = parse_stragglers(raw)?;
    }
    let config =
        DistConfig { workers, strategy, faults, rebalance: !args.flag("no-rebalance"), max_steps };
    println!(
        "distributed training: {} with setting {} on {}, {} worker(s), strategy {} \
         (scale {scale:?}, seed {seed})",
        host.name(),
        setting.label(),
        dataset.name(),
        workers,
        strategy.name()
    );
    let trace = trace_start(args);
    let out = run_dist_training(host, setting, dataset, scale, seed, &config)?;
    trace_finish(trace)?;
    let report = dlbench_core::dist_report(&out);
    println!("{}", report.render());
    if args.flag("bars") {
        print!("{}", report.render_bars());
    }
    if args.flag("json") {
        let out_dir = args.get("out").unwrap_or("target/dlbench-reports");
        let path = format!("{out_dir}/dist_train.json");
        write_text_file(&path, &report.to_json())?;
        println!("  [json written to {path}]");
    }
    if let Some(path) = args.get("save") {
        // Every surviving replica holds the same bits; this is rank 0's
        // stream, interchangeable with a single-node checkpoint.
        std::fs::write(path, &out.checkpoint).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("checkpoint      written to {path}");
    }
    Ok(())
}

/// `dlbench run-spec`
pub fn run_spec(args: &ParsedArgs) -> Result<(), String> {
    use dlbench_core::spec::{self, RunOptions};
    let path =
        args.positionals.first().ok_or("run-spec needs a spec file (see examples/specs/)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let experiment = spec::ExperimentSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let plan = experiment.expand().map_err(|e| format!("{path}: {e}"))?;
    configure_threads(args)?;
    if args.flag("dry-run") {
        println!("{}", plan.to_json().pretty());
        println!("[plan: {} cell(s), nothing executed]", plan.cells.len());
        return Ok(());
    }
    let cache_dir = args.get("cache-dir").unwrap_or("target/dlbench-cache");
    let opts = RunOptions { cache_dir: cache_dir.into(), force: args.flag("force") };
    let trace = trace_start(args);
    let run = spec::run_plan(&plan, &opts)?;
    trace_finish(trace)?;
    for report in spec::aggregate_reports(&run) {
        println!("{}", report.render());
        if args.flag("bars") {
            print!("{}", report.render_bars());
        }
    }
    let out = args.get("out").unwrap_or("target/dlbench-reports/BENCH_spec.json");
    write_text_file(out, &(spec::document(&run).pretty() + "\n"))?;
    println!("[spec results written to {out}]");
    println!(
        "[{} cells: {} executed, {} cache hits]",
        run.cells.len(),
        run.executed,
        run.cache_hits
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(line: &str) -> ParsedArgs {
        crate::args::parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn kernel_span_check_rejects_missing_and_zero_flop_spans() {
        use dlbench_trace::{Category, Event, EventKind};
        let span = |name: &'static str, flops| Event {
            name: name.into(),
            cat: Category::Kernel,
            tid: 1,
            seq: 0,
            kind: EventKind::Span { start_ns: 0, dur_ns: 1, depth: 0, flops },
        };
        let kernels = ["conv_bwd_data", "conv_bwd_filter"];
        let events = [span("conv_bwd_data", 8), span("conv_bwd_filter", 8), span("gemm", 0)];
        assert_eq!(
            check_kernel_spans(&events, &kernels).unwrap(),
            "1 conv_bwd_data + 1 conv_bwd_filter"
        );
        let err = check_kernel_spans(&events[..1], &kernels).unwrap_err();
        assert!(err.contains("no conv_bwd_filter spans"), "{err}");
        let events = [span("conv_bwd_data", 8), span("conv_bwd_filter", 0)];
        let err = check_kernel_spans(&events, &kernels).unwrap_err();
        assert!(err.contains("conv_bwd_filter span carrying zero FLOPs"), "{err}");
    }

    #[test]
    fn framework_parsing() {
        for (raw, fw) in [
            ("tf", FrameworkKind::TensorFlow),
            ("TensorFlow", FrameworkKind::TensorFlow),
            ("caffe", FrameworkKind::Caffe),
            ("Torch", FrameworkKind::Torch),
        ] {
            let (host, setting, _) =
                cell_from_args(&cli(&format!("train --framework {raw} --setting-owner {raw}")))
                    .unwrap();
            assert_eq!((host, setting.owner), (fw, fw), "{raw}");
        }
        let err = cell_from_args(&cli("train --framework mxnet")).unwrap_err();
        assert!(err.contains("unknown framework `mxnet`"), "{err}");
    }

    #[test]
    fn dataset_parsing() {
        for (raw, ds) in [
            ("mnist", DatasetKind::Mnist),
            ("CIFAR-10", DatasetKind::Cifar10),
            ("cifar", DatasetKind::Cifar10),
            ("imdb", DatasetKind::Imdb),
        ] {
            let (_, setting, dataset) =
                cell_from_args(&cli(&format!("train --dataset {raw} --setting-dataset {raw}")))
                    .unwrap();
            assert_eq!((dataset, setting.tuned_for), (ds, ds), "{raw}");
        }
        assert!(cell_from_args(&cli("train --dataset imagenet")).is_err());
    }

    #[test]
    fn scale_parsing_defaults_to_tiny() {
        assert_eq!(parse_scale(None).unwrap(), Scale::Tiny);
        assert_eq!(parse_scale(Some("paper")).unwrap(), Scale::Paper);
        assert!(parse_scale(Some("huge")).is_err());
    }

    #[test]
    fn cell_from_args_defaults_setting_to_host_and_dataset() {
        let parsed = crate::args::parse(&[
            "train".into(),
            "--framework".into(),
            "caffe".into(),
            "--dataset".into(),
            "cifar10".into(),
        ])
        .unwrap();
        let (host, setting, dataset) = cell_from_args(&parsed).unwrap();
        assert_eq!(host, FrameworkKind::Caffe);
        assert_eq!(dataset, DatasetKind::Cifar10);
        assert_eq!(setting.owner, FrameworkKind::Caffe);
        assert_eq!(setting.tuned_for, DatasetKind::Cifar10);
    }

    #[test]
    fn threads_flag_sets_worker_count() {
        let parsed = crate::args::parse(&["run".into(), "--threads".into(), "3".into()]).unwrap();
        assert_eq!(configure_threads(&parsed).unwrap(), 3);
        // Absent flag keeps whatever is configured.
        dlbench_tensor::par::set_threads(1);
        let parsed = crate::args::parse(&["run".into()]).unwrap();
        assert_eq!(configure_threads(&parsed).unwrap(), 1);
        // Non-numeric values are rejected.
        let parsed =
            crate::args::parse(&["run".into(), "--threads".into(), "lots".into()]).unwrap();
        assert!(configure_threads(&parsed).is_err());
    }

    #[test]
    fn bless_without_verify_is_rejected() {
        // One test owns the env var: parallel test threads in this
        // binary must not race on it.
        let parsed_plain = crate::args::parse(&["run".into()]).unwrap();
        let parsed_verify = crate::args::parse(&["run".into(), "--verify".into()]).unwrap();

        std::env::set_var(dlbench_verify::golden::BLESS_ENV, "1");
        let err = verify_mode(&parsed_plain).unwrap_err();
        assert!(err.contains("--verify"), "{err}");
        assert_eq!(verify_mode(&parsed_verify).unwrap(), (true, true));

        // Only the literal "1" arms blessing.
        std::env::set_var(dlbench_verify::golden::BLESS_ENV, "yes");
        assert_eq!(verify_mode(&parsed_plain).unwrap(), (false, false));

        std::env::remove_var(dlbench_verify::golden::BLESS_ENV);
        assert_eq!(verify_mode(&parsed_plain).unwrap(), (false, false));
        assert_eq!(verify_mode(&parsed_verify).unwrap(), (true, false));
    }

    #[test]
    fn verify_is_a_flag_not_an_option() {
        let parsed =
            crate::args::parse(&["run".into(), "--verify".into(), "fig_1".into()]).unwrap();
        assert!(parsed.flag("verify"));
        assert_eq!(parsed.positionals, vec!["fig_1"]);
    }

    #[test]
    fn cell_from_args_supports_transplants() {
        let parsed = crate::args::parse(&[
            "train".into(),
            "--framework".into(),
            "tf".into(),
            "--dataset".into(),
            "mnist".into(),
            "--setting-owner".into(),
            "caffe".into(),
            "--setting-dataset".into(),
            "cifar10".into(),
        ])
        .unwrap();
        let (host, setting, dataset) = cell_from_args(&parsed).unwrap();
        assert_eq!(host, FrameworkKind::TensorFlow);
        assert_eq!(dataset, DatasetKind::Mnist);
        assert_eq!(setting.owner, FrameworkKind::Caffe);
        assert_eq!(setting.tuned_for, DatasetKind::Cifar10);
    }
}
