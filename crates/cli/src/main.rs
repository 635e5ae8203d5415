//! `dlbench` — command-line interface for the DLBench suite.
//!
//! ```text
//! dlbench list                                   # experiments in the registry
//! dlbench info                                   # framework metadata (Table I)
//! dlbench run fig_1 table_viii --scale tiny      # regenerate paper artifacts
//! dlbench train --framework caffe --dataset mnist --save model.ckpt
//! dlbench attack --attack pgd --framework tf --epsilon 0.2
//! dlbench stats --dataset cifar10 --size 32
//! ```

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
dlbench — benchmarking deep learning framework personalities

USAGE:
    dlbench <command> [args] [--options]

COMMANDS:
    list                          list the experiment registry
    info                          framework metadata (paper Table I)
    run <experiment>…             regenerate paper tables/figures
                                  [--scale tiny|small|paper] [--seed N]
                                  [--bars] [--json] [--out DIR]
                                  [--threads N] [--verify]
                                  [--trace FILE]  (Chrome trace of the
                                  whole run; also on train and serve)
    run-spec <file.json>          execute a declarative experiment spec:
                                  the spec's axes expand into a grid of
                                  train/dist/serve/fleet cells, keyed by
                                  a content hash; finished cells persist
                                  under --cache-dir and are skipped on
                                  re-run, so interrupted sweeps resume
                                  [--cache-dir DIR] [--out FILE]
                                  [--threads N] [--force] [--dry-run]
                                  [--bars] [--trace FILE]
                                  (spec grammar: DESIGN.md §11;
                                  examples under examples/specs/)
    train                         train one benchmark cell
                                  [--framework tf|caffe|torch]
                                  [--dataset mnist|cifar10]
                                  [--setting-owner tf|caffe|torch]
                                  [--setting-dataset mnist|cifar10]
                                  [--scale …] [--seed N] [--save FILE]
                                  [--load FILE]  (warm-start checkpoint)
                                  [--checkpoint-every N]  (roll a
                                  checkpoint into --save FILE every N
                                  epochs; resume with --load)
    quantize                      post-training int8 quantization of one
                                  cell: calibrates activation ranges on
                                  a held-out shard, reports per-layer
                                  calibration stats, the fp32->int8
                                  accuracy drop and the modeled
                                  testing-time speedup
                                  [--framework …] [--dataset …]
                                  [--setting-owner …] [--setting-dataset …]
                                  [--scale …] [--seed N]
                                  [--load FILE]  (fp32 v1 or quantized
                                  v2 checkpoint; trains fresh if absent)
                                  [--save FILE]  (write v2 quantized
                                  checkpoint for serve/fleet)
                                  [--calib-samples N] [--percentile P]
                                  [--momentum M] [--threads N]
    dist-train                    simulated data-parallel training
                                  [--workers N] [--strategy ps|ring]
                                  [--framework …] [--dataset …]
                                  [--scale …] [--seed N] [--max-steps N]
                                  [--kill W:STEP[,…]]
                                  [--straggle W:FACTOR[:FROM][,…]]
                                  [--no-rebalance] [--save FILE]
                                  [--bars] [--json] [--trace FILE]
                                  or: --sweep [--workers 1,2,4,8]
                                  [--strategy ps,ring] [--out FILE]
                                  (BENCH_dist.json scaling curves)
    attack                        attack a trained cell
                                  [--attack fgsm|pgd|jsma|noise]
                                  [--framework …] [--epsilon X] [--seed N]
                                  [--load FILE]  (skip training, attack
                                  the checkpointed model)
    serve                         serve models over HTTP with dynamic
                                  micro-batching
                                  [NAME=FRAMEWORK:DATASET[:CKPT]]…
                                  [--framework …] [--dataset …]
                                  [--load FILE] [--name NAME]
                                  [--port N] [--max-batch N]
                                  [--batch-wait-ms N] [--queue N]
                                  [--quantize fp32|int8]  (int8 serves
                                  the post-training-quantized model;
                                  v1 checkpoints quantize on load, v2
                                  quantized checkpoints adopt bits)
                                  [--scale …] [--seed N] [--threads N]
    loadgen                       drive predict load at a serve instance
                                  --url HOST:PORT [--model NAME]
                                  [--mode closed|open] [--requests N]
                                  [--concurrency N] [--rate RPS]
                                  [--dataset …] [--scale …] [--seed N]
                                  or: --sweep [--deadlines-ms 0,1,2,5,10]
                                  [--max-batch N] [--out FILE]
                                  (BENCH_serve.json rows)
    fleet                         multi-replica serving fleet with live
                                  train->serve checkpoint promotion:
                                  replicas serve under concurrent load
                                  while dist-train streams epoch
                                  checkpoints through the health gate
                                  and hot-swaps them in (zero drops)
                                  [--replicas N] [--routing rr|
                                  least-queue|batch-aware]
                                  [--target-p99-ms X]
                                  [--concurrency N] [--promote-every N]
                                  [--workers N] [--max-steps N]
                                  [--framework …] [--dataset …]
                                  [--scale …] [--seed N]
                                  [--max-batch N] [--batch-wait-ms N]
                                  [--queue N] [--quantize fp32|int8]
                                  [--trace FILE]
                                  or: --sweep through the simtime fleet
                                  simulator (open-loop heavy-tailed
                                  arrivals at planet-scale rates)
                                  [--rates RPS,…] [--requests N]
                                  [--autoscale both|on|off] [--out FILE]
                                  (BENCH_fleet.json; byte-identical
                                  across runs)
    profile                       trace one training run per framework
                                  personality and report per-op time,
                                  achieved GFLOP/s and efficiency
                                  [--dataset …] [--scale …] [--seed N]
                                  [--threads N] [--json] [--out DIR]
                                  [--trace FILE]  (Chrome trace path,
                                  default target/dlbench-reports/
                                  TRACE_profile.json)
    stats                         dataset characterization statistics
                                  [--dataset …] [--size N] [--samples N]
    ablate                        regularizer-robustness ablation (extension)
                                  [--scale …] [--seed N]
    help                          this message

THREADING:
    --threads N (or DLBENCH_THREADS=N) sets the worker count for
    training and kernel execution. Results are bit-identical at any
    thread count; only wall-clock time changes. Default: machine
    parallelism.

VERIFICATION:
    run --verify installs the invariant guard: after every training
    epoch the loss, parameters and gradients are checked for NaN/Inf
    and shape drift; violations are recorded in the report and fail
    the run. DLBENCH_BLESS=1 (with --verify) additionally re-blesses
    the golden reports under tests/goldens/ at scale Tiny, seed 42.
    DLBENCH_BLESS=1 without --verify is an error.
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.command.is_empty() || parsed.command == "help" || parsed.flag("help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match parsed.command.as_str() {
        "list" => commands::list(),
        "info" => commands::info(),
        "run" => commands::run(&parsed),
        "run-spec" => commands::run_spec(&parsed),
        "train" => commands::train(&parsed),
        "quantize" => commands::quantize(&parsed),
        "dist-train" => commands::dist_train(&parsed),
        "attack" => commands::attack(&parsed),
        "stats" => commands::stats(&parsed),
        "ablate" => commands::ablate(&parsed),
        "serve" => commands::serve(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "fleet" => commands::fleet(&parsed),
        "profile" => commands::profile(&parsed),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
