//! # dlbench-bench
//!
//! Benchmark targets for the DLBench suite:
//!
//! * `kernels`, `layers`, `attacks` — Criterion micro-benchmarks of the
//!   numeric substrate, the layer forward/backward passes, and the
//!   adversarial attack kernels.
//! * `ablation` — ablations of the design choices DESIGN.md calls out
//!   (execution styles, conv lowering).
//! * `sweeps` — batch-size / learning-rate sensitivity sweeps (the
//!   hyperparameter-interaction discussion of the paper's §II).
//! * `figures` — the paper harness: regenerates **every table and
//!   figure** of the paper's evaluation (`cargo bench --bench figures`).
//!   Scale is controlled by `DLBENCH_SCALE` (`tiny`/`small`/`paper`).
//!
//! The library holds only what the bench targets share: the seed and
//! the reports directory.

#![forbid(unsafe_code)]

/// Shared helper: a deterministic seed used by all bench targets so
/// Criterion comparisons are stable across runs.
pub const BENCH_SEED: u64 = 0xD1_BE_4C;

/// The shared `target/dlbench-reports` directory every bench target
/// writes its `BENCH_<name>.json` into, recovered from the executable
/// path exactly like the criterion facade does — cargo runs bench
/// binaries with the *package* root as cwd, so a relative `target/`
/// would land inside `crates/bench/`.
pub fn reports_dir() -> std::path::PathBuf {
    let from_exe = std::env::current_exe().ok().and_then(|exe| {
        let deps = exe.parent()?;
        if deps.file_name()? != "deps" {
            return None;
        }
        Some(deps.parent()?.parent()?.join("dlbench-reports"))
    });
    from_exe.unwrap_or_else(|| std::path::Path::new("target").join("dlbench-reports"))
}
