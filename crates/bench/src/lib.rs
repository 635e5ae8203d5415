//! # dlbench-bench
//!
//! Benchmark targets for the DLBench suite (`cargo bench --bench <name>`):
//!
//! * `kernels` — GEMM, int8, im2col, conv and text-layer throughput,
//!   and the CI perf gate against `baselines/kernels.json`;
//! * `layers`, `attacks`, `parallel`, `trace` — layer forward/backward
//!   passes, the adversarial attack kernels, serial-vs-parallel kernels
//!   and tracing overhead;
//! * `ablation` — ablations of the design choices DESIGN.md calls out
//!   (execution styles, conv lowering);
//! * `quant`, `text` — fp32→int8 transfer sweeps that each write one
//!   JSON document;
//! * `sweeps` — batch-size / learning-rate sensitivity sweeps (the
//!   hyperparameter-interaction discussion of the paper's §II).
//!
//! The paper's tables and figures and the dist, serve, fleet and spec
//! sweeps are not bench targets: each is written by one `dlbench`
//! command only (`run --json`, `dist-train --sweep`, `loadgen --sweep`,
//! `fleet --sweep`, `run-spec`).
//!
//! Every target reads its flags through [`BenchArgs`] and writes into
//! `target/dlbench-reports` through [`write_report`]. The timed targets
//! share one timing loop, [`Harness`], and the kernel perf gate's helpers
//! ([`load_baseline`], [`gate_failures`], [`merge_best`]); `quant` and
//! `text` share the fp32→int8 transfer helpers ([`both_correct`],
//! [`attack_row`]).

#![forbid(unsafe_code)]

use dlbench_data::Dataset;
use dlbench_json::JsonValue;
use dlbench_nn::Network;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed every bench target builds its inputs from, so timings
/// compare across runs.
pub const BENCH_SEED: u64 = 0xD1_BE_4C;

/// Timed batches per benchmark; the fastest is recorded, which filters
/// the scheduler noise a mean would fold into the regression gate.
const SAMPLES: usize = 3;

/// Target wall-clock per timed batch.
const SAMPLE_BUDGET_NS: u128 = 150_000_000;

/// Allowed slowdown versus the committed baseline before the gate fails.
pub const REGRESSION_TOLERANCE: f64 = 1.15;

/// The command-line contract every bench target honours: `--list`
/// prints what would run and runs nothing, `--quick` (or `--test`)
/// asks for a smoke-sized run, and positionals select what runs — a
/// substring filter on benchmark ids for [`Harness`] targets.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--list` was given.
    pub list: bool,
    /// `--quick` or `--test` was given.
    pub quick: bool,
    /// Arguments not starting with `-`.
    pub positionals: Vec<String>,
}

impl BenchArgs {
    /// Parses the arguments after the executable name. Unknown flags
    /// (such as the `--bench` cargo passes) are ignored.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = BenchArgs::default();
        for arg in args {
            match arg.as_str() {
                "--list" => parsed.list = true,
                "--quick" | "--test" => parsed.quick = true,
                _ if !arg.starts_with('-') => parsed.positionals.push(arg),
                _ => {}
            }
        }
        parsed
    }

    /// The process's own arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Under `--list`, prints `<name>: bench` (the listing format cargo
    /// expects) and returns `true`: the caller must then run nothing.
    pub fn listed(&self, name: &str) -> bool {
        if self.list {
            println!("{name}: bench");
        }
        self.list
    }

    /// Whether a benchmark id passes the substring filter (the first
    /// positional).
    fn selects(&self, id: &str) -> bool {
        self.positionals.first().is_none_or(|f| id.contains(f.as_str()))
    }
}

/// The shared `target/dlbench-reports` directory. Cargo runs bench
/// binaries with the *package* root as cwd, so a relative `target/`
/// would land inside `crates/bench/`; the real target dir is recovered
/// from the executable's own path (`<target>/<profile>/deps/<bench>-<hash>`).
fn reports_dir() -> PathBuf {
    let from_exe = std::env::current_exe().ok().and_then(|exe| {
        let deps = exe.parent()?;
        if deps.file_name()? != "deps" {
            return None;
        }
        Some(deps.parent()?.parent()?.join("dlbench-reports"))
    });
    from_exe.unwrap_or_else(|| Path::new("target").join("dlbench-reports"))
}

/// Writes `contents` to `file` under `reports_dir()` and returns the
/// path. A bench target has no caller to hand an error to, and scripts
/// check the file it leaves behind, so a failed write ends the process
/// with exit code 1 instead of passing silently.
pub fn write_report(file: &str, contents: &str) -> PathBuf {
    let dir = reports_dir();
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

/// One timed benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Benchmark id (`group/function`).
    pub id: String,
    /// Nanoseconds per iteration in the fastest timed batch.
    pub mean_ns: f64,
    /// Iterations per timed batch.
    pub iters: u64,
    /// Achieved GFLOP/s (0 when the routine's FLOPs are not counted).
    pub gflops: f64,
}

/// The timing loop every timed bench target runs on: a calibrating
/// warm-up call sizes the batch, then the fastest of 3 timed batches is
/// recorded (one single-iteration batch under `--quick`).
#[derive(Debug)]
pub struct Harness {
    /// The flags this harness honours.
    pub args: BenchArgs,
    /// Timings so far, in run order.
    pub records: Vec<Record>,
}

impl Harness {
    /// A harness honouring `args`.
    pub fn new(args: BenchArgs) -> Self {
        Self { args, records: Vec::new() }
    }

    /// A harness honouring the process's own arguments.
    pub fn from_args() -> Self {
        Self::new(BenchArgs::from_env())
    }

    /// Times `routine`, recording best-of-3 ns/iter and the GFLOP/s
    /// implied by `flops` per call (0 when not counted, e.g. for data
    /// movement; reported as 0 GFLOP/s). Every result passes through
    /// [`black_box`], so the optimizer cannot delete the work.
    pub fn bench<O>(&mut self, id: impl Into<String>, flops: u64, mut routine: impl FnMut() -> O) {
        let id = id.into();
        if self.args.listed(&id) || !self.args.selects(&id) {
            return;
        }
        let quick = self.args.quick;
        // Warm-up doubles as calibration: one timed call sizes the batch.
        let t0 = Instant::now();
        black_box(routine());
        let per_iter = t0.elapsed().as_nanos().max(1);
        let iters = if quick { 1 } else { (SAMPLE_BUDGET_NS / per_iter).clamp(1, 10_000) as u64 };
        let mut best_ns = f64::INFINITY;
        for _ in 0..if quick { 1 } else { SAMPLES } {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            best_ns = best_ns.min(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        let gflops = flops as f64 / best_ns;
        println!("{id:<40} {best_ns:>14.1} ns/iter  {gflops:>8.3} GFLOP/s  ({iters} iters)");
        self.records.push(Record { id, mean_ns: best_ns, iters, gflops });
    }

    /// Writes the records to `BENCH_<name>.json` under `reports_dir()`
    /// and returns the path; writes nothing when nothing was timed
    /// (`--list`, or a filter that matched no id).
    pub fn write(&self, name: &str) -> Option<PathBuf> {
        if self.records.is_empty() {
            return None;
        }
        let path = write_report(&format!("BENCH_{name}.json"), &render_json(&self.records));
        println!("wrote {}", path.display());
        Some(path)
    }
}

/// The `BENCH_<name>.json` document for `records`.
fn render_json(records: &[Record]) -> String {
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}, \"gflops\": {:.4}}}{}\n",
            r.id,
            r.mean_ns,
            r.iters,
            r.gflops,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Loads a baseline (a `BENCH_*.json` document) as `id -> mean_ns`.
pub fn load_baseline(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {shown}: {e}"))?;
    let parsed =
        dlbench_json::parse(&text).map_err(|e| format!("cannot parse baseline {shown}: {e}"))?;
    let mut baseline = BTreeMap::new();
    if let Some(list) = parsed.get("benchmarks").and_then(|b| b.as_array()) {
        for entry in list {
            if let (Some(id), Some(ns)) = (
                entry.get("id").and_then(|v| v.as_str()),
                entry.get("mean_ns").and_then(|v| v.as_f64()),
            ) {
                baseline.insert(id.to_string(), ns);
            }
        }
    }
    Ok(baseline)
}

/// Benchmarks running more than [`REGRESSION_TOLERANCE`]× slower than
/// the baseline, one line each. Ids present on only one side
/// (renamed/added) are ignored, so the gate never blocks a harness
/// change itself — refresh the baseline in the same change instead.
pub fn gate_failures(records: &[Record], baseline: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records {
        if let Some(&base_ns) = baseline.get(&r.id) {
            let ratio = r.mean_ns / base_ns;
            if ratio > REGRESSION_TOLERANCE {
                failures.push(format!(
                    "  {}: {:.1} ns/iter vs baseline {:.1} ({:+.1}%)",
                    r.id,
                    r.mean_ns,
                    base_ns,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    failures
}

/// Keeps, per benchmark, the faster of the existing and retry timing.
pub fn merge_best(records: &mut [Record], retry: Vec<Record>) {
    for new in retry {
        if let Some(old) = records.iter_mut().find(|r| r.id == new.id) {
            if new.mean_ns < old.mean_ns {
                *old = new;
            }
        }
    }
}

/// Indices of `test` samples both networks classify correctly on the
/// raw (attack-domain) inputs — the eligible pool for transfer crafting
/// (fp32-crafted examples replayed against the int8 model).
pub fn both_correct(fp32: &mut Network, int8: &mut Network, test: &Dataset) -> Vec<usize> {
    let idx: Vec<usize> = (0..test.len()).collect();
    let (inputs, labels) = test.gather(&idx);
    let fp32_preds = fp32.forward(&inputs, false).argmax_rows();
    let int8_preds = int8.forward(&inputs, false).argmax_rows();
    idx.into_iter().filter(|&i| fp32_preds[i] == labels[i] && int8_preds[i] == labels[i]).collect()
}

/// fp32-crafted / int8-transferred success rates for one attack over
/// `samples` crafted examples, as a JSON object.
pub fn attack_row(fp32_hits: usize, int8_hits: usize, samples: usize) -> JsonValue {
    let denom = samples.max(1) as f32;
    let fp32_rate = fp32_hits as f32 / denom;
    let int8_rate = int8_hits as f32 / denom;
    JsonValue::Object(vec![
        ("samples".into(), samples.into()),
        ("fp32_success".into(), fp32_rate.into()),
        ("int8_success".into(), int8_rate.into()),
        ("delta".into(), (int8_rate - fp32_rate).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(args: &[&str]) -> Harness {
        Harness::new(BenchArgs::parse(args.iter().map(|a| a.to_string())))
    }

    fn record(id: &str, mean_ns: f64) -> Record {
        Record { id: id.to_string(), mean_ns, iters: 1, gflops: 0.0 }
    }

    #[test]
    fn filter_skips_unmatched() {
        let mut h = harness(&["--quick", "match-me", "--bench"]);
        let mut calls = 0;
        h.bench("other/id", 0, || calls += 1);
        assert_eq!(calls, 0);
        h.bench("group/match-me/1", 0, || calls += 1);
        assert!(calls > 0);
        let ids: Vec<&str> = h.records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["group/match-me/1"]);
    }

    #[test]
    fn list_runs_nothing() {
        let mut h = harness(&["--list"]);
        let mut calls = 0;
        h.bench("a/b", 0, || calls += 1);
        assert_eq!(calls, 0);
        assert!(h.records.is_empty());
        assert!(h.write("never_written").is_none());
    }

    #[test]
    fn quick_mode_times_exactly_one_iteration() {
        for flag in ["--quick", "--test"] {
            let mut h = harness(&[flag]);
            let mut calls = 0;
            h.bench("counting", 2_000, || calls += 1);
            assert_eq!(calls, 2, "one warm-up call plus one timed iteration ({flag})");
            let r = &h.records[0];
            assert_eq!(r.iters, 1);
            assert_eq!(r.gflops, 2_000.0 / r.mean_ns);
        }
    }

    #[test]
    fn rendered_json_loads_back_through_the_baseline_loader() {
        let records = vec![record("gemm/128x128x128", 171_993.5), record("im2col/x", 2.0)];
        let path = std::env::temp_dir()
            .join(format!("dlbench-bench-roundtrip-{}.json", std::process::id()));
        std::fs::write(&path, render_json(&records)).unwrap();
        let loaded = load_baseline(&path);
        let _ = std::fs::remove_file(&path);
        let expected: BTreeMap<String, f64> =
            records.iter().map(|r| (r.id.clone(), r.mean_ns)).collect();
        assert_eq!(loaded.unwrap(), expected);
        assert!(load_baseline(&path).is_err(), "a missing baseline is an error, not a pass");
    }

    #[test]
    fn gate_fails_a_20_percent_slowdown_and_passes_10_percent() {
        let baseline: BTreeMap<String, f64> =
            [("slow".to_string(), 1000.0), ("fine".to_string(), 1000.0)].into();
        let failures = gate_failures(&[record("slow", 1200.0), record("fine", 1100.0)], &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("slow") && failures[0].contains("+20.0%"), "{failures:?}");
    }

    #[test]
    fn gate_ignores_ids_on_one_side_only() {
        let baseline: BTreeMap<String, f64> = [("retired".to_string(), 1.0)].into();
        assert!(gate_failures(&[record("added", 1e9)], &baseline).is_empty());
    }

    #[test]
    fn merge_best_keeps_the_faster_timing() {
        let mut records = vec![record("a", 100.0), record("b", 100.0)];
        merge_best(&mut records, vec![record("a", 90.0), record("b", 110.0), record("c", 1.0)]);
        assert_eq!(records, [record("a", 90.0), record("b", 100.0)]);
    }
}
