//! `suitebench` — the DLBench repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path suitebench/Cargo.toml -- \
//!     --workload paper-tiny --seed 42 --seconds 10 --trace 0
//! ```
//!
//! One run measures its workload for `--seconds` in [`PASSES`] passes,
//! each after a fresh set-up, checks the program's outputs, and prints
//! as its last line one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`.
//! Without `--workload` it runs every workload, each in a child
//! process of its own, so set-up time and peak memory belong to one
//! workload. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod fleet_sweep;
mod harness;
mod infer_paper;
mod layers;
mod openloop;
mod paper_tiny;
mod serve_mix;

use harness::{json_str, percentile, Args, Level, Outcome, Pass, Phase, Record, PASSES};
use layers::Tally;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper-tiny", "infer-paper", "serve-mix", "fleet-sweep"];

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] =
    [("op_ms", "ms"), ("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. A
/// crate or layer kind a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("op_p90_ms", "ms"),
    ("serial_op_ms", "ms"),
    ("nproc_op_ms", "ms"),
    ("traced_op_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("bench_pct", "%"),
    ("data_pct", "%"),
    ("nn_pct", "%"),
    ("optim_pct", "%"),
    ("adversarial_pct", "%"),
    ("quant_pct", "%"),
    ("serve_pct", "%"),
    ("json_pct", "%"),
    ("fleet_pct", "%"),
    ("nn.conv2d.fwd_pct", "%"),
    ("nn.conv2d.bwd_pct", "%"),
    ("nn.linear.fwd_pct", "%"),
    ("nn.linear.bwd_pct", "%"),
    ("nn.text_pct", "%"),
    ("nn.other_pct", "%"),
    ("nn.conv2d.fwd_gflops", "GFLOP/s"),
    ("nn.linear.fwd_gflops", "GFLOP/s"),
    ("quant.qconv2d_pct", "%"),
    ("quant.qlinear_pct", "%"),
    ("quant.qtext_pct", "%"),
    ("quant.fallback_pct", "%"),
    ("tensor.arena_hit_pct", "%"),
    ("serve.queue_wait_pct", "%"),
    ("serve.forward_pct", "%"),
    ("serve.batch_mean", "count"),
    ("loadgen.lag_p99_pct", "%"),
];

/// Whether `workload`'s end-to-end metrics are timed at one kernel
/// thread, pinned to one CPU per repetition, instead of at `nproc`, the
/// count users run with.
///
/// Every closed-loop workload's are. On a host whose vCPUs other tenants
/// slow by turns, a two-thread operation waits for the slower vCPU: over
/// ten seeds on the shared two-vCPU host the baselines come from,
/// `infer-paper` at two threads spread 0.12–0.15 between its quartiles,
/// and 0.26 in another set, past the widest bound allowed (0.25). A lone
/// thread that takes the CPUs in turn finds the free one: 0.05–0.11.
/// Kernels are bitwise identical at any thread count. Every traced run
/// times both counts (`serial_op_ms`, `nproc_op_ms`), so the threaded
/// path is still measured. `fleet-sweep` calls no kernels; for it this
/// only pins. `serve-mix` is open loop, its server and clients on every
/// CPU.
fn serial_end_to_end(workload: &str) -> bool {
    matches!(workload, "paper-tiny" | "infer-paper" | "fleet-sweep")
}

/// What one pass of a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Untraced at one kernel thread.
    Serial,
    /// Untraced at `nproc` kernel threads.
    Nproc,
    /// Traced at the end-to-end thread count (`--trace 1` only).
    Traced,
}

impl PassKind {
    /// The untraced kind the end-to-end metrics come from, and the
    /// baseline `trace_overhead_pct` is taken against.
    pub fn end_to_end(args: &Args) -> PassKind {
        if args.workload.as_deref().is_some_and(serial_end_to_end) {
            PassKind::Serial
        } else {
            PassKind::Nproc
        }
    }

    /// The kind of pass `pass`. With `--trace 1` the second half of the
    /// passes is traced and the first half alternates between one and
    /// `nproc` kernel threads.
    pub fn of(args: &Args, pass: usize) -> PassKind {
        if !args.trace {
            PassKind::end_to_end(args)
        } else if pass >= PASSES / 2 {
            PassKind::Traced
        } else if pass.is_multiple_of(2) {
            PassKind::Serial
        } else {
            PassKind::Nproc
        }
    }

    /// Sets the kernel thread count this kind of pass runs with.
    pub fn set_threads(self, args: &Args) {
        let kind = if self == PassKind::Traced { PassKind::end_to_end(args) } else { self };
        let threads = if kind == PassKind::Serial { 1 } else { harness::nproc() };
        dlbench_tensor::par::set_threads(threads);
    }
}

/// The timed passes of a closed-loop workload.
pub struct Passes<'a> {
    args: &'a Args,
    /// Passes by kind, in [`PassKind`] order.
    runs: [Vec<Pass>; 3],
    tally: Tally,
    /// Repetitions pinned so far; the next takes the next CPU.
    pinned: usize,
}

impl<'a> Passes<'a> {
    /// No passes run yet.
    pub fn new(args: &'a Args) -> Self {
        Self { args, runs: Default::default(), tally: Tally::default(), pinned: 0 }
    }

    /// The kind of the next pass.
    fn next(&self) -> PassKind {
        PassKind::of(self.args, self.runs.iter().map(Vec::len).sum())
    }

    /// Readies the next repetition, set-up and pass: sets its kernel
    /// thread count and, at one thread, pins the process to the next CPU
    /// in turn (see [`harness::pin`]); at `nproc` threads it allows every
    /// CPU.
    pub fn begin(&mut self) {
        self.next().set_threads(self.args);
        if dlbench_tensor::par::threads() == 1 {
            harness::pin(Some(self.pinned));
            self.pinned += 1;
        } else {
            harness::pin(None);
        }
    }

    /// Runs the next pass, `--seconds / PASSES` long, after [`begin`]:
    /// `op(i)` runs operation `i` (numbered across passes) and returns
    /// the items it completed.
    ///
    /// [`begin`]: Passes::begin
    pub fn run(&mut self, op: &mut dyn FnMut(usize) -> f64) {
        let pass_s = self.args.seconds / PASSES as f64;
        let first = self.runs.iter().flatten().map(|p| p.op_ms.len()).sum();
        let kind = self.next();
        let pass = match kind {
            PassKind::Traced => layers::run_traced_pass(pass_s, first, op, &mut self.tally),
            _ => harness::run_pass(pass_s, first, op, &mut || {}),
        };
        self.runs[kind as usize].push(pass);
    }

    /// The passes, summarized.
    pub fn finish(self) -> Measured {
        let [serial, nproc, traced] = self.runs;
        Measured {
            untraced: [serial, nproc]
                .map(|passes| (!passes.is_empty()).then(|| Phase::from_passes(&passes))),
            end_to_end: PassKind::end_to_end(self.args),
            traced: self.args.trace.then(|| (Phase::from_passes(&traced), self.tally)),
        }
    }
}

/// The measured phases of one run.
pub struct Measured {
    /// Untraced operations at one and at `nproc` kernel threads, indexed
    /// by [`PassKind`]; `None` where no pass ran at that count.
    pub untraced: [Option<Phase>; 2],
    /// The untraced kind the end-to-end metrics come from.
    pub end_to_end: PassKind,
    /// Traced operations and their attribution (`--trace 1`).
    pub traced: Option<(Phase, Tally)>,
}

impl Measured {
    /// Fills the outcome's metrics, counts and records; `setup_times_s`
    /// are the set-up repetitions' times.
    pub fn report(
        self,
        workload: &str,
        setup_times_s: &[f64],
        out: &mut Outcome,
    ) -> Result<(), String> {
        let u = self.untraced[self.end_to_end as usize]
            .as_ref()
            .ok_or("no untraced pass ran at the end-to-end thread count")?;
        out.metrics.insert("op_ms", u.time_ms);
        out.metrics.insert("op_p90_ms", percentile(&u.op_ms, 90.0));
        out.metrics.insert("items_per_s", u.items_per_s);
        out.metrics.insert("setup_s", percentile(setup_times_s, 50.0));
        out.setup_times_s = setup_times_s.to_vec();
        out.metrics.insert("peak_rss_mb", harness::peak_rss_mb()?);
        out.records.push(Record {
            id: format!("{workload}/op"),
            level: Level::E2e,
            ns: u.time_ms * 1e6,
            flops: 0,
            bytes: 0,
        });
        for (name, phase) in ["serial_op_ms", "nproc_op_ms"].iter().zip(&self.untraced) {
            let Some(phase) = phase else { continue };
            out.attempted += phase.op_ms.len() as u64;
            if self.traced.is_some() {
                out.metrics.insert(name, phase.time_ms);
            }
        }
        if let Some((phase, tally)) = self.traced {
            out.attempted += phase.op_ms.len() as u64;
            out.metrics.insert("traced_op_ms", phase.time_ms);
            out.metrics.insert("trace_overhead_pct", 100.0 * (phase.time_ms / u.time_ms - 1.0));
            out.metrics.extend(tally.metrics());
            out.records.extend(tally.records(workload));
            out.trace = tally.into_events();
        }
        Ok(())
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    match name {
        "paper-tiny" => paper_tiny::run(args),
        "infer-paper" => infer_paper::run(args),
        "serve-mix" => serve_mix::run(args),
        "fleet-sweep" => fleet_sweep::run(args),
        _ => Err(format!("unknown workload {name:?} (expected one of {})", WORKLOADS.join(", "))),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome, units: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in units {
        let value = outcome.metrics[name];
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.passed(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    // Pinned, so a `DLBENCH_THREADS` in the environment cannot change
    // what is measured.
    PassKind::end_to_end(args).set_threads(args);
    eprintln!(
        "suitebench: workload {name}, seed {}, {} s, trace {}, nproc {}, threads {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        harness::nproc(),
        dlbench_tensor::par::threads()
    );
    let mut outcome = run_workload(name, args)?;
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(metric, _) in &PER_LAYER {
        outcome.metrics.entry(metric).or_insert(0.0);
    }
    eprintln!("suitebench: set-up times (s): {:?}", outcome.setup_times_s);
    for failure in outcome.checks.failures() {
        eprintln!("suitebench: CHECK FAILED {name}: {failure}");
    }
    harness::write_report(args, name, &outcome, units);
    println!("{}", result_line(&outcome, units)?);
    Ok(())
}

/// Runs every workload in a child process of its own and reports each
/// result line; fails if any child fails or any check does.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut all_correct = true;
    for name in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !output.status.success() {
            return Err(format!("{name} exited with {}", output.status));
        }
        all_correct &= last.starts_with("{\"correct\": true");
        println!("{name}: {last}");
    }
    if all_correct {
        Ok(())
    } else {
        Err("a workload failed its correctness checks".to_string())
    }
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("suitebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above and `BENCHMARK.json` must name the same
    /// metrics, units and workloads, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = dlbench_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let table = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric array")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(table("end_to_end"), own(&END_TO_END));
        assert_eq!(table("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// The package's release profile must stay the root workspace's, so
    /// the benchmark measures the code as the suite builds it.
    #[test]
    fn release_profile_mirrors_root() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty(), "suitebench/Cargo.toml has no [profile.release]");
        assert_eq!(own, profile(include_str!("../../Cargo.toml")));
    }
}
