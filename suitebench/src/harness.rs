//! The measurement discipline every workload shares: arguments,
//! repeated set-up with a warm-up, timed passes of back-to-back
//! operations, named correctness checks, peak memory, the record schema
//! and the report file.
//!
//! A run is [`PASSES`] passes of equal length, each after a fresh
//! set-up, so the set-ups are spread over the run instead of bunched at
//! its start, where one stretch of a neighbour's load could cover them
//! all. `setup_s` is their median.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Seed whose outputs are pinned by `reference/seed42.txt`.
pub const REFERENCE_SEED: u64 = 42;

/// Relative tolerance of the seed-42 reference values: loose enough for
/// a legitimate change of floating-point summation order, tight enough
/// to catch a wrong model, wrong preprocessing or a broken kernel.
const REFERENCE_TOLERANCE: f64 = 1e-2;

const REFERENCE: &str = include_str!("../reference/seed42.txt");

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run; `None` runs every workload in a child process.
    pub workload: Option<String>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { workload: None, seed: 42, seconds: 20.0, trace: false };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = Some(value),
                "--seed" => {
                    args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                }
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(args)
    }
}

/// Logical CPUs available to the process, as counted on the first call,
/// before [`pin`] narrows the process to one of them.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPUs the process was allowed to run on before its first [`pin`]
/// (`Cpus_allowed_list` in `/proc/self/status`, such as `0-1` or `2,4-5`);
/// empty if that cannot be read.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        parse_cpu_list(list.unwrap_or("").trim()).unwrap_or_default()
    })
}

/// Parses a kernel CPU list such as `0-3,8`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?);
    }
    Some(cpus)
}

/// Moves every thread of the process, and the threads it starts later,
/// onto one CPU: `Some(k)` picks the `k`-th allowed CPU, cycling through
/// them; `None` allows them all again. Uses `taskset`, waiting for it to
/// exit; where it is missing or fails, says so once on stderr and leaves
/// the process where it is.
///
/// On a host that shares its cores with other tenants, the vCPU a
/// one-thread run lands on can be slowed for seconds to minutes while
/// another is not, and the scheduler does not move a lone thread away.
/// Taking the CPUs in turn lets the fastest stretch of a run find the
/// one left free.
pub fn pin(cpu: Option<usize>) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let allowed = allowed_cpus();
    if allowed.len() < 2 {
        return;
    }
    let list = match cpu {
        Some(k) => allowed[k % allowed.len()].to_string(),
        None => allowed.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
    };
    let status = std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &list, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    if !status.as_ref().is_ok_and(|s| s.success()) && !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "suitebench: could not pin to CPU {list} with taskset ({status:?}); running unpinned"
        );
    }
}

/// Named correctness checks. Each failing check keeps its first detail
/// and a count, so a check failing on every operation stays one line.
#[derive(Debug, Default)]
pub struct Checks {
    failures: BTreeMap<String, (usize, String)>,
}

impl Checks {
    /// Records a failure of `name` unless `ok` holds.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.entry(name.to_string()).or_insert_with(|| (0, detail())).0 += 1;
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per failed check.
    pub fn failures(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(name, (count, detail))| format!("{name} failed {count}x: {detail}"))
            .collect()
    }
}

/// Times repeated set-ups. Each repetition ends with a warm-up whose
/// digest must equal the first repetition's: set-up is deterministic
/// given the seed, so a differing digest is a determinism failure.
pub struct Setup<D> {
    times_s: Vec<f64>,
    first: Option<D>,
    started: Instant,
}

impl<D: PartialEq + std::fmt::Debug> Setup<D> {
    /// A timer with no repetitions recorded.
    pub fn new() -> Self {
        Self { times_s: Vec::new(), first: None, started: Instant::now() }
    }

    /// Marks the start of one repetition.
    pub fn start(&mut self) {
        self.started = Instant::now();
    }

    /// Ends the repetition started last, checking its warm-up digest.
    pub fn finish(&mut self, digest: D, checks: &mut Checks) {
        self.times_s.push(self.started.elapsed().as_secs_f64());
        match &self.first {
            None => self.first = Some(digest),
            Some(first) => checks.check("setup.deterministic", *first == digest, || {
                format!("warm-up digest {digest:?} != first repetition's {first:?}")
            }),
        }
    }

    /// Every repetition's time, seconds.
    pub fn times_s(&self) -> &[f64] {
        &self.times_s
    }

    /// The first repetition's warm-up digest.
    pub fn digest(&self) -> &D {
        self.first.as_ref().expect("a set-up repetition finished")
    }
}

/// A run is this many passes of equal length, each after a set-up.
pub const PASSES: usize = 10;

/// One pass of back-to-back operations.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Items each operation completed.
    pub items: Vec<f64>,
}

/// Runs `op` back to back until `seconds` have elapsed (at least once).
/// `op(i)` runs operation `first + k` for the `k`-th call and returns
/// the items it completed; `after` runs between operations, outside
/// their timing.
pub fn run_pass(
    seconds: f64,
    first: usize,
    op: &mut dyn FnMut(usize) -> f64,
    after: &mut dyn FnMut(),
) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    while pass.op_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass.items.push(op(first + pass.op_ms.len()));
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        after();
    }
    pass
}

/// Closed-loop operations are summarized over stretches of consecutive
/// operations lasting at least this long, seconds.
pub const STRETCH_S: f64 = 0.25;

/// One measured phase: several passes, summarized.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of every operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// The phase's operation time, milliseconds.
    pub time_ms: f64,
    /// Items (samples, simulated requests, good replies) per second.
    pub items_per_s: f64,
}

impl Phase {
    /// Summarizes closed-loop passes by their fastest stretch.
    ///
    /// Each pass is cut, in order, into stretches of operations lasting
    /// at least [`STRETCH_S`] (a shorter remainder joins the stretch
    /// before it). The operation time is the fastest stretch's mean
    /// operation time, and the throughput that stretch's items per
    /// second. The mean within a stretch, not the median, because one
    /// workload's operations differ by design (a partial last batch
    /// every few steps) and a stretch spans several of them. The fastest
    /// stretch, because other tenants of a shared host slow the run for
    /// seconds to minutes at a time, and a short stretch is the likeliest
    /// to fall in a gap they leave.
    pub fn from_passes(passes: &[Pass]) -> Phase {
        // (milliseconds, items, operations) of every stretch.
        let mut stretches: Vec<(f64, f64, usize)> = Vec::new();
        for pass in passes {
            let first = stretches.len();
            let mut open = (0.0, 0.0, 0);
            for (ms, items) in pass.op_ms.iter().zip(&pass.items) {
                open = (open.0 + ms, open.1 + items, open.2 + 1);
                if open.0 >= STRETCH_S * 1e3 {
                    stretches.push(std::mem::take(&mut open));
                }
            }
            if open.2 > 0 && stretches.len() > first {
                let last = stretches.last_mut().expect("this pass closed a stretch");
                *last = (last.0 + open.0, last.1 + open.1, last.2 + open.2);
            } else if open.2 > 0 {
                stretches.push(open);
            }
        }
        let (ms, items, n) = stretches
            .into_iter()
            .min_by(|a, b| (a.0 / a.2 as f64).total_cmp(&(b.0 / b.2 as f64)))
            .expect("at least one operation ran");
        let op_ms = passes.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
        Phase { op_ms, time_ms: ms / n as f64, items_per_s: items / (ms / 1e3) }
    }
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return f64::NAN };
    let rank = p / 100.0 * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Deepest level of the measurement ladder a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// One layer call (traced run).
    Layer,
    /// One sub-operation: a training step of one cell, one model's
    /// batch in one dtype.
    Step,
    /// One whole operation as the workload defines it.
    E2e,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Layer => "layer",
            Level::Step => "step",
            Level::E2e => "e2e",
        }
    }
}

/// One row of the report file. `threads` and `nproc` are stamped on at
/// write time.
#[derive(Debug, Clone)]
pub struct Record {
    /// `<workload>/<what>`.
    pub id: String,
    /// Ladder level.
    pub level: Level,
    /// Median (or, for layers, mean per operation) nanoseconds.
    pub ns: f64,
    /// FLOPs the measured work performs, when known.
    pub flops: u64,
    /// Bytes the measured work moves, computed from tensor sizes, when
    /// known (see [`cost_bytes`]).
    pub bytes: u64,
}

/// Bytes one pass over `cost` moves, from tensor sizes: every parameter
/// and every activation it produces, at `bytes_per_value` each.
pub fn cost_bytes(cost: &dlbench_nn::LayerCost, bytes_per_value: u64) -> u64 {
    bytes_per_value * (cost.params + cost.activations)
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every set-up repetition's time, seconds.
    pub setup_times_s: Vec<f64>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (error replies, non-finite outputs).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Checks,
    /// Report rows.
    pub records: Vec<Record>,
    /// Values pinned by the seed-42 reference, as `(key, value)`.
    pub reference: Vec<(String, f64)>,
    /// Trace events of the first traced operations (traced runs only).
    pub trace: Vec<dlbench_trace::Event>,
}

/// Compares `actual` against the committed seed-42 reference lines of
/// `workload`; a no-op at any other seed.
pub fn check_reference(checks: &mut Checks, workload: &str, seed: u64, actual: &[(String, f64)]) {
    if seed != REFERENCE_SEED {
        return;
    }
    let expected: BTreeMap<&str, f64> = REFERENCE
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            (parts.next()? == workload).then_some(())?;
            Some((parts.next()?, parts.next()?.parse().ok()?))
        })
        .collect();
    checks.check("reference.present", !expected.is_empty(), || {
        format!("reference/seed42.txt has no `{workload}` lines")
    });
    for (key, value) in actual {
        let Some(&want) = expected.get(key.as_str()) else {
            checks.check("reference.keys", false, || format!("`{key}` missing from reference"));
            continue;
        };
        let ok = (value - want).abs() <= REFERENCE_TOLERANCE * want.abs().max(1.0);
        checks.check("reference.values", ok, || format!("{key} = {value}, reference {want}"));
    }
}

/// `<target dir>/dlbench-reports`, recovered from the executable path
/// (`<target>/release/suitebench`), so reports land beside the build
/// wherever `CARGO_TARGET_DIR` points.
pub fn reports_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("dlbench-reports"))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `BENCH_suite_<workload>[.traced].json`: the run's facts,
/// metrics, records and reference lines.
pub fn write_report(args: &Args, workload: &str, outcome: &Outcome, units: &[(&str, &str)]) {
    let Some(dir) = reports_dir() else { return };
    let (nproc, threads) = (nproc(), dlbench_tensor::par::threads());
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                outcome.metrics[name],
                json_str(unit)
            )
        })
        .collect();
    let records: Vec<String> = outcome
        .records
        .iter()
        .map(|r| {
            format!(
                "{{\"id\": {}, \"level\": \"{}\", \"ns\": {}, \"flops\": {}, \"bytes\": {}, \"threads\": {threads}, \"nproc\": {nproc}}}",
                json_str(&r.id),
                r.level.name(),
                r.ns,
                r.flops,
                r.bytes
            )
        })
        .collect();
    let reference: Vec<String> =
        outcome.reference.iter().map(|(k, v)| json_str(&format!("{workload} {k} {v}"))).collect();
    let failures: Vec<String> = outcome.checks.failures().iter().map(|f| json_str(f)).collect();
    let setup: Vec<String> = outcome.setup_times_s.iter().map(f64::to_string).collect();
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"nproc\": {nproc},\n  \"threads\": {threads},\n  \"correct\": {},\n  \"failures\": [{}],\n  \"setup_times_s\": [{}],\n  \"metrics\": {{\n    {}\n  }},\n  \"records\": [\n    {}\n  ],\n  \"reference_lines\": [\n    {}\n  ]\n}}\n",
        json_str(workload),
        args.seed,
        args.seconds,
        args.trace,
        outcome.checks.passed(),
        failures.join(", "),
        setup.join(", "),
        metrics.join(",\n    "),
        records.join(",\n    "),
        reference.join(",\n    "),
    );
    let suffix = if args.trace { ".traced" } else { "" };
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("BENCH_suite_{workload}{suffix}.json")), doc)?;
        if args.trace {
            let trace = dlbench_trace::chrome_trace(&outcome.trace);
            std::fs::write(dir.join(format!("TRACE_suite_{workload}.json")), trace)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("suitebench: could not write reports to {}: {e}", dir.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn phase_takes_fastest_stretch() {
        let pass = |op_ms: &[f64], items: f64| Pass {
            op_ms: op_ms.to_vec(),
            items: vec![items; op_ms.len()],
        };
        // Stretches of at least 250 ms: [200, 200] (mean 200), then
        // [90, 90, 90] with the short remainder [90] joined (mean 90). A
        // pass too short for one stretch forms its own (120) and never
        // joins another pass's stretch.
        let passes = [pass(&[200.0, 200.0, 90.0, 90.0, 90.0, 90.0], 3.0), pass(&[120.0], 1.0)];
        let phase = Phase::from_passes(&passes);
        assert_eq!(phase.op_ms.len(), 7);
        assert_eq!(phase.time_ms, 90.0);
        assert!((phase.items_per_s - 3.0 / 0.09).abs() < 1e-9);
        let short = [pass(&[300.0, 300.0, 10.0], 1.0)];
        assert_eq!(Phase::from_passes(&short).time_ms, 155.0);
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload fleet-sweep --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fleet-sweep"), 7, 2.5, true)
        );
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("2,4-6"), Some(vec![2, 4, 5, 6]));
        assert_eq!(parse_cpu_list(""), Some(vec![]));
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn checks_collapse_repeated_failures() {
        let mut c = Checks::default();
        c.check("a", true, || unreachable!());
        c.check("b", false, || "first".into());
        c.check("b", false, || "second".into());
        assert_eq!(c.failures(), vec!["b failed 2x: first".to_string()]);
    }
}
