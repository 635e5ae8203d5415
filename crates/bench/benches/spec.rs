//! Spec-sweep harness: executes a declarative experiment spec through
//! the orchestrator's cell cache and reports the hit/miss split, so a
//! warm `target/dlbench-cache` shows the resume machinery paying off.
//! Serve cells run on the real HTTP tier and fleet cells on the fleet
//! simulator, exactly as `dlbench run-spec` runs them.
//!
//! ```sh
//! cargo bench --bench spec                                  # smoke spec
//! cargo bench --bench spec -- examples/specs/paper_tables.json
//! ```
//!
//! A relative spec path resolves against the workspace root. Results
//! land in `target/dlbench-reports/BENCH_spec.json`; cells persist
//! under `target/dlbench-cache/` and are skipped on re-run.

use dlbench_bench::{write_report, BenchArgs};
use dlbench_core::spec::{self, ExperimentSpec, RunOptions};
use dlbench_trace::Stopwatch;

fn main() {
    let args = BenchArgs::from_env();
    if args.listed("spec") {
        return;
    }
    // Bench binaries run with the package dir as cwd; anchor paths at
    // the workspace root so invocations from anywhere agree.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec_path =
        root.join(args.positionals.first().map_or("examples/specs/smoke.json", String::as_str));
    let path = spec_path.display();
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let plan = ExperimentSpec::parse(&text).and_then(|s| s.expand()).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    println!("spec `{}`: {} cell(s) planned", plan.name, plan.cells.len());

    let opts = RunOptions { cache_dir: root.join("target/dlbench-cache"), force: false };
    let watch = Stopwatch::start();
    let run = match spec::run_plan(&plan, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = watch.elapsed_s();

    for report in spec::aggregate_reports(&run) {
        println!("{}", report.render());
    }
    let out = write_report("BENCH_spec.json", &(spec::document(&run).pretty() + "\n"));
    println!("[spec results written to {}]", out.display());
    println!(
        "[{} cells in {elapsed:.2}s: {} executed, {} cache hits]",
        run.cells.len(),
        run.executed,
        run.cache_hits
    );
}
