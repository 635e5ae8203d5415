//! The paper harness: regenerates **every table and figure** of the
//! paper's evaluation section and prints them in order.
//!
//! ```sh
//! DLBENCH_SCALE=small cargo bench --bench figures          # default
//! DLBENCH_SCALE=tiny  cargo bench --bench figures          # quick pass
//! cargo bench --bench figures -- fig_5 table_viii          # a subset
//! ```
//!
//! Accuracy columns are measured by really training the scaled
//! configurations; time columns are simulated for the full paper-scale
//! schedules on the modelled Xeon E5-1620 / GTX 1080 Ti (see
//! `dlbench-simtime`). JSON copies of every report are written to
//! `target/dlbench-reports/`.

use dlbench_bench::{reports_dir, write_report, BenchArgs};
use dlbench_core::{BenchmarkRunner, ExperimentId};
use dlbench_frameworks::Scale;
use dlbench_trace::Stopwatch;

fn main() {
    let args = BenchArgs::from_env();
    if args.listed("figures") {
        return;
    }
    let scale = Scale::from_env();
    let mut runner = BenchmarkRunner::new(scale, 42);

    let selected: Vec<ExperimentId> = if args.positionals.is_empty() {
        ExperimentId::ALL.to_vec()
    } else {
        args.positionals
            .iter()
            .filter_map(|key| {
                let id = ExperimentId::from_key(key);
                if id.is_none() {
                    eprintln!("unknown experiment key: {key}");
                }
                id
            })
            .collect()
    };

    println!("DLBench paper harness — scale {scale:?}, seed 42");
    println!("regenerating {} paper artifacts\n", selected.len());
    let started = Stopwatch::start();
    for id in selected {
        let t0 = Stopwatch::start();
        let report = id.run(&mut runner);
        println!("{}", report.render());
        println!("  [{} regenerated in {:.1}s]\n", id.key(), t0.elapsed_s());
        write_report(&format!("{}.json", id.key()), &report.to_json());
    }
    println!(
        "done: {} training cells, {:.1}s total; JSON reports in {}",
        runner.trained_cells(),
        started.elapsed_s(),
        reports_dir().display()
    );
}
