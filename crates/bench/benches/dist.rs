//! Distributed-training scaling benchmark: simulated train time,
//! compute/comm breakdown and speedup over world size, per framework
//! personality and collective strategy.
//!
//! ```sh
//! cargo bench --bench dist              # full sweep (1,2,4,8 workers)
//! cargo bench --bench dist -- --quick   # CI smoke: 1,2 workers, capped steps
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_dist.json`: one row
//! per *(framework, strategy, world size)* with the simulated
//! compute/comm/wait split on the CPU and GPU reference devices,
//! bytes on the wire per step, and speedup versus the smallest world
//! in the same group. The arithmetic is bit-identical at every world
//! size (see the determinism gate), so the curves isolate the cost
//! model — exactly the separation the paper's methodology asks for.

use dlbench_bench::{reports_dir, BENCH_SEED};
use dlbench_dist::{scaling_sweep, Strategy};
use dlbench_frameworks::Scale;
use dlbench_trace::Stopwatch;

fn main() {
    if std::env::args().any(|a| a == "--list") {
        println!("dist: bench");
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (workers, max_steps): (&[usize], Option<usize>) =
        if quick { (&[1, 2], Some(30)) } else { (&[1, 2, 4, 8], None) };

    println!(
        "DLBench dist scaling sweep — scale Tiny, seed {BENCH_SEED:#x}, workers {workers:?}, \
         strategies [ps, ring]{}",
        if quick { ", quick (30 steps per run)" } else { "" }
    );
    let started = Stopwatch::start();
    let doc = scaling_sweep(Scale::Tiny, BENCH_SEED, workers, &Strategy::ALL, max_steps);

    if let Some(rows) = doc["rows"].as_array() {
        println!(
            "{:<12} {:>8} {:>7} {:>12} {:>10} {:>10} {:>10} {:>12} {:>8}",
            "framework",
            "strategy",
            "workers",
            "cpu_train_s",
            "compute_s",
            "comm_s",
            "wait_s",
            "bytes/step",
            "speedup"
        );
        for row in rows {
            if let Some(err) = row.get("error").and_then(|e| e.as_str()) {
                println!(
                    "{:<12} {:>8} {:>7}   error: {err}",
                    row["framework"].as_str().unwrap_or("?"),
                    row["strategy"].as_str().unwrap_or("?"),
                    row["workers"].as_f64().unwrap_or(-1.0) as usize,
                );
                continue;
            }
            let cpu = &row["cpu_sim"];
            println!(
                "{:<12} {:>8} {:>7} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>12} {:>7.2}x",
                row["framework"].as_str().unwrap_or("?"),
                row["strategy"].as_str().unwrap_or("?"),
                row["workers"].as_f64().unwrap_or(-1.0) as usize,
                cpu["train_s"].as_f64().unwrap_or(0.0),
                cpu["compute_s"].as_f64().unwrap_or(0.0),
                cpu["comm_s"].as_f64().unwrap_or(0.0),
                cpu["wait_s"].as_f64().unwrap_or(0.0),
                row["bytes_per_step"].as_f64().unwrap_or(0.0) as u64,
                row["cpu_speedup_vs_baseline"].as_f64().unwrap_or(0.0),
            );
        }
    }

    let out_dir = reports_dir();
    let _ = std::fs::create_dir_all(&out_dir);
    let path = out_dir.join("BENCH_dist.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => {
            println!("done in {:.1}s; rows written to {}", started.elapsed_s(), path.display())
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
