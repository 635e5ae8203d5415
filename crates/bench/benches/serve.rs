//! Serving benchmark: throughput and tail latency versus the
//! micro-batcher's flush deadline, per framework personality, under
//! open-loop load.
//!
//! ```sh
//! cargo bench --bench serve              # full sweep
//! cargo bench --bench serve -- --quick   # CI smoke: short sweep
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_serve.json`: one row
//! per *(framework, batch deadline)* with client-observed p50/p95/p99,
//! achieved throughput and shed counts. A longer deadline buys larger
//! batches (higher throughput per forward) at the price of queueing
//! latency — the classic serving trade-off this file makes measurable.

use dlbench_bench::{write_report, BenchArgs, BENCH_SEED};
use dlbench_frameworks::Scale;
use dlbench_serve::loadgen;
use dlbench_trace::Stopwatch;

fn main() {
    let args = BenchArgs::from_env();
    if args.listed("serve") {
        return;
    }
    let (deadlines_ms, requests, rate_rps): (&[u64], usize, f64) =
        if args.quick { (&[0, 2], 24, 200.0) } else { (&[0, 1, 2, 5, 10], 96, 300.0) };
    let max_batch = 8;

    println!(
        "DLBench serve sweep — scale Tiny, seed {BENCH_SEED:#x}, open-loop {rate_rps} req/s, \
         {requests} requests per cell, max batch {max_batch}"
    );
    let started = Stopwatch::start();
    let doc = loadgen::sweep_personalities(
        Scale::Tiny,
        BENCH_SEED,
        deadlines_ms,
        requests,
        rate_rps,
        max_batch,
    );

    if let Some(rows) = doc["rows"].as_array() {
        println!(
            "{:<12} {:>11} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9}",
            "framework", "deadline_ms", "ok", "shed", "rps", "p50_ms", "p95_ms", "p99_ms"
        );
        for row in rows {
            let fmt_ms = |k: &str| match row["latency_ms"][k].as_f64() {
                Some(v) => format!("{v:.2}"),
                None => "-".to_string(),
            };
            println!(
                "{:<12} {:>11} {:>6} {:>6} {:>10.1} {:>9} {:>9} {:>9}",
                row["framework"].as_str().unwrap_or("?"),
                row["batch_deadline_ms"].as_f64().unwrap_or(-1.0) as u64,
                row["ok"].as_f64().unwrap_or(0.0) as u64,
                row["shed"].as_f64().unwrap_or(0.0) as u64,
                row["achieved_rps"].as_f64().unwrap_or(0.0),
                fmt_ms("p50"),
                fmt_ms("p95"),
                fmt_ms("p99"),
            );
        }
    }

    let path = write_report("BENCH_serve.json", &doc.pretty());
    println!("done in {:.1}s; rows written to {}", started.elapsed_s(), path.display());
}
