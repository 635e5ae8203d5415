//! Fleet benchmark: SLO burn, shed rate and tail latency per routing
//! policy under heavy-tailed open-loop load, swept across arrival
//! rates through the simtime fleet simulator.
//!
//! ```sh
//! cargo bench --bench fleet              # full sweep
//! cargo bench --bench fleet -- --quick   # CI smoke: short sweep
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_fleet.json`: one row
//! per *(rate, routing policy, autoscale mode)*. The sweep runs in pure
//! sim-time with seeded bounded-Pareto arrivals and no wall-clock
//! fields, so the document is byte-identical across runs — check.sh
//! runs it twice and `cmp`s the output.

use dlbench_bench::{reports_dir, BENCH_SEED};
use dlbench_fleet::{fleet_sweep_doc, RoutingPolicy, SimFleetConfig};
use dlbench_trace::Stopwatch;

fn main() {
    if std::env::args().any(|a| a == "--list") {
        println!("fleet: bench");
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (rates, requests): (&[f64], usize) = if quick {
        (&[1_000.0, 50_000.0, 1_000_000.0], 600)
    } else {
        (&[1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 4_000_000.0], 4_000)
    };
    let mut base = SimFleetConfig::new(0.0, requests);
    base.seed = BENCH_SEED;

    println!(
        "DLBench fleet sweep — {} replicas, max batch {}, target p99 {}ms, seed {:#x}, \
         {requests} requests per cell",
        base.replicas, base.max_batch, base.target_p99_ms, base.seed
    );
    let started = Stopwatch::start();
    let doc = fleet_sweep_doc(&base, rates, &RoutingPolicy::ALL, &[false, true]);

    if let Some(rows) = doc["rows"].as_array() {
        println!(
            "{:<12} {:>10} {:>6} {:>10} {:>10} {:>9} {:>9} {:>10} {:>8}",
            "policy",
            "rate_rps",
            "auto",
            "shed_rate",
            "slo_burn",
            "p99_ms",
            "batch",
            "replicas",
            "scaleups"
        );
        for row in rows {
            let p99 = match row["latency_ms"]["p99"].as_f64() {
                Some(v) => format!("{v:.2}"),
                None => "-".to_string(),
            };
            println!(
                "{:<12} {:>10} {:>6} {:>10.3} {:>10.3} {:>9} {:>9.2} {:>10} {:>8}",
                row["policy"].as_str().unwrap_or("?"),
                row["rate_rps"].as_f64().unwrap_or(0.0) as u64,
                if matches!(row["autoscale"], dlbench_json::JsonValue::Bool(true)) {
                    "on"
                } else {
                    "off"
                },
                row["shed_rate"].as_f64().unwrap_or(0.0),
                row["slo_burn"].as_f64().unwrap_or(0.0),
                p99,
                row["mean_batch"].as_f64().unwrap_or(0.0),
                row["replicas_peak"].as_f64().unwrap_or(0.0) as u64,
                row["scale_ups"].as_f64().unwrap_or(0.0) as u64,
            );
        }
    }

    let out_dir = reports_dir();
    let _ = std::fs::create_dir_all(&out_dir);
    let path = out_dir.join("BENCH_fleet.json");
    match std::fs::write(&path, doc.pretty() + "\n") {
        Ok(()) => {
            println!("done in {:.1}s; rows written to {}", started.elapsed_s(), path.display())
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
