//! `fleet-sweep`: the fleet simulator's capacity sweep. One operation
//! is one `fleet_sweep_doc` over four arrival rates × every routing
//! policy × autoscaling off and on (24 cells), rendered to the JSON
//! document `BENCH_fleet.json` is made of. Pure CPU in simulated time:
//! no model runs a forward pass, and the simulator's per-request
//! latency histogram is the heavy part.

use crate::harness::{check_reference, Args, Outcome, Setup, PASSES};
use crate::layers::span;
use crate::Passes;
use dlbench_fleet::{fleet_sweep_doc, RoutingPolicy, SimFleetConfig};

const RATES_RPS: [f64; 4] = [10_000.0, 100_000.0, 1_000_000.0, 4_000_000.0];
const AUTOSCALE: [bool; 2] = [false, true];
/// Simulated arrivals per cell.
const REQUESTS: usize = 10_000;

fn sweep(base: &SimFleetConfig) -> String {
    let doc = {
        let _s = span("fleet.sweep");
        fleet_sweep_doc(base, &RATES_RPS, &RoutingPolicy::ALL, &AUTOSCALE)
    };
    let _s = span("json.render");
    doc.pretty()
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::new();
    let mut passes = Passes::new(args);
    let cells = RATES_RPS.len() * RoutingPolicy::ALL.len() * AUTOSCALE.len();
    for _ in 0..PASSES {
        passes.begin();
        setup.start();
        let mut base = SimFleetConfig::new(0.0, REQUESTS);
        base.seed = args.seed;
        let text = sweep(&base);
        setup.finish(text, &mut out.checks);

        let reference_doc = setup.digest();
        let checks = &mut out.checks;
        let failed = &mut out.failed;
        passes.run(&mut |i| {
            let identical = sweep(&base) == *reference_doc;
            checks.check("fleet-sweep.identical", identical, || {
                format!("sweep {i} rendered a different document than the first")
            });
            *failed += u64::from(!identical);
            (cells * REQUESTS) as f64
        });
    }
    passes.finish().report("fleet-sweep", setup.times_s(), &mut out)?;

    let doc = dlbench_json::parse(setup.digest()).map_err(|e| format!("sweep document: {e}"))?;
    let rows = doc["rows"].as_array().ok_or("sweep document has no rows")?;
    let field = |row: &dlbench_json::JsonValue, key: &str| row[key].as_f64().unwrap_or(f64::NAN);
    for row in rows {
        let conserved = field(row, "completed") + field(row, "shed") == REQUESTS as f64;
        out.checks.check("fleet-sweep.conservation", conserved, || {
            format!("row completed + shed != {REQUESTS}: {}", row.pretty())
        });
    }
    out.checks.check("fleet-sweep.cells", rows.len() == cells, || {
        format!("{} rows, expected {cells}", rows.len())
    });
    let total = |key: &str| rows.iter().map(|r| field(r, key)).sum::<f64>();
    out.reference.push(("completed".into(), total("completed")));
    out.reference.push(("shed".into(), total("shed")));
    out.reference.push(("mean_batch".into(), total("mean_batch")));
    check_reference(&mut out.checks, "fleet-sweep", args.seed, &out.reference);
    Ok(out)
}
