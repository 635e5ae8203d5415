//! The CLI sweeps: `dlbench fleet --sweep` and `dlbench loadgen`
//! refuse arrival rates, request counts, batch sizes and p99 targets the
//! simulator or the load generator cannot run (or no request can meet),
//! and `serve` and the live `fleet` a zero batch size or queue, with a
//! diagnostic and exit code 1, never a panic or a hang; and
//! `loadgen --sweep` and `run --json` write the documents they own.

use dlbench_json::JsonValue;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `dlbench args…` and returns its exit code and stderr, killing it
/// and failing if it outlives `limit`: a refused flag must fail fast, and
/// a hang must fail the test instead of stalling the suite.
fn run_within(args: &[&str], limit: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dlbench"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dlbench");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll dlbench") {
            break status;
        }
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("read stderr");
    (status.code(), stderr)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dlbench-sweep-cli-{}-{name}", std::process::id()))
}

fn read_json(path: &std::path::Path) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    dlbench_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn bad_sweep_rates_and_request_counts_exit_1_without_a_panic() {
    let out = temp_path("refused.json");
    let fleet: &[&str] = &["fleet", "--sweep"];
    let sweep: &[&str] = &["loadgen", "--sweep"];
    // Port 9 (discard) is never dialled: the flags are refused first.
    let open: &[&str] = &["loadgen", "--url", "127.0.0.1:9", "--mode", "open", "--requests", "2"];
    // A zero batch size or queue is refused before a model is built or
    // a port bound (the batcher would silently run it as 1).
    let serve: &[&str] = &["serve", "--port", "0"];
    let live_fleet: &[&str] = &["fleet"];
    let cases: [(&[&str], &[&str], &str); 22] = [
        (fleet, &["--rates", "0"], "rate `0` must be positive"),
        (fleet, &["--rates", "1000,-5"], "rate `-5` must be positive"),
        (fleet, &["--rates", "nan"], "rate `nan` must be positive"),
        (fleet, &["--rates", "inf"], "rate `inf` must be positive"),
        (fleet, &["--requests", "0"], "--requests must be positive"),
        (fleet, &["--target-p99-ms", "-5"], "--target-p99-ms `-5` must be positive"),
        (fleet, &["--target-p99-ms", "0"], "--target-p99-ms `0` must be positive"),
        (fleet, &["--target-p99-ms", "nan"], "--target-p99-ms `nan` must be positive"),
        (fleet, &["--target-p99-ms", "inf"], "--target-p99-ms `inf` must be positive"),
        (sweep, &["--rate", "0"], "--rate `0` must be positive"),
        (sweep, &["--rate", "-5"], "--rate `-5` must be positive"),
        (sweep, &["--rate", "nan"], "--rate `nan` must be positive"),
        (sweep, &["--rate", "inf"], "--rate `inf` must be positive"),
        (sweep, &["--requests", "0"], "--requests must be positive"),
        (sweep, &["--max-batch", "0"], "--max-batch must be positive"),
        (open, &["--rate", "0"], "--rate `0` must be positive"),
        (open, &["--rate", "-5"], "--rate `-5` must be positive"),
        (open, &["--rate", "nan"], "--rate `nan` must be positive"),
        (open, &["--rate", "inf"], "--rate `inf` must be positive"),
        (serve, &["--max-batch", "0"], "--max-batch must be positive"),
        (serve, &["--queue", "0"], "--queue must be positive"),
        (live_fleet, &["--max-batch", "0"], "--max-batch must be positive"),
    ];
    for (command, flags, message) in cases {
        let args = [command, &["--out", out.to_str().unwrap()], flags].concat();
        let (code, stderr) = run_within(&args, Duration::from_secs(20));
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: expected `{message}` in {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote a document");
    }
}

#[test]
fn loadgen_sweep_writes_one_row_per_personality() {
    let out = temp_path("BENCH_serve.json");
    let out_arg = out.to_str().unwrap();
    let args = ["loadgen", "--sweep", "--deadlines-ms", "0", "--requests", "4", "--out", out_arg];
    let (code, stderr) = run_within(&args, Duration::from_secs(120));
    assert_eq!(code, Some(0), "{stderr}");
    let doc = read_json(&out);
    let _ = std::fs::remove_file(&out);
    let rows = doc["rows"].as_array().expect("rows array");
    let frameworks: Vec<&str> = rows.iter().map(|r| r["framework"].as_str().unwrap()).collect();
    assert_eq!(frameworks, ["TensorFlow", "Caffe", "Torch"]);
    for row in rows {
        assert_eq!(row["ok"], 4.0, "{row:?}");
        assert_eq!(row["errors"], 0.0, "{row:?}");
        assert_eq!(row["closed_concurrency"], 16.0, "{row:?}");
    }
}

#[test]
fn run_json_appends_threads_and_verify_to_the_pinned_report() {
    let dir = temp_path("reports");
    let (code, stderr) = run_within(
        &["run", "table_ii", "--json", "--out", dir.to_str().unwrap()],
        Duration::from_secs(120),
    );
    assert_eq!(code, Some(0), "{stderr}");
    let doc = read_json(&dir.join("table_ii.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let golden = read_json(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/table_ii.json"),
    );

    let facts = doc["facts"].as_array().expect("facts array");
    let (pinned, appended) = facts.split_at(facts.len().saturating_sub(2));
    let keys: Vec<&str> = appended.iter().filter_map(|f| f.as_array()?[0].as_str()).collect();
    assert_eq!(keys, ["threads", "verify"]);
    assert_eq!(pinned, golden["facts"].as_array().unwrap());
    for key in ["id", "title", "rows", "series", "notes"] {
        assert_eq!(doc[key], golden[key], "{key}");
    }
}
