//! `dlbench fleet --sweep` refuses arrival rates, request counts and
//! p99 targets the simulator cannot run (or no request can meet) with a
//! diagnostic and exit code 1, never a panic.

use std::process::Command;

#[test]
fn bad_sweep_rates_and_request_counts_exit_1_without_a_panic() {
    let out = std::env::temp_dir().join(format!("dlbench-fleet-cli-{}.json", std::process::id()));
    let cases: [(&[&str], &str); 9] = [
        (&["--rates", "0"], "rate `0` must be positive"),
        (&["--rates", "1000,-5"], "rate `-5` must be positive"),
        (&["--rates", "nan"], "rate `nan` must be positive"),
        (&["--rates", "inf"], "rate `inf` must be positive"),
        (&["--requests", "0"], "--requests must be positive"),
        (&["--target-p99-ms", "-5"], "--target-p99-ms `-5` must be positive"),
        (&["--target-p99-ms", "0"], "--target-p99-ms `0` must be positive"),
        (&["--target-p99-ms", "nan"], "--target-p99-ms `nan` must be positive"),
        (&["--target-p99-ms", "inf"], "--target-p99-ms `inf` must be positive"),
    ];
    for (flags, message) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_dlbench"))
            .args(["fleet", "--sweep", "--out", out.to_str().unwrap()])
            .args(flags)
            .output()
            .expect("run dlbench fleet --sweep");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: expected `{message}` in {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(!out.exists(), "{flags:?} wrote a document");
    }
}
