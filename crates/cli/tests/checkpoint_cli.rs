//! End-to-end CLI checkpointing: `train --checkpoint-every` rolls
//! loadable snapshots, composes with `--load`, and bad inputs exit
//! nonzero with a diagnostic instead of panicking.

use std::process::Command;

fn dlbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlbench"))
}

/// A test's own temporary directory, removed with everything in it
/// when the test ends (also when it fails).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dlbench-ckpt-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn checkpoint_every_rolls_a_loadable_snapshot() {
    let dir = TempDir::new("rolling");
    let ckpt = dir.path("rolling.ckpt");
    let out = dlbench()
        .args(["train", "--scale", "tiny", "--seed", "42", "--checkpoint-every", "2"])
        .args(["--save", ckpt.to_str().unwrap()])
        .output()
        .expect("run dlbench train");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "train failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("checkpointing"), "missing checkpoint summary:\n{stdout}");
    assert!(ckpt.exists(), "no checkpoint written");

    // The rolled snapshot warm-starts a second run.
    let out = dlbench()
        .args(["train", "--scale", "tiny", "--seed", "42"])
        .args(["--load", ckpt.to_str().unwrap()])
        .output()
        .expect("run dlbench train --load");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "warm start failed:\n{stdout}");
    assert!(stdout.contains("warm-starting from checkpoint"), "{stdout}");
}

#[test]
fn checkpoint_every_without_save_exits_nonzero() {
    let out = dlbench()
        .args(["train", "--scale", "tiny", "--checkpoint-every", "2"])
        .output()
        .expect("run dlbench train");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint-every requires --save"), "{stderr}");
}

#[test]
fn corrupt_checkpoint_fails_cleanly_not_a_panic() {
    let dir = TempDir::new("corrupt");
    let bad = dir.path("corrupt.ckpt");
    std::fs::write(&bad, b"DLBENCH1 but then garbage").expect("write corrupt file");
    let out = dlbench()
        .args(["train", "--scale", "tiny"])
        .args(["--load", bad.to_str().unwrap()])
        .output()
        .expect("run dlbench train --load");
    assert!(!out.status.success(), "corrupt checkpoint must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot warm-start"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn dist_train_checkpoint_interchanges_with_single_node_load() {
    // A dist-train checkpoint is a plain parameter stream: the
    // single-node trainer warm-starts from it unchanged.
    let dir = TempDir::new("dist");
    let ckpt = dir.path("dist.ckpt");
    let out = dlbench()
        .args(["dist-train", "--workers", "2", "--strategy", "ring", "--max-steps", "20"])
        .args(["--scale", "tiny", "--seed", "42", "--save", ckpt.to_str().unwrap()])
        .output()
        .expect("run dlbench dist-train");
    assert!(
        out.status.success(),
        "dist-train failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists(), "no dist checkpoint written");

    let out = dlbench()
        .args(["train", "--scale", "tiny", "--seed", "42"])
        .args(["--load", ckpt.to_str().unwrap()])
        .output()
        .expect("run dlbench train --load");
    assert!(
        out.status.success(),
        "single-node warm start from dist checkpoint failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn dist_train_rejects_bad_fault_specs() {
    for (flag, value) in [("--kill", "notanumber:3"), ("--kill", "5"), ("--straggle", "1:x")] {
        let out = dlbench()
            .args(["dist-train", "--workers", "2", flag, value])
            .output()
            .expect("run dlbench dist-train");
        assert!(!out.status.success(), "{flag} {value} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad"), "{flag} {value}: {stderr}");
    }
}
