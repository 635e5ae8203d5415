//! `dlbench attack` end to end at `--scale tiny`: each attack a dataset
//! supports prints its per-class table and summary line, and each one
//! it does not support exits 1 with a diagnostic, never a panic. An
//! unknown attack is refused before a model is loaded or trained.

use std::process::{Command, Stdio};

#[test]
fn attacks_run_or_are_refused_per_dataset() {
    let digits = "per-source-digit success:";
    let text = "per-source-class success (embedding-space):";
    let mean = "mean success rate: ";
    // A checkpoint that cannot load: an unknown attack must be refused
    // before the model is loaded (or trained).
    let missing = "no-such-dir/missing.ckpt";
    // (flags, exit code, lines expected on stdout for 0 or stderr for 1)
    let cases: [(&[&str], i32, &[&str]); 11] = [
        (&["--attack", "fgsm"], 0, &[digits, mean]),
        (&["--attack", "pgd"], 0, &[digits, mean]),
        (&["--attack", "noise"], 0, &[digits, "(random-noise baseline at the same epsilon)"]),
        (
            &["--attack", "jsma"],
            0,
            &["crafting digit 1 into target:", "mean saliency iterations per attempt: "],
        ),
        (&["--dataset", "imdb", "--attack", "fgsm"], 0, &[text, mean]),
        (&["--dataset", "imdb", "--attack", "pgd"], 0, &[text, mean]),
        (
            &["--dataset", "imdb", "--attack", "jsma"],
            1,
            &["`jsma` operates on pixel inputs; text cells support fgsm|pgd"],
        ),
        (
            &["--dataset", "imdb", "--attack", "noise"],
            1,
            &["`noise` operates on pixel inputs; text cells support fgsm|pgd"],
        ),
        (
            &["--dataset", "cifar10", "--attack", "fgsm"],
            1,
            &["attacks are defined on the MNIST cells (paper §III.E) and the IMDB text cells"],
        ),
        (
            &["--attack", "bogus", "--load", missing],
            1,
            &["unknown attack `bogus` (fgsm|pgd|jsma|noise)"],
        ),
        (
            &["--dataset", "imdb", "--attack", "bogus", "--load", missing],
            1,
            &["unknown attack `bogus` (fgsm|pgd)"],
        ),
    ];
    // The runs share nothing, so they all start before any is awaited.
    let children: Vec<_> = cases
        .iter()
        .map(|(flags, _, _)| {
            Command::new(env!("CARGO_BIN_EXE_dlbench"))
                .args(["attack", "--scale", "tiny"])
                .args(*flags)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn dlbench attack")
        })
        .collect();
    for ((flags, code, expected), child) in cases.iter().zip(children) {
        let out = child.wait_with_output().expect("wait for dlbench attack");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{flags:?}:\n{stdout}{stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        let shown = if *code == 0 { &stdout } else { &stderr };
        for line in *expected {
            assert!(shown.contains(line), "{flags:?}: expected `{line}` in\n{shown}");
        }
    }
}
