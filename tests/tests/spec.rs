//! End-to-end tests for the declarative experiment orchestrator:
//! spec → plan determinism against a committed golden, cache-driven
//! resume, corrupt-entry tolerance, and bit-for-bit equivalence with
//! the direct `BenchmarkRunner` path.

use dlbench_core::spec::{self, ExperimentSpec, RunOptions};
use dlbench_core::BenchmarkRunner;
use dlbench_integration_tests::TEST_SEED;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// A per-test scratch cache directory, removed on drop so reruns
/// always start cold.
struct ScratchCache(PathBuf);

impl ScratchCache {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dlbench-spec-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCache(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tiny 2×2 grid (framework × device on MNIST) that needs exactly
/// two trainings.
fn small_grid() -> ExperimentSpec {
    let text = format!(
        r#"{{
            "name": "it-grid",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED}, "dataset": "mnist"}},
            "grids": [{{
                "kind": "train",
                "axes": {{"framework": ["tf", "caffe"], "device": ["cpu", "gpu"]}}
            }}]
        }}"#
    );
    ExperimentSpec::parse(&text).expect("inline spec parses")
}

/// Expands a shipped spec, checks that expansion is a pure function of
/// the spec text and that the plan matches its committed golden
/// byte-for-byte. The plan's cell hashes are the cache keys, so a drift
/// would orphan every cache a previous build filled.
fn assert_golden_plan(spec_file: &str, golden_file: &str) -> spec::Plan {
    let text = std::fs::read_to_string(repo_path(&format!("../examples/specs/{spec_file}")))
        .expect("shipped spec readable");
    let plan = ExperimentSpec::parse(&text).expect("shipped spec parses");
    let plan = plan.expand().expect("shipped spec expands");
    let rendered = plan.to_json().pretty() + "\n";
    let again = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    assert_eq!(rendered, again.to_json().pretty() + "\n", "{spec_file}");
    let golden = std::fs::read_to_string(repo_path(&format!("goldens/{golden_file}")))
        .expect("golden plan readable");
    assert_eq!(rendered, golden, "{spec_file} plan drifted from tests/goldens/{golden_file}");
    plan
}

#[test]
fn shipped_spec_expands_to_golden_plan() {
    let plan = assert_golden_plan("paper_tables.json", "spec_plan.json");
    assert_eq!(plan.cells.len(), 12, "paper tables spec must cover the full cross");
}

#[test]
fn shipped_text_sweep_spec_expands_to_golden_plan() {
    let plan = assert_golden_plan("text_sweep.json", "text_sweep_plan.json");
    // 3 personalities x {mnist, imdb} x {fp32, int8} serve cells.
    assert_eq!(plan.cells.len(), 12, "text sweep must cover the full cross");
    let imdb_cells = plan.cells.iter().filter(|c| c.params["dataset"] == "imdb").count();
    assert_eq!(imdb_cells, 6, "half the cells serve the text modality");
}

#[test]
fn shipped_scaling_sweep_spec_expands_to_golden_plan() {
    let plan = assert_golden_plan("scaling_sweep.json", "scaling_sweep_plan.json");
    assert_eq!(plan.cells.len(), 22, "scaling sweep must cover the full cross");
}

#[test]
fn shipped_fleet_sweep_spec_expands_to_golden_plan() {
    let plan = assert_golden_plan("fleet_sweep.json", "fleet_sweep_plan.json");
    assert_eq!(plan.cells.len(), 18, "fleet sweep must cover the full cross");
}

#[test]
fn resume_retrains_only_missing_cells() {
    let cache = ScratchCache::new("resume");
    let plan = small_grid().expand().unwrap();
    assert_eq!(plan.cells.len(), 4);
    let opts = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let first = spec::run_plan(&plan, &opts).unwrap();
    assert_eq!((first.executed, first.cache_hits), (4, 0));

    // Simulate a killed sweep by deleting one finished cell.
    let victim = cache.path().join(format!("{}.json", first.cells[2].hash));
    std::fs::remove_file(&victim).unwrap();
    let second = spec::run_plan(&plan, &opts).unwrap();
    assert_eq!((second.executed, second.cache_hits), (1, 3), "exactly the deleted cell re-runs");

    // The resumed run reproduces the original results bit-for-bit.
    assert_eq!(
        spec::document(&first).pretty(),
        spec::document(&second).pretty(),
        "resume changed results"
    );
}

#[test]
fn truncated_cache_entry_is_a_miss_not_an_error() {
    let cache = ScratchCache::new("truncated");
    let text = format!(
        r#"{{
            "name": "it-truncated",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                         "framework": "caffe", "dataset": "mnist"}},
            "grids": [{{"kind": "train", "axes": {{"device": ["cpu", "gpu"]}}}}]
        }}"#
    );
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    let opts = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let first = spec::run_plan(&plan, &opts).unwrap();
    assert_eq!(first.executed, 2);

    // A crash mid-write never leaves a half entry (temp + rename), but
    // disk corruption could; either way a mangled entry must re-run.
    let path = cache.path().join(format!("{}.json", first.cells[0].hash));
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 3]).unwrap();
    let second = spec::run_plan(&plan, &opts).unwrap();
    assert_eq!((second.executed, second.cache_hits), (1, 1));
    assert_eq!(spec::document(&first).pretty(), spec::document(&second).pretty());
}

#[test]
fn spec_cell_matches_direct_runner_bitwise() {
    let cache = ScratchCache::new("equivalence");
    let text = format!(
        r#"{{
            "name": "it-equivalence",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                         "framework": "caffe", "dataset": "mnist"}},
            "grids": [{{"kind": "train", "axes": {{"device": ["gpu"]}}}}]
        }}"#
    );
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    let opts = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let run = spec::run_plan(&plan, &opts).unwrap();
    let result = &run.cells[0].result;

    // The same cell through the `run`/`train` path: identical key,
    // device and seed must yield identical bits, or the orchestrator
    // is not measuring what the rest of the suite measures.
    let mut runner = BenchmarkRunner::new(dlbench_frameworks::Scale::Tiny, TEST_SEED);
    let key = BenchmarkRunner::own_default_key(
        dlbench_frameworks::FrameworkKind::Caffe,
        dlbench_data::DatasetKind::Mnist,
    );
    let direct = runner.metrics(key, &dlbench_simtime::devices::gtx_1080_ti(), "direct");
    let field = |k: &str| result.get(k).and_then(|v| v.as_f64()).unwrap();
    assert_eq!(field("train_time_s"), direct.train_time_s);
    assert_eq!(field("test_time_s"), direct.test_time_s);
    assert_eq!(field("accuracy_pct"), direct.accuracy_pct as f64);
    assert_eq!(result.get("converged"), Some(&dlbench_json::JsonValue::Bool(direct.converged)));
}

#[test]
fn forced_rerun_is_byte_identical() {
    let cache = ScratchCache::new("force");
    let text = format!(
        r#"{{
            "name": "it-force",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                         "framework": "caffe", "dataset": "mnist"}},
            "grids": [{{"kind": "train", "axes": {{"device": ["cpu"]}}}}]
        }}"#
    );
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    let cached = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let forced = RunOptions { cache_dir: cache.path().to_path_buf(), force: true };
    let first = spec::run_plan(&plan, &cached).unwrap();
    // `--force` re-executes everything; a deterministic engine must
    // still reproduce the document byte-for-byte.
    let second = spec::run_plan(&plan, &forced).unwrap();
    assert_eq!(second.executed, 1);
    assert_eq!(spec::document(&first).pretty(), spec::document(&second).pretty());
}

#[test]
fn routing_aliases_expand_to_one_canonical_fleet_cell() {
    use dlbench_core::spec::CellPayload;
    use dlbench_fleet::RoutingPolicy;

    // Every routing spelling expands to one cell whose canonical param
    // (what the cache key hashes) names the policy its payload holds.
    let aliases = [
        ("rr", RoutingPolicy::RoundRobin),
        ("round-robin", RoutingPolicy::RoundRobin),
        ("roundrobin", RoutingPolicy::RoundRobin),
        ("least-queue", RoutingPolicy::LeastQueue),
        ("leastqueue", RoutingPolicy::LeastQueue),
        ("lq", RoutingPolicy::LeastQueue),
        ("batch-aware", RoutingPolicy::BatchAware),
        ("batchaware", RoutingPolicy::BatchAware),
        ("ba", RoutingPolicy::BatchAware),
    ];
    for (alias, policy) in aliases {
        // One spec per spelling: aliases of the same policy expand to
        // the same canonical cell, which a single grid would reject as
        // a duplicate.
        let text = format!(
            r#"{{
                "name": "it-routing-aliases",
                "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                             "framework": "tf", "dataset": "mnist"}},
                "grids": [{{"kind": "fleet", "axes": {{"routing": ["{alias}"]}}}}]
            }}"#
        );
        let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].params["routing"], policy.name(), "alias `{alias}`");
        let CellPayload::Fleet(f) = &plan.cells[0].payload else {
            panic!("expected a fleet cell for alias {alias}");
        };
        assert_eq!(f.policy, policy, "alias `{alias}` parsed to the wrong policy");
    }
}

#[test]
fn framework_and_dataset_spellings_match_the_cli() {
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::FrameworkKind;

    // The CLI flags and spec files share one spelling table per kind;
    // every CLI spelling must expand to the canonical spec parameter.
    let cases = [
        ("framework", "tf", "tf"),
        ("framework", "TensorFlow", "tf"),
        ("framework", "Caffe", "caffe"),
        ("framework", "torch", "torch"),
        ("dataset", "mnist", "mnist"),
        ("dataset", "cifar", "cifar10"),
        ("dataset", "CIFAR-10", "cifar10"),
        ("dataset", "imdb", "imdb"),
    ];
    for (key, alias, canonical) in cases {
        let text = format!(
            r#"{{
                "name": "it-{key}-aliases",
                "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                             "framework": "tf", "dataset": "mnist", "device": "cpu"}},
                "grids": [{{"kind": "train", "axes": {{"{key}": ["{alias}"]}}}}]
            }}"#
        );
        let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
        assert_eq!(plan.cells[0].params[key], canonical, "spec canonicalized `{alias}`");
        let cli_ok = match key {
            "framework" => FrameworkKind::parse(alias).is_ok(),
            _ => DatasetKind::parse(alias).is_ok(),
        };
        assert!(cli_ok, "CLI rejects `--{key} {alias}`");
    }
}

#[test]
fn shipped_text_sweep_serve_cells_run_through_the_http_backend() {
    let text = std::fs::read_to_string(repo_path("../examples/specs/text_sweep.json"))
        .expect("shipped text sweep readable");
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    // One personality's text cells, fp32 and int8, on the real HTTP tier.
    let cells: Vec<_> = plan
        .cells
        .iter()
        .filter(|c| c.params["framework"] == "torch" && c.params["dataset"] == "imdb")
        .cloned()
        .collect();
    assert_eq!(cells.len(), 2);
    let slice = dlbench_core::Plan { name: plan.name.clone(), cells };
    let cache = ScratchCache::new("serve");
    let opts = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let run = spec::run_plan(&slice, &opts).unwrap();
    assert_eq!(run.executed, 2);
    for cell in &run.cells {
        let field = |k: &str| cell.result.get(k).and_then(|v| v.as_f64());
        assert_eq!(
            cell.result.get("dtype").and_then(|v| v.as_str()),
            Some(cell.params["quantize"].as_str())
        );
        assert_eq!(field("sent"), Some(64.0), "{}", cell.label);
        assert_eq!(field("errors"), Some(0.0), "{}", cell.label);
    }
}

#[test]
fn shipped_fleet_sweep_spec_expands_and_runs_through_a_backend() {
    use dlbench_core::spec::CellPayload;

    let text = std::fs::read_to_string(repo_path("../examples/specs/fleet_sweep.json"))
        .expect("shipped fleet spec readable");
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    assert!(plan.cells.iter().all(|c| matches!(c.payload, CellPayload::Fleet(_))));
    assert_eq!(plan.cells.len(), 18, "3 policies x 3 rates x 2 replica counts");

    // Run a 2-cell slice end to end through the simulator and check the
    // per-cell result shape the aggregator summarizes.
    let cache = ScratchCache::new("fleet");
    let slice = dlbench_core::Plan { name: plan.name.clone(), cells: plan.cells[..2].to_vec() };
    let opts = RunOptions { cache_dir: cache.path().to_path_buf(), force: false };
    let run = spec::run_plan(&slice, &opts).unwrap();
    assert_eq!(run.executed, 2);
    for cell in &run.cells {
        for key in ["completed", "shed_rate", "slo_burn", "latency_ms"] {
            assert!(cell.result.get(key).is_some(), "fleet result missing `{key}`");
        }
    }
    // Cached resume: byte-identical document without re-execution.
    let again = spec::run_plan(&slice, &opts).unwrap();
    assert_eq!(again.executed, 0);
    assert_eq!(spec::document(&run).pretty(), spec::document(&again).pretty());
}

#[test]
fn quantize_axis_expands_on_serve_and_fleet_grids() {
    use dlbench_core::spec::CellPayload;
    use dlbench_serve::ModelDtype;

    let text = format!(
        r#"{{
            "name": "it-quantize-axis",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                         "framework": "tf", "dataset": "mnist"}},
            "grids": [
                {{"kind": "serve",
                  "axes": {{"deadline_ms": [50], "quantize": ["fp32", "int8"]}}}},
                {{"kind": "fleet", "axes": {{"quantize": ["fp32", "int8"]}}}}
            ]
        }}"#
    );
    let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
    assert_eq!(plan.cells.len(), 4, "each dtype must be its own cached cell");

    let mut serve_dtypes = Vec::new();
    let mut fleet_dtypes = Vec::new();
    for cell in &plan.cells {
        // The canonical parameter map is what the cache key hashes, so
        // the dtype must appear there for fp32/int8 cells to cache
        // separately.
        let dtype = cell.params.get("quantize").expect("canonical params carry quantize").clone();
        match &cell.payload {
            CellPayload::Serve { model, .. } => {
                assert_eq!(model.dtype.name(), dtype);
                serve_dtypes.push(dtype);
            }
            CellPayload::Fleet(f) => {
                assert_eq!(f.dtype.name(), dtype);
                fleet_dtypes.push(dtype);
            }
            other => panic!("unexpected payload: {other:?}"),
        }
    }
    serve_dtypes.sort();
    fleet_dtypes.sort();
    assert_eq!(serve_dtypes, ["fp32", "int8"]);
    assert_eq!(fleet_dtypes, ["fp32", "int8"]);

    // Alias spellings canonicalize rather than multiply cells.
    for (alias, dtype) in
        [("f32", ModelDtype::Fp32), ("float32", ModelDtype::Fp32), ("i8", ModelDtype::Int8)]
    {
        let text = format!(
            r#"{{
                "name": "it-quantize-alias",
                "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                             "framework": "tf", "dataset": "mnist"}},
                "grids": [{{"kind": "serve",
                           "axes": {{"deadline_ms": [50], "quantize": ["{alias}"]}}}}]
            }}"#
        );
        let plan = ExperimentSpec::parse(&text).unwrap().expand().unwrap();
        assert_eq!(plan.cells[0].params["quantize"], dtype.name(), "alias `{alias}`");
        let CellPayload::Serve { model, .. } = &plan.cells[0].payload else {
            panic!("expected a serve cell for alias {alias}");
        };
        assert_eq!(model.dtype, dtype, "alias `{alias}` parsed to the wrong dtype");
    }
}

#[test]
fn misplaced_key_errors_name_every_kind_that_takes_the_key() {
    let grid = |kind: &str, key: &str| {
        format!(
            r#"{{"name": "it-misplaced", "defaults": {{"framework": "tf", "dataset": "mnist"}},
                "grids": [{{"kind": "{kind}", "axes": {{"{key}": [1]}}}}]}}"#
        )
    };
    // A key two kinds share names both, and the fix offers either.
    let err = ExperimentSpec::parse(&grid("dist", "max_batch")).unwrap_err();
    assert!(err.contains("`max_batch` only applies to serve and fleet grids"), "{err}");
    assert!(err.contains("move it to a serve or fleet grid"), "{err}");
    let err = ExperimentSpec::parse(&grid("fleet", "setting_owner")).unwrap_err();
    assert!(err.contains("`setting_owner` only applies to train and dist grids"), "{err}");
    // A key no kind takes is a typo, listed against the union.
    let err = ExperimentSpec::parse(&grid("train", "replica")).unwrap_err();
    assert!(
        err.ends_with(
            "unknown parameter `replica` (known: dataset, deadline_ms, device, framework, \
             max_batch, max_steps, quantize, rate_rps, replicas, requests, routing, scale, seed, \
             setting_dataset, setting_owner, strategy, target_p99_ms, workers)"
        ),
        "{err}"
    );
}

#[test]
fn quantize_axis_on_train_or_dist_grid_is_a_structured_error() {
    for kind in ["train", "dist"] {
        let text = format!(
            r#"{{
                "name": "it-quantize-misplaced",
                "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                             "framework": "tf", "dataset": "mnist"}},
                "grids": [{{"kind": "{kind}", "axes": {{"quantize": ["int8"]}}}}]
            }}"#
        );
        let err = match ExperimentSpec::parse(&text) {
            Ok(_) => panic!("quantize on a {kind} grid must be rejected"),
            Err(e) => e.to_string(),
        };
        assert!(
            err.contains("only applies to serve and fleet grids"),
            "error must say where the key belongs ({kind}): {err}"
        );
    }

    // Unknown spellings are rejected with the accepted vocabulary.
    let text = format!(
        r#"{{
            "name": "it-quantize-bad-value",
            "defaults": {{"scale": "tiny", "seed": {TEST_SEED},
                         "framework": "tf", "dataset": "mnist"}},
            "grids": [{{"kind": "serve",
                       "axes": {{"deadline_ms": [50], "quantize": ["int4"]}}}}]
        }}"#
    );
    let err = match ExperimentSpec::parse(&text).unwrap().expand() {
        Ok(_) => panic!("unknown quantize spelling must be rejected"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains("unknown quantize mode") && err.contains("fp32|int8"),
        "error must name the accepted modes: {err}"
    );
}
