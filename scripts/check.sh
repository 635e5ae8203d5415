#!/usr/bin/env sh
# Repository gate: formatting, lints, build, and the tier-1 test suite.
# Everything runs with --locked against the committed Cargo.lock so the
# script works on hosts with no reachable cargo registry (the workspace
# has no external dependencies; the lockfile only pins workspace
# members).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --locked

echo "==> cargo test"
cargo test --workspace --locked -q

echo "==> verify gate (gradcheck + goldens + guards + guarded CLI run)"
cargo test -p dlbench-verify --locked -q
cargo test -p dlbench-frameworks --locked -q verifier
cargo run -p dlbench-cli --release --locked -q -- run table_ii --scale tiny --verify > /dev/null

echo "==> serve smoke (ephemeral port, concurrent predicts, metrics, drain)"
cargo test -p dlbench-serve --test smoke --locked -q

echo "==> profile smoke (traced training, nesting validated, Chrome JSON parses)"
cargo run -p dlbench-cli --release --locked -q -- profile --scale tiny \
    --trace target/dlbench-reports/TRACE_profile.json > /dev/null
test -s target/dlbench-reports/TRACE_profile.json

echo "==> bench smokes (quick, one BENCH_<name>.json each)"
for bench in ablation attacks layers parallel trace; do
    rm -f "target/dlbench-reports/BENCH_$bench.json"
    cargo bench --bench "$bench" --locked -- --quick > /dev/null
    test -s "target/dlbench-reports/BENCH_$bench.json"
done

echo "==> serve sweep (deadlines 0,2 ms, 24 requests per pass, BENCH_serve.json)"
rm -f target/dlbench-reports/BENCH_serve.json
cargo run -p dlbench-cli --release --locked -q -- loadgen --sweep --deadlines-ms 0,2 \
    --requests 24 > /dev/null
test -s target/dlbench-reports/BENCH_serve.json

echo "==> dist smoke (2-worker Tiny run, fault injection, bit-identity vs 1 worker)"
cargo run -p dlbench-cli --release --locked -q -- dist-train --workers 2 \
    --strategy ring --max-steps 30 --kill 1:5 > /dev/null
cargo test -p dlbench-integration-tests --test dist --locked -q

echo "==> dist determinism gate (N workers bit-identical to 1, all personalities)"
cargo test -p dlbench-integration-tests --test determinism --locked -q \
    dist_training_is_bit_identical

echo "==> dist scaling sweep (1,2 workers, 30 steps, BENCH_dist.json)"
rm -f target/dlbench-reports/BENCH_dist.json
cargo run -p dlbench-cli --release --locked -q -- dist-train --sweep --workers 1,2 \
    --max-steps 30 > /dev/null
test -s target/dlbench-reports/BENCH_dist.json

echo "==> spec smoke (2-cell grid, resume re-run must be all cache hits)"
rm -rf target/dlbench-check-cache
cargo run -p dlbench-cli --release --locked -q -- run-spec examples/specs/smoke.json \
    --cache-dir target/dlbench-check-cache > /dev/null
cargo run -p dlbench-cli --release --locked -q -- run-spec examples/specs/smoke.json \
    --cache-dir target/dlbench-check-cache | grep -q "0 executed, 2 cache hits"
test -s target/dlbench-reports/BENCH_spec.json
cargo test -p dlbench-integration-tests --test spec --locked -q
rm -rf target/dlbench-check-cache

echo "==> fleet spec (18 fleet cells through the fleet simulator)"
cargo run -p dlbench-cli --release --locked -q -- run-spec examples/specs/fleet_sweep.json \
    | grep -q "^\[18 cells"

echo "==> fleet smoke (2 replicas, live promotion under load, zero errored requests)"
cargo run -p dlbench-cli --release --locked -q -- fleet --replicas 2 \
    --workers 2 --max-steps 20 > /dev/null
cargo test -p dlbench-integration-tests --test fleet --locked -q

echo "==> fleet sweep golden (18 simulated cells, byte-identical to tests/goldens/fleet_sweep_doc.json)"
cargo run -p dlbench-cli --release --locked -q -- fleet --sweep --replicas 4 \
    --rates 200,50000,1000000 --out target/dlbench-reports/fleet_sweep_doc.json > /dev/null
cmp tests/goldens/fleet_sweep_doc.json target/dlbench-reports/fleet_sweep_doc.json

echo "==> fleet determinism gate (bit-transparent across routing x replicas x scaling)"
cargo test -p dlbench-integration-tests --test determinism --locked -q \
    fleet_serving_is_bit_transparent

echo "==> fleet sweep (600 requests per cell, BENCH_fleet.json, byte-identical across runs)"
cargo run -p dlbench-cli --release --locked -q -- fleet --sweep \
    --rates 1000,50000,1000000 --requests 600 > /dev/null
cp target/dlbench-reports/BENCH_fleet.json target/dlbench-reports/BENCH_fleet.first.json
cargo run -p dlbench-cli --release --locked -q -- fleet --sweep \
    --rates 1000,50000,1000000 --requests 600 > /dev/null
cmp target/dlbench-reports/BENCH_fleet.first.json target/dlbench-reports/BENCH_fleet.json
rm -f target/dlbench-reports/BENCH_fleet.first.json

echo "==> quantize smoke (train -> int8 quantize -> v2 checkpoint reload)"
cargo run -p dlbench-cli --release --locked -q -- quantize --scale tiny \
    --save target/dlbench-check-quant.ckpt > /dev/null
test -s target/dlbench-check-quant.ckpt
cargo run -p dlbench-cli --release --locked -q -- quantize --scale tiny \
    --load target/dlbench-check-quant.ckpt > /dev/null
rm -f target/dlbench-check-quant.ckpt

echo "==> quant serving gate (int8 under loadgen, dtype metrics, checkpoint errors)"
cargo test -p dlbench-integration-tests --test quant --locked -q

echo "==> quantized determinism gate (batched == single-sample, 1 vs 4 threads)"
cargo test -p dlbench-integration-tests --test determinism --locked -q \
    quantized_serving_is_bit_deterministic

echo "==> quant bench (quick, BENCH_quant.json, byte-identical across runs)"
cargo bench --bench quant --locked -- --quick > /dev/null
cp target/dlbench-reports/BENCH_quant.json target/dlbench-reports/BENCH_quant.first.json
cargo bench --bench quant --locked -- --quick > /dev/null
cmp target/dlbench-reports/BENCH_quant.first.json target/dlbench-reports/BENCH_quant.json
rm -f target/dlbench-reports/BENCH_quant.first.json

echo "==> text smoke (train -> int8 quantize -> v2 reload on imdb)"
cargo run -p dlbench-cli --release --locked -q -- quantize --framework torch \
    --dataset imdb --scale tiny --save target/dlbench-check-text.ckpt > /dev/null
test -s target/dlbench-check-text.ckpt
cargo run -p dlbench-cli --release --locked -q -- quantize --framework torch \
    --dataset imdb --scale tiny --load target/dlbench-check-text.ckpt > /dev/null
rm -f target/dlbench-check-text.ckpt

echo "==> text determinism gate (IMDB training + batched token serving, 1 vs 4 threads)"
cargo test -p dlbench-integration-tests --test determinism --locked -q text_

echo "==> text bench (quick, BENCH_text.json, byte-identical across runs)"
cargo bench --bench text --locked -- --quick > /dev/null
cp target/dlbench-reports/BENCH_text.json target/dlbench-reports/BENCH_text.first.json
cargo bench --bench text --locked -- --quick > /dev/null
cmp target/dlbench-reports/BENCH_text.first.json target/dlbench-reports/BENCH_text.json
rm -f target/dlbench-reports/BENCH_text.first.json

echo "==> suitebench unit tests (benchmark harness, release profile mirror)"
cargo test --release --offline -q --manifest-path suitebench/Cargo.toml

echo "==> infer-paper smoke (seed 42, 2 s; digests and seed-42 reference checked, peak RSS < 320 MB)"
sh scripts/suitebench-smoke.sh infer-paper 320

echo "==> paper-tiny smoke (seed 42, 2 s; seed-42 losses and warm-up bit equality checked, peak RSS < 32 MB)"
sh scripts/suitebench-smoke.sh paper-tiny 32

echo "==> serve-mix smoke (seed 42, 2 s; fp32 and int8 replies bitwise vs local forwards, peak RSS < 64 MB)"
sh scripts/suitebench-smoke.sh serve-mix 64

echo "==> fleet-sweep smoke (seed 42, 2 s; seed-42 completed, shed and mean_batch checked)"
sh scripts/suitebench-smoke.sh fleet-sweep

# Last, so every step above reports even on a host where the absolute
# kernel timings miss the committed baseline; a miss still fails the
# script.
echo "==> kernel perf gate (full timings vs committed baseline, >15% fails)"
DLBENCH_PERF_BASELINE="$PWD/crates/bench/baselines/kernels.json" \
    cargo bench --bench kernels --locked
test -s target/dlbench-reports/BENCH_kernels.json

echo "==> OK"
