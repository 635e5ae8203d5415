#!/usr/bin/env python3
"""Regenerates the committed baseline: runs every workload of
BENCHMARK.json several times and records, per end-to-end metric, each
run's value with the median, the quartiles and the quartile spread (the
distance between the quartiles as a share of the median).

Run from the repository root:

    python3 suitebench/baseline.py                    # 5 runs at seed 42
    python3 suitebench/baseline.py --seeds 1-10 --out /tmp/spread.json

--seeds takes a comma list of seeds or ranges (`42,42,42` or `1-10`),
one run per entry.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(command, workload, seed, seconds):
    """The run's result line, plus the `nproc` and `threads` its report
    file recorded."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed or operations failed: {result}")
    target = os.environ.get("CARGO_TARGET_DIR", "suitebench/target")
    with open(os.path.join(target, "dlbench-reports", f"BENCH_suite_{workload}.json")) as f:
        report = json.load(f)
    return result, report["nproc"], report["threads"]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="42,42,42,42,42")
    parser.add_argument("--out", default="suitebench/baselines/suite.json")
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = parse_seeds(opts.seeds)
    doc = {"command": bench["command"], "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        runs = [run(bench["command"], name, s, bench["run_seconds"]) for s in seeds]
        results = [r for r, _, _ in runs]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            metrics[m["name"]] = dict(summarize(values), unit=m["unit"], bound=m["bound"])
            print(f"{name:12} {m['name']:12} median {metrics[m['name']]['median']:.6g} "
                  f"spread {metrics[m['name']]['spread']:.4f} (bound {m['bound']})", flush=True)
        doc["workloads"][name] = {
            "nproc": runs[0][1], "threads": runs[0][2],
            "attempted": [r["attempted"] for r in results], "metrics": metrics}
    os.makedirs(os.path.dirname(opts.out) or ".", exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
