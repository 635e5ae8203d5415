#!/usr/bin/env sh
# A 2 s suitebench smoke of one workload at seed 42, untraced. The run
# must report "correct": true and, when a ceiling is given, a peak RSS
# below that many MB.
#
#   scripts/suitebench-smoke.sh WORKLOAD [MAX_PEAK_RSS_MB]
set -eu

cd "$(dirname "$0")/.."

workload=$1
out=$(cargo run --release --quiet --offline --manifest-path suitebench/Cargo.toml -- \
    --workload "$workload" --seed 42 --seconds 2 --trace 0)
if ! echo "$out" | grep -q '"correct": true'; then
    echo "$workload: the run is not correct: $out" >&2
    exit 1
fi
[ $# -ge 2 ] || exit 0
echo "$out" | awk -v w="$workload" -v cap="$2" '
    match($0, /"peak_rss_mb": [{]"value": [^,}]*/) {
        rss = substr($0, RSTART, RLENGTH)
        sub(/.*: /, "", rss)
        found = 1
    }
    END {
        if (!found) {
            print w ": the report has no peak_rss_mb" > "/dev/stderr"
            exit 1
        }
        if (rss + 0 >= cap) {
            print w ": peak_rss_mb " rss " MB is not below the " cap " MB ceiling" > "/dev/stderr"
            exit 1
        }
    }'
