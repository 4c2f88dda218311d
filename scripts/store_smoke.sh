#!/usr/bin/env bash
# Kill-and-warm-resume smoke test for the persistent result store: a
# `simulate` pointed at a --store-dir and killed mid-run leaves behind
# the unit records it appended (one per finished unit) and whatever tile
# shards it flushed (once, after the run's execute phase). Re-running
# against that partial store must complete, produce output
# byte-identical to an uninterrupted run, and leave the store warm enough
# that a third run replays every unit from its record and executes none
# (checkpoint.hits == runner.units_planned, no tile looked up). Also
# passes when the run finishes before the kill lands (fast machines) —
# the resume is then a pure warm replay.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${EUREKA_BIN:-target/release/eureka}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

args=(simulate --benchmark resnet50 --arch eureka-p4 --csv --jobs 2)

# Uninterrupted reference run (its own store directory, so the flag is
# exercised in both runs).
"$BIN" "${args[@]}" --store-dir "$dir/ref-store" > "$dir/reference.csv"

# The same run again, killed mid-flight.
"$BIN" "${args[@]}" --store-dir "$dir/store" > "$dir/killed.csv" &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Warm-resume from whatever survived. Must complete and match the
# uninterrupted output byte for byte.
"$BIN" "${args[@]}" --store-dir "$dir/store" > "$dir/resumed.csv"
cmp "$dir/reference.csv" "$dir/resumed.csv"

# By now the store holds a record of every unit this workload plans: a
# third run replays them all and executes nothing.
"$BIN" "${args[@]}" --store-dir "$dir/store" \
    --metrics-out "$dir/metrics.json" > "$dir/warm.csv"
cmp "$dir/reference.csv" "$dir/warm.csv"
python3 - "$dir/metrics.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c["checkpoint.hits"] == c["runner.units_planned"] > 0, c
assert c["runner.units_executed"] == 0, f"warm run executed units: {c}"
assert c["cache.misses"] == 0, f"units escaped the store: {c}"
assert c.get("store.lookups", 0) == 0, f"warm run looked tiles up: {c}"
EOF
echo "store kill-and-warm-resume smoke OK ($(ls "$dir/store" | wc -l) file(s))"
