#!/usr/bin/env bash
# Kill-and-resume smoke test: a `simulate` with a store directory killed
# mid-run keeps every unit record it appended, and a re-run on the same
# directory must produce output byte-identical to an uninterrupted run
# and leave the directory warm enough that a third run replays every
# unit from its record and executes none (checkpoint.hits ==
# runner.units_planned, no tile looked up). Also passes when the run
# finishes before the kill lands (fast machines) — the re-run is then a
# pure record replay.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${EUREKA_BIN:-target/release/eureka}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

args=(simulate --benchmark resnet50 --arch eureka-p4 --csv --jobs 2 --no-ledger)

# Uninterrupted reference run (store directory on, its own directory, so
# the flag itself is exercised in both runs).
"$BIN" "${args[@]}" --store-dir "$dir/ref-store" > "$dir/reference.csv"

# The same run again, killed mid-flight.
"$BIN" "${args[@]}" --store-dir "$dir/store" > "$dir/killed.csv" &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
kept=$(grep -c '^[0-9a-f]\{16\} v3 ' "$dir/store/records-v3.units" 2>/dev/null || true)

# Resume from whatever survived. Must complete, match the uninterrupted
# output byte for byte, and replay every record the killed run appended
# but a torn last one.
"$BIN" "${args[@]}" --store-dir "$dir/store" \
    --metrics-out "$dir/metrics.json" > "$dir/resumed.csv"
cmp "$dir/reference.csv" "$dir/resumed.csv"
python3 - "$dir/metrics.json" "${kept:-0}" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
kept = int(sys.argv[2])
assert c.get("checkpoint.hits", 0) >= kept - 1, f"{kept} record(s) kept: {c}"
assert c.get("checkpoint.errors", 0) <= 1, f"more than a torn tail: {c}"
PY

# By now the directory holds a record of every unit this workload plans:
# a third run replays them all and executes nothing.
"$BIN" "${args[@]}" --store-dir "$dir/store" \
    --metrics-out "$dir/warm.json" > "$dir/warm.csv"
cmp "$dir/reference.csv" "$dir/warm.csv"
python3 - "$dir/warm.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c["checkpoint.hits"] == c["runner.units_planned"] > 0, c
assert c["runner.units_executed"] == 0, f"warm run executed units: {c}"
assert c["cache.misses"] == 0, f"units escaped the store: {c}"
assert c.get("store.lookups", 0) == 0, f"warm run looked tiles up: {c}"
PY
echo "kill-and-resume smoke OK (${kept:-0} unit record(s) kept by the killed run)"
