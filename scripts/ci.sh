#!/usr/bin/env bash
# Full verification: format, lints, tests, docs, experiment smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace
# These suites once took turns on process-wide metrics, spans and
# verbosity; each test now reads its own runner's or service's counts
# and spans. Rerun them with many threads so any order dependence fails
# here, and rerun the record log's suite (two handles' threads appending
# to one file) so a lost cross-handle lock fails here too.
for _ in 1 2 3 4 5; do
    cargo test -q --test events --test fault_tolerance --test runner_equivalence \
        --test service --test store_durability --test telemetry -- --test-threads 16
    cargo test -q -p eureka-obs --lib -- applog:: span:: log:: --test-threads 16
    cargo test -q -p eureka-cli --test run_opts -- --test-threads 16
done
# The benchmark harness has its own workspace but calls the service,
# journal and request APIs, so an API break must fail here too.
cargo test --release --manifest-path examples/benchmark/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo bench --workspace -- --test   # criterion harness smoke (no timing)
cargo run --release -q -p eureka-cli -- verify --replay tests/corpus
cargo run --release -q -p eureka-cli -- verify --cases 200 --seed 42 | tail -n 1
cargo run --release -q -p eureka-cli -- verify --fault-matrix --seed 42 | tail -n 1
cargo run --release -q -p eureka-cli -- verify --chaos --cases 50 --seed 42 | tail -n 1
# Paper sampling: tests/golden pins the fast-sampling figures only, so
# the full fig11 sweep must still match the committed reference CSV.
cargo run --release -q -p eureka-cli -- figure fig11 --csv --jobs 2 \
    | cmp - examples/benchmark/reference/fig11.csv
scripts/resume_smoke.sh
scripts/store_smoke.sh
scripts/serve_smoke.sh
# bench diff exit-code contract: missing snapshot = 2 (broken wiring),
# regression = 1 (the gate fired) — CI must be able to tell them apart.
set +e
cargo run --release -q -p eureka-cli -- bench diff /nonexistent.json /nonexistent.json 2>/dev/null
[ $? -eq 2 ] || { echo "bench diff on a missing snapshot must exit 2" >&2; exit 1; }
set -e
# Store persistence: a second run against a warmed --store-dir replays
# every unit from its record, executing none, and emits byte-identical
# reports.
store_dir=$(mktemp -d)
obs_dir=$(mktemp -d)
trap 'rm -rf "$store_dir" "$obs_dir"' EXIT
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --csv --store-dir "$store_dir/tiles" \
    > "$store_dir/cold.csv"
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --csv --store-dir "$store_dir/tiles" \
    --metrics-out "$store_dir/warm.json" > "$store_dir/warm.csv"
cmp "$store_dir/cold.csv" "$store_dir/warm.csv"
python3 - "$store_dir/warm.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c["checkpoint.hits"] == c["runner.units_planned"] > 0, c
assert c["runner.units_executed"] == 0, f"warm run executed units: {c}"
assert c["cache.misses"] == 0, f"units escaped the store: {c}"
assert c.get("store.lookups", 0) == 0, f"warm run looked tiles up: {c}"
EOF
# The profiler bypasses unit records, so a warm `profile --store-dir`
# is served by the tile shards alone and its export is byte-identical.
# `profile` has no --metrics-out; its events say the same per unit:
# source "store" means every lookup hit (store.misses == 0, store.hits
# == store.lookups > 0).
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --no-ledger --json "$store_dir/profile-cold.json" > /dev/null
for run in fill warm; do
    cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
        --arch eureka-p4 --fast --no-ledger --store-dir "$store_dir/profile" \
        --json "$store_dir/profile-$run.json" \
        --events-out "$store_dir/profile-$run.jsonl" > /dev/null
done
cmp "$store_dir/profile-cold.json" "$store_dir/profile-warm.json"
python3 - "$store_dir/profile-warm.jsonl" <<'EOF'
import json, sys
done = [e["det"] for e in map(json.loads, open(sys.argv[1]))
        if e["event"] == "unit-finished"]
assert done and all(d["source"] == "store" for d in done), done
EOF
# Profile smoke: the cycle-attribution export must be byte-identical
# across runs (determinism is part of the profiler's contract).
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --json - > /tmp/eureka-profile-a.json
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --json - > /tmp/eureka-profile-b.json
cmp /tmp/eureka-profile-a.json /tmp/eureka-profile-b.json
# Run-event stream: every line is schema-valid and the deterministic
# projection is byte-identical across --jobs 1 and --jobs 4. Reports
# must be unaffected by streaming events and forcing the reporter on.
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --csv --jobs 1 --no-ledger \
    --events-out "$obs_dir/ev-j1.jsonl" > "$obs_dir/report-j1.csv"
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --csv --jobs 4 --no-ledger --progress \
    --events-out "$obs_dir/ev-j4.jsonl" > "$obs_dir/report-j4.csv" 2>/dev/null
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --csv --jobs 4 --no-ledger \
    > "$obs_dir/report-plain.csv"
python3 scripts/check_events.py "$obs_dir/ev-j1.jsonl" "$obs_dir/ev-j4.jsonl"
cmp "$obs_dir/report-j1.csv" "$obs_dir/report-j4.csv"
cmp "$obs_dir/report-j1.csv" "$obs_dir/report-plain.csv"
# Telemetry smoke: the trace holds one unit.exec span per unit the same
# run's --metrics-out says it planned, spread over the worker tracks.
cargo run --release -q -p eureka-cli -- simulate --benchmark resnet50 --arch eureka-p4 \
    --fast --jobs 4 --no-ledger --trace-out "$obs_dir/trace.json" \
    --metrics-out "$obs_dir/metrics.json" -v > /dev/null
python3 scripts/check_trace.py "$obs_dir/trace.json" "$obs_dir/metrics.json"
# Run ledger + regression gate: identical runs diff clean, the fresh
# BENCH snapshot stays within threshold of the committed trajectory,
# and an injected regression fails with a non-zero exit.
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --ledger-dir "$obs_dir/ledger" > /dev/null
cargo run --release -q -p eureka-cli -- simulate --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --ledger-dir "$obs_dir/ledger" > /dev/null
cargo run --release -q -p eureka-cli -- bench list --ledger-dir "$obs_dir/ledger"
recs=("$obs_dir"/ledger/*.json)
cargo run --release -q -p eureka-cli -- bench diff "${recs[0]}" "${recs[1]}"
cargo run --release -q -p eureka-cli -- profile --benchmark mobilenetv1 \
    --arch eureka-p4 --fast --no-ledger --bench-json "$obs_dir/bench-fresh.json"
cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_1.json "$obs_dir/bench-fresh.json"
# The BENCH_2 → BENCH_3 step of the committed trajectory (the hot-path
# overhaul) must stay cycle-clean: modeled results were required to be
# byte-identical, so even a 2% drift between the snapshots is a bug.
cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_2.json results/BENCH_3.json --max-regress 2
python3 - "$obs_dir/bench-fresh.json" "$obs_dir/bench-bad.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
for arch in snap["archs"]:
    arch["total_cycles"] = int(arch["total_cycles"] * 1.10)
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
if cargo run --release -q -p eureka-cli -- bench diff \
    results/BENCH_1.json "$obs_dir/bench-bad.json" 2>/dev/null; then
    echo "bench diff failed to reject a 10% cycle regression" >&2
    exit 1
fi
echo "CI OK"
