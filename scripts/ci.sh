#!/usr/bin/env bash
# The one definition of CI: format, lints, tests, docs, experiment
# smokes and regression gates, in seven stages.
#
#   scripts/ci.sh            run every stage in order
#   scripts/ci.sh <stage>    run one stage (each GitHub CI job runs one)
#
# Stages: checks, paper, store, events-ledger, verify, faults, chaos. Each
# stage starts from an empty target/ci/<stage>/ and writes every file
# it makes there, which is what CI uploads. When GITHUB_RUN_ID is set,
# the verify, faults and chaos stages also run a pass seeded by it.
set -euo pipefail
cd "$(dirname "$0")/.."

stages=(checks paper store events-ledger verify faults chaos)
usage() {
    echo "usage: scripts/ci.sh [stage]; stages: ${stages[*]}" >&2
    exit 2
}
case $# in
    0) selected=("${stages[@]}") ;;
    1) [[ " ${stages[*]} " == *" $1 "* ]] || usage; selected=("$1") ;;
    *) usage ;;
esac

eureka() { target/release/eureka "$@"; }
# Runs the CLI with its output appended to log file $1, printing only
# the output's last non-blank line (the suite's verdict).
logged() {
    local log=$1
    shift
    eureka "$@" | tee -a "$log" | awk 'NF { last = $0 } END { print last }'
}
# Runs the CLI and fails unless it exits with status $1.
exits() {
    local want=$1 code=0
    shift
    eureka "$@" 2> /dev/null || code=$?
    [ "$code" -eq "$want" ] || { echo "eureka $*: exit $code, want $want" >&2; exit 1; }
}

stage_checks() {
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    cargo test --workspace
    # These suites once took turns on process-wide metrics, spans and
    # verbosity; each test now reads its own runner's or service's
    # counts and spans. Rerun them with many threads so any order
    # dependence fails here, and rerun the record log's suite (two
    # handles' threads appending to one file) so a lost cross-handle
    # lock fails here too.
    for _ in 1 2 3 4 5; do
        cargo test -q --test events --test fault_tolerance --test runner_equivalence \
            --test service --test store_durability --test telemetry -- --test-threads 16
        cargo test -q -p eureka-obs --lib -- applog:: span:: log:: --test-threads 16
        cargo test -q -p eureka-cli --test run_opts -- --test-threads 16
    done
    # The benchmark harness has its own workspace but calls the
    # service, journal and request APIs, so an API break must fail here
    # too.
    cargo test --release --manifest-path examples/benchmark/Cargo.toml
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo bench --workspace -- --test   # criterion harness smoke (no timing)
    # Paper sampling: tests/golden pins the fast-sampling figures only,
    # so the full fig11 sweep must still match the committed reference.
    eureka figure fig11 --csv --jobs 2 --no-ledger | cmp - examples/benchmark/reference/fig11.csv
    # Telemetry: the trace holds one unit.exec span per unit the same
    # run's --metrics-out says it planned, spread over the worker tracks.
    eureka simulate --benchmark resnet50 --arch eureka-p4 --fast --jobs 4 --no-ledger \
        --trace-out "$out/trace.json" --metrics-out "$out/metrics.json" -v > /dev/null
    python3 scripts/check_trace.py "$out/trace.json" "$out/metrics.json"
    # Profile: the cycle-attribution export is byte-identical across
    # runs (determinism is part of the profiler's contract), and it and
    # the BENCH snapshot are well-formed JSON.
    for run in a b; do
        eureka profile --benchmark mobilenetv1 --arch eureka-p4 --fast --no-ledger \
            --json - > "$out/profile-$run.json"
    done
    cmp "$out/profile-a.json" "$out/profile-b.json"
    python3 -m json.tool "$out/profile-a.json" > /dev/null
    eureka profile --benchmark mobilenetv1 --arch eureka-p4 --fast --no-ledger \
        --bench-json "$out/BENCH_ci.json"
    python3 -m json.tool "$out/BENCH_ci.json" > /dev/null
}

stage_paper() {
    # Every figure at paper sampling: tests/golden's top-level files pin
    # fast sampling, whose smaller sample counts a change can leave
    # alone while it moves paper-scale numbers. reproduce writes each
    # figure's text and CSV, which must equal tests/golden/paper.
    cargo build --release -q -p eureka-bench --bin reproduce
    target/release/reproduce "$out" > "$out/reproduce.log"
    local file
    for file in "$out"/*.txt "$out"/*.csv; do
        [ -e "tests/golden/paper/${file##*/}" ] || { echo "no golden for $file" >&2; exit 1; }
    done
    for file in tests/golden/paper/*; do
        cmp "$file" "$out/${file##*/}"
    done
}

stage_store() {
    # A cold run fills the store; a second run against it replays every
    # unit from its record, executing none, and reports the same bytes.
    local sim=(simulate --benchmark mobilenetv1 --arch eureka-p4 --csv --no-ledger
        --store-dir "$out/tile-store")
    eureka "${sim[@]}" --metrics-out "$out/metrics-cold.json" > "$out/report-cold.csv"
    ls "$out"/tile-store/*.tiles > /dev/null
    eureka "${sim[@]}" --metrics-out "$out/metrics-warm.json" > "$out/report-warm.csv"
    cmp "$out/report-cold.csv" "$out/report-warm.csv"
    ls "$out"/tile-store/*.units > /dev/null
    python3 - "$out/metrics-cold.json" "$out/metrics-warm.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))["counters"]
assert cold["store.misses"] > 0, f"cold run computed nothing: {cold}"
c = json.load(open(sys.argv[2]))["counters"]
assert c["checkpoint.hits"] == c["runner.units_planned"] > 0, c
assert c["runner.units_executed"] == 0, f"warm run executed units: {c}"
assert c["cache.misses"] == 0, f"units escaped the store: {c}"
assert c.get("store.lookups", 0) == 0, f"warm run looked tiles up: {c}"
EOF
    # A four-worker warm fig11 replays every supported unit from the
    # records a four-worker run filled, with the same bytes, and one
    # garbage line appended to the log is exactly one damaged record.
    local fig=(figure fig11 --fast --csv --jobs 4 --no-ledger --store-dir "$out/fig11-store")
    eureka "${fig[@]}" > "$out/fig11-cold.csv"
    eureka "${fig[@]}" --metrics-out "$out/fig11-warm.json" > "$out/fig11-warm.csv"
    cmp "$out/fig11-cold.csv" "$out/fig11-warm.csv"
    echo "garbage" >> "$out/fig11-store/records-v3.units"
    eureka "${fig[@]}" --metrics-out "$out/fig11-damaged.json" > "$out/fig11-damaged.csv"
    cmp "$out/fig11-cold.csv" "$out/fig11-damaged.csv"
    python3 - "$out/fig11-warm.json" "$out/fig11-damaged.json" <<'EOF'
import json, sys
for path, errors in zip(sys.argv[1:], (0, 1)):
    c = json.load(open(path))["counters"]
    assert c["checkpoint.hits"] == 4240 and c["checkpoint.errors"] == errors, (path, c)
EOF
    # The profiler bypasses unit records, so a warm `profile
    # --store-dir` is served by the tile shards alone and its export is
    # byte-identical. `profile` has no --metrics-out; its events say the
    # same per unit: source "store" means every lookup hit
    # (store.misses == 0, store.hits == store.lookups > 0).
    local prof=(profile --benchmark mobilenetv1 --arch eureka-p4 --fast --no-ledger)
    eureka "${prof[@]}" --json "$out/profile-cold.json" > /dev/null
    for run in fill warm; do
        eureka "${prof[@]}" --store-dir "$out/profile-store" \
            --json "$out/profile-$run.json" --events-out "$out/profile-$run.jsonl" > /dev/null
    done
    cmp "$out/profile-cold.json" "$out/profile-warm.json"
    python3 - "$out/profile-warm.jsonl" <<'EOF'
import json, sys
done = [e["det"] for e in map(json.loads, open(sys.argv[1]))
        if e["event"] == "unit-finished"]
assert done and all(d["source"] == "store" for d in done), done
EOF
}

stage_events_ledger() {
    # Run-event stream: every line is schema-valid and the deterministic
    # projection is byte-identical across --jobs 1 and --jobs 4. Reports
    # must be unaffected by streaming events and forcing the reporter on.
    local sim=(simulate --benchmark mobilenetv1 --arch eureka-p4 --fast --csv --no-ledger)
    eureka "${sim[@]}" --jobs 1 --events-out "$out/events-j1.jsonl" > "$out/report-j1.csv"
    eureka "${sim[@]}" --jobs 4 --progress --events-out "$out/events-j4.jsonl" \
        > "$out/report-j4.csv" 2> "$out/progress.log"
    eureka "${sim[@]}" --jobs 4 > "$out/report-plain.csv"
    eureka check events "$out/events-j1.jsonl" "$out/events-j4.jsonl"
    cmp "$out/report-j1.csv" "$out/report-j4.csv"
    cmp "$out/report-j1.csv" "$out/report-plain.csv"
    # A profiled run takes the same drive path, so its event stream's
    # projection is --jobs invariant too.
    for jobs in 1 4; do
        eureka profile --benchmark mobilenetv1 --arch eureka-p4 --fast --jobs "$jobs" \
            --no-ledger --events-out "$out/profile-events-j$jobs.jsonl" > /dev/null
    done
    eureka check events "$out/profile-events-j1.jsonl" "$out/profile-events-j4.jsonl"
    # Run ledger: identical runs append two records to one log, and
    # they diff clean.
    for _ in 1 2; do
        eureka simulate --benchmark mobilenetv1 --arch eureka-p4 --fast \
            --ledger-dir "$out/run-ledger" > /dev/null
    done
    eureka bench list --ledger-dir "$out/run-ledger" | tee "$out/run-ledger.txt"
    grep -qxF '2 record(s)' "$out/run-ledger.txt" || { echo "want 2 ledger records" >&2; exit 1; }
    eureka bench diff "$out/run-ledger/ledger.log#1" "$out/run-ledger/ledger.log#2"
    # Regression gate: the fresh BENCH snapshot stays within threshold
    # of the committed trajectory.
    eureka profile --benchmark mobilenetv1 --arch eureka-p4 --fast --no-ledger \
        --bench-json "$out/bench-fresh.json"
    eureka bench diff results/BENCH_1.json "$out/bench-fresh.json"
    # The BENCH_2 → BENCH_3 step of the committed trajectory (the
    # hot-path overhaul) must stay cycle-clean: modeled results were
    # required to be byte-identical, so even a 2% drift is a bug.
    eureka bench diff results/BENCH_2.json results/BENCH_3.json --max-regress 2
    # An injected 10% cycle regression fires the gate (exit 1) and a
    # missing snapshot is broken wiring (exit 2): CI tells them apart.
    python3 - "$out/bench-fresh.json" "$out/bench-bad.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
for arch in snap["archs"]:
    arch["total_cycles"] = int(arch["total_cycles"] * 1.10)
json.dump(snap, open(sys.argv[2], "w"), separators=(",", ":"))
EOF
    exits 1 bench diff results/BENCH_1.json "$out/bench-bad.json"
    exits 2 bench diff /nonexistent.json /nonexistent.json
}

stage_verify() {
    eureka verify --replay tests/corpus
    # Differential fuzz: dense-GEMM oracle, SUDS brute force,
    # metamorphic invariants. Shrunk failures land in the corpus dir.
    local fuzz=(verify --corpus-dir "$out/fuzz-failures")
    logged "$out/verify.log" "${fuzz[@]}" --cases 200 --seed 42
    if [ -n "${GITHUB_RUN_ID:-}" ]; then
        logged "$out/verify.log" "${fuzz[@]}" --cases 50 --seed "$GITHUB_RUN_ID"
    fi
}

stage_faults() {
    # Seeded fault matrix: panic, error, stall × serial, parallel.
    logged "$out/fault-matrix.log" verify --fault-matrix --seed 42
    if [ -n "${GITHUB_RUN_ID:-}" ]; then
        logged "$out/fault-matrix.log" verify --fault-matrix --seed "$GITHUB_RUN_ID"
    fi
    scripts/resume_smoke.sh | tee -a "$out/fault-matrix.log"
}

stage_chaos() {
    # Service chaos: panics, stalls, crashes, corruption, overload.
    logged "$out/chaos.log" verify --chaos --cases 50 --seed 42
    if [ -n "${GITHUB_RUN_ID:-}" ]; then
        logged "$out/chaos.log" verify --chaos --cases 21 --seed "$GITHUB_RUN_ID"
    fi
    # Socket round trip, metrics scrape, SIGKILL replay, SIGTERM drain;
    # leaves the killed daemon's flight-recorder dump in $out.
    scripts/serve_smoke.sh | tee -a "$out/chaos.log"
}

# No stage may append to the checkout's run ledger: every run passes
# --no-ledger or a --ledger-dir of its own. An append changes a file's
# contents, not its name, so compare checksums.
ledger() { cksum results/ledger/* 2> /dev/null || true; }
ledger_before=$(ledger)
cargo build --release -q -p eureka-cli
for stage in "${selected[@]}"; do
    echo "== ci stage: $stage"
    out=target/ci/$stage
    rm -rf "$out"
    mkdir -p "$out"
    "stage_${stage//-/_}"
    if [ "$(ledger)" != "$ledger_before" ]; then
        echo "ci stage $stage appended to results/ledger" >&2
        exit 1
    fi
done
echo "CI OK"
