#!/usr/bin/env bash
# Emit a versioned benchmark snapshot: results/BENCH_<n>.json with the
# next free <n>. The snapshot is the `eureka profile --bench-json`
# record (schema eureka-ledger-v2, kind `bench`): cycles, MAC
# utilization and speedup-vs-dense for the standard arch matrix on one
# benchmark, plus the run's provenance (`git`, `events`, the config
# `key`, `metrics_digest`, `wall_ms`), so successive snapshots
# (committed over time) track simulator drift.
#
# The profile runs twice against one tile-store directory — cold, then
# warm — and the snapshot gains three top-level wall-clock fields:
# `cold_wall_ms`, `warm_wall_ms` and `warm_speedup` (cold/warm), so the
# committed history also tracks what the persistent store buys. The two
# runs' per-arch rows must be byte-identical; the script fails if the
# warm snapshot's rows drift from the cold one's.
#
# The snapshot also records the paired kernel micro-benchmarks from
# `crates/bench/benches/kernels.rs` under a top-level `kernels` object:
# each pair (a scalar reference vs its word-parallel / batched
# replacement) contributes both mean times and the in-pair speedup, so
# committed snapshots track kernel-level deltas alongside the
# end-to-end wall clock.
#
# The cold run's event stream is schema-validated before the snapshot
# is accepted; its event count is the record's `events`.
#
# Usage: scripts/bench_snapshot.sh [--benchmark B] [--arch A] [extra
# `eureka profile` flags...]. Defaults: mobilenetv1 / eureka-p4 / fast
# sampling.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHMARK=mobilenetv1
ARCH=eureka-p4
EXTRA=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --benchmark) BENCHMARK="$2"; shift 2 ;;
        --arch)      ARCH="$2";      shift 2 ;;
        *)           EXTRA+=("$1");  shift ;;
    esac
done

cargo build --release -q -p eureka-cli

mkdir -p results
n=1
while [[ -e "results/BENCH_${n}.json" ]]; do
    n=$((n + 1))
done
out="results/BENCH_${n}.json"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run=(target/release/eureka profile --benchmark "$BENCHMARK" --arch "$ARCH"
     --fast --store-dir "$tmp/store" "${EXTRA[@]+"${EXTRA[@]}"}")

cold_start=$(date +%s%N)
"${run[@]}" --bench-json "$out" --events-out "$tmp/events.jsonl" --no-progress
cold_ns=$(($(date +%s%N) - cold_start))

warm_start=$(date +%s%N)
"${run[@]}" --bench-json "$tmp/warm.json"
warm_ns=$(($(date +%s%N) - warm_start))

# The store must never change results: cold and warm rows are
# byte-identical or the snapshot is not trustworthy.
rows() { grep -o '"archs":\[[^]]*\]' "$1"; }
cmp <(rows "$out") <(rows "$tmp/warm.json")

# A malformed event stream means the run itself is suspect.
target/release/eureka check events "$tmp/events.jsonl"

# Kernel pair micro-benchmarks (scalar reference vs optimized kernel).
cargo bench -q -p eureka-bench --bench kernels -- \
    mask_intersection mac_dot256 > "$tmp/kernels.txt"

python3 - "$out" "$cold_ns" "$warm_ns" "$tmp/kernels.txt" <<'EOF'
import json, re, sys
path, cold_ns, warm_ns = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
kernels_txt = sys.argv[4]

UNIT_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
means = {}
with open(kernels_txt) as f:
    for line in f:
        m = re.match(
            r"(\S+)\s+time: \[\S+ \S+ (\S+) (ns|us|ms|s) ", line)
        if m:
            means[m.group(1)] = float(m.group(2)) * UNIT_US[m.group(3)]

def pair(group, baseline, candidate):
    base = means.get(f"{group}/{baseline}")
    cand = means.get(f"{group}/{candidate}")
    if base is None or cand is None:
        return None
    return {
        f"{baseline}_us": round(base, 3),
        f"{candidate}_us": round(cand, 3),
        "speedup": round(base / cand, 2) if cand else None,
    }

kernels = {
    name: entry
    for name, entry in [
        ("mask_intersection",
         pair("mask_intersection", "scalar_256_rows",
              "word_parallel_256_rows")),
        ("mac_dot256", pair("mac_dot256", "elementwise", "batched")),
    ]
    if entry is not None
}

with open(path) as f:
    snap = json.load(f)
snap["cold_wall_ms"] = round(cold_ns / 1e6, 3)
snap["warm_wall_ms"] = round(warm_ns / 1e6, 3)
snap["warm_speedup"] = round(cold_ns / warm_ns, 3) if warm_ns else None
snap["kernels"] = kernels
with open(path, "w") as f:
    json.dump(snap, f, separators=(",", ":"))
    f.write("\n")
EOF
echo "wrote $out (warm_speedup $(python3 -c "
import json; print(json.load(open('$out'))['warm_speedup'])"))"
