#!/usr/bin/env bash
# Emit a versioned benchmark snapshot: results/BENCH_<n>.json with the
# next free <n>. The snapshot records cycles, MAC utilization and
# speedup-vs-dense for the standard arch matrix on one benchmark, so
# successive snapshots (committed over time) track simulator drift.
#
# The profile runs twice against one tile-store directory — cold, then
# warm — and the snapshot gains three top-level wall-clock fields:
# `cold_wall_ms`, `warm_wall_ms` and `warm_speedup` (cold/warm), so the
# committed history also tracks what the persistent store buys. The two
# runs' simulation results must be byte-identical; the script fails if
# the warm snapshot drifts from the cold one.
#
# The snapshot also records the paired kernel micro-benchmarks from
# `crates/bench/benches/kernels.rs` under a top-level `kernels` object:
# each pair (a scalar reference vs its word-parallel / batched
# replacement) contributes both mean times and the in-pair speedup, so
# committed snapshots track kernel-level deltas alongside the
# end-to-end wall clock.
#
# Each snapshot is also stamped with its provenance: `git` (the commit
# the snapshot was taken at), `config_digest` (FNV-1a 64 over the
# benchmark/arch/sampling configuration — two snapshots are comparable
# iff their digests match), and `events` (the number of run-events the
# cold profile emitted, a structural fingerprint of the run shape). The
# cold run's event stream is schema-validated before the snapshot is
# accepted.
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

# The store must never change results: cold and warm snapshots are
# byte-identical or the snapshot is not trustworthy.
cmp "$out" "$tmp/warm.json"

# A malformed event stream means the run itself is suspect.
target/release/eureka check events "$tmp/events.jsonl"

# Kernel pair micro-benchmarks (scalar reference vs optimized kernel).
cargo bench -q -p eureka-bench --bench kernels -- \
    mask_intersection mac_dot256 > "$tmp/kernels.txt"

git_rev=$(git describe --always --dirty 2>/dev/null || echo unknown)
event_count=$(wc -l < "$tmp/events.jsonl")

python3 - "$out" "$cold_ns" "$warm_ns" "$git_rev" "$event_count" \
    "$BENCHMARK" "$ARCH" "$tmp/kernels.txt" <<'EOF'
import json, re, sys
path, cold_ns, warm_ns = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
git_rev, event_count = sys.argv[4], int(sys.argv[5])
benchmark, arch = sys.argv[6], sys.argv[7]
kernels_txt = sys.argv[8]

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
snap["git"] = git_rev
snap["events"] = event_count
# FNV-1a 64 over the run configuration, mirroring the ledger's key
# scheme: snapshots are comparable iff their config digests match.
config = f"{benchmark}|{arch}|fast"
h = 0xcbf29ce484222325
for b in config.encode():
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
snap["config_digest"] = f"{h:016x}"
with open(path, "w") as f:
    json.dump(snap, f, separators=(",", ":"))
    f.write("\n")
EOF
echo "wrote $out (warm_speedup $(python3 -c "
import json; print(json.load(open('$out'))['warm_speedup'])"))"
