#!/usr/bin/env bash
# Builds the release `eureka` binary and this benchmark, then runs it.
#
#   bash examples/benchmark/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
#   bash examples/benchmark/run.sh --seed N [--traced] [--smoke]   # every workload
#   bash examples/benchmark/run.sh compare <parent.json>... -- <change.json>...
#
# W is fig11-cold, fig11-warm, serve-fresh or serve-hot; --traced is
# --trace 1, the per-layer run; --smoke runs each workload for 5 s. The
# last stdout line is the run's JSON result; everything else goes to
# stderr. Builds go to $CARGO_TARGET_DIR (default: target), run files to
# target/benchmark. The script fails if the run changed `git status`,
# wrote to results/ledger, or left an `eureka serve` running.
set -euo pipefail
cd "$(dirname "$0")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
bin="$CARGO_TARGET_DIR/release"

build() {
    cargo build --offline --release --quiet -p eureka-cli >&2
    cargo build --offline --release --quiet \
        --manifest-path examples/benchmark/Cargo.toml "$@" >&2
}

if [[ "${1:-}" == compare ]]; then
    build --bin benchmark
    exec "$bin/benchmark" "$@"
fi

workloads=(fig11-cold fig11-warm serve-fresh serve-hot)
chosen=() seed="" seconds=15 trace=0
while (($#)); do
    case "$1" in
        --workload) chosen=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --smoke) seconds=5; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[[ -n "$seed" ]] || { echo "run.sh: --seed is required" >&2; exit 2; }
((${#chosen[@]})) || chosen=("${workloads[@]}")
case "$trace" in
    0) runner=benchmark ;;
    1) runner=probe ;;
    *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

build --bin "$runner"

# Hygiene baseline: the repository's status (when this is its work tree)
# and the run ledger, which every invocation keeps away from (--no-ledger).
in_git=0
if [[ "$(git rev-parse --show-toplevel 2>/dev/null)" == "$PWD" ]]; then in_git=1; fi
status_before=$( ((in_git)) && git status --porcelain || true)
ledger_before=$(ls -l results/ledger 2>/dev/null || true)

status=0
for w in "${chosen[@]}"; do
    "$bin/$runner" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --bin "$bin/eureka" || status=$?
done

leftover=()
for cmdline in /proc/[0-9]*/cmdline; do
    args=$(tr '\0' ' ' <"$cmdline" 2>/dev/null) || continue
    if [[ "$args" == *" serve "*"target/benchmark/run-"* ]]; then
        pid=${cmdline#/proc/}
        leftover+=("${pid%/cmdline}")
    fi
done
if ((${#leftover[@]})); then
    echo "run.sh: eureka serve still running (pids ${leftover[*]}); killing" >&2
    kill -9 "${leftover[@]}" 2>/dev/null || true
    for _ in $(seq 100); do
        alive=0
        for pid in "${leftover[@]}"; do [[ -e /proc/$pid ]] && alive=1; done
        ((alive)) || break
        sleep 0.05
    done
    exit 1
fi
if [[ "$(ls -l results/ledger 2>/dev/null || true)" != "$ledger_before" ]]; then
    echo "run.sh: the run wrote to results/ledger" >&2
    exit 1
fi
if ((in_git)) && [[ "$(git status --porcelain)" != "$status_before" ]]; then
    echo "run.sh: the run changed git status:" >&2
    git status --porcelain >&2
    exit 1
fi
exit "$status"
