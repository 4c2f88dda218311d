#!/usr/bin/env bash
# Job-service smoke test over a real Unix socket: a clean
# serve/submit/drain round trip (with a mid-run metrics scrape and a
# stats read), then a SIGKILL mid-lifecycle — the restarted server must
# replay the journaled job and finish it, and the killed server must
# leave a well-formed flight-recorder dump behind — and finally a
# SIGTERM that drains the server gracefully and writes the SLA summary
# plus its run-ledger record.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${EUREKA_BIN:-target/release/eureka}
dir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

serve_args=(serve --socket "$dir/eureka.sock" --journal-dir "$dir/journal"
    --store-dir "$dir/store" --fast
    --metrics-out "$dir/metrics.prom" --flightrec-dir "$dir/flightrec"
    --sla-budget-us 1000000 --ledger-dir "$dir/ledger")
submit_args=(submit --socket "$dir/eureka.sock" --benchmark mobilenetv1
    --arch eureka-p4 --batch 32)

start_server() {
    "$BIN" "${serve_args[@]}" >> "$dir/server.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -S "$dir/eureka.sock" ] && return 0
        sleep 0.05
    done
    echo "server never opened its socket" >&2
    cat "$dir/server.log" >&2
    exit 1
}

# Waits for the per-connection flight-recorder dump to land on disk
# with at least one record of the given kind.
wait_for_flightrec() {
    for _ in $(seq 1 100); do
        if ls "$dir/flightrec"/flightrec-*.jsonl > /dev/null 2>&1 &&
            grep -q "\"kind\":\"$1\"" "$dir/flightrec"/flightrec-*.jsonl; then
            return 0
        fi
        sleep 0.05
    done
    echo "no flight-recorder dump with a $1 record appeared" >&2
    exit 1
}

# --- Round trip: submit --wait completes, drain --shutdown exits. -----
start_server
"$BIN" "${submit_args[@]}" --wait > "$dir/first.json"
grep -q '"status":"completed"' "$dir/first.json"

# Mid-run observability: the Prometheus exposition is rewritten after
# every connection and must validate; the stats verb must report the
# completed job's latency quantiles.
for _ in $(seq 1 100); do
    grep -q "eureka_service_e2e_us_completed_count 1" "$dir/metrics.prom" \
        2>/dev/null && break
    sleep 0.05
done
python3 scripts/check_metrics.py "$dir/metrics.prom" \
    --require eureka_service_served \
    --require eureka_service_completed \
    --require eureka_service_e2e_us_completed
"$BIN" stats --socket "$dir/eureka.sock" > "$dir/stats.txt"
grep -q "completed=1" "$dir/stats.txt"
grep -q "e2e_us" "$dir/stats.txt"
"$BIN" stats --socket "$dir/eureka.sock" --json | grep -q '"latency"'

"$BIN" drain --socket "$dir/eureka.sock" --shutdown > /dev/null
wait "$server_pid" 2>/dev/null || true
server_pid=""
[ ! -S "$dir/eureka.sock" ] || { echo "socket not removed on shutdown" >&2; exit 1; }

# --- SIGKILL: an accepted job survives in the journal and replays, ----
# and the last per-connection flight-recorder dump survives as the
# crashed server's black box.
rm -rf "$dir/flightrec"
start_server
"$BIN" "${submit_args[@]}" > /dev/null   # accepted; maybe still running
wait_for_flightrec job-admitted
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
# The write-ahead record is the durable truth. Its accepted line must
# be in the log whether or not the job finished before the kill landed.
grep -q '^[0-9a-f]\{16\} accepted ' "$dir/journal/journal.log" 2>/dev/null || {
    echo "no accepted journal record survived the SIGKILL" >&2
    exit 1
}
# The dump must be schema-valid, densely sequenced, and its admitted
# jobs must correspond to write-ahead journal records: each admitted
# key is the FNV-1a hash of a spec with a checksummed journal line.
python3 - "$dir" <<'EOF'
import glob, json, sys
dir = sys.argv[1]

def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h

def unescape(s):
    out, chars = [], iter(s)
    for c in chars:
        if c == "\\":
            c = next(chars, "\\")
            c = "\n" if c == "n" else c
        out.append(c)
    return "".join(out)

lines = open(f"{dir}/journal/journal.log", "rb").read().split(b"\n")
assert lines[0] == b"eureka-journal v2", f"bad journal header: {lines[0]!r}"
keys = set()
for line in lines[1:-1]:
    text = line.decode("utf-8")
    checksum, rest = text.split(" ", 1)
    assert int(checksum, 16) == fnv1a64(rest.encode()), f"bad journal line: {text}"
    keys.add(f"{fnv1a64(unescape(rest.split(' ', 1)[1]).encode()):016x}")
dumps = glob.glob(f"{dir}/flightrec/flightrec-*.jsonl")
assert len(dumps) == 1, f"expected one dump, found {dumps}"
records = [json.loads(l) for l in open(dumps[0], encoding="utf-8") if l.strip()]
assert records, "empty flight-recorder dump"
seqs = [r["seq"] for r in records]
assert seqs == list(range(seqs[0], seqs[0] + len(seqs))), "seqs not consecutive"
for r in records:
    assert r["schema"] == "eureka-flightrec-v1", f"bad schema stamp: {r}"
    for field in ("seq", "t_us", "kind", "job", "value"):
        assert field in r, f"missing {field}: {r}"
    if r["kind"] == "job-admitted":
        assert f"{r['value']:016x}" in keys, (
            f"admitted job key {r['value']:016x} has no journal record {keys}")
print(f"flight recorder OK ({len(records)} records)")
EOF
# Kept where the CI chaos stage uploads it from.
mkdir -p target/ci/chaos
cp "$dir/flightrec"/flightrec-*.jsonl target/ci/chaos/flightrec-smoke.jsonl

rm -f "$dir/eureka.sock"  # stale socket from the killed server
start_server
# The restart either replays the unfinished job or finds it already
# journaled terminal; a fresh submit of the same spec must complete
# either way, replaying recorded units instead of recomputing.
"$BIN" "${submit_args[@]}" --wait > "$dir/replayed.json"
grep -q '"status":"completed"' "$dir/replayed.json"

# --- SIGTERM: graceful drain, clean exit, SLA summary + ledger. -------
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
grep -q "serve: drained" "$dir/server.log" || {
    echo "server did not report a graceful drain" >&2
    cat "$dir/server.log" >&2
    exit 1
}
grep -q "sla: budget=1000000us" "$dir/server.log" || {
    echo "server did not print the SLA summary" >&2
    cat "$dir/server.log" >&2
    exit 1
}
grep -q '"kind":"serve"' "$dir/ledger/ledger.log" || {
    echo "no serve record appended to the run ledger" >&2
    exit 1
}
grep -q '"sla_budget_us":1000000' "$dir/ledger/ledger.log" || {
    echo "ledger record is missing the SLA fields" >&2
    exit 1
}

records=$(grep -c '^[0-9a-f]\{16\} v3 ' "$dir/store/records-v3.units" 2>/dev/null || true)
echo "serve smoke OK (${records:-0} unit record(s))"
