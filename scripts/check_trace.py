#!/usr/bin/env python3
"""Check a `--trace-out` Chrome trace against the same run's
`--metrics-out` snapshot.

Usage:
  scripts/check_trace.py TRACE METRICS

Checks, using only the Python standard library:
  * TRACE is a JSON array of `ph: "X"` span events and `ph: "M"`
    `thread_name` events, and every span's track is named;
  * the trace holds one `unit.exec` span per planned unit: their count
    equals the `runner.units_planned` counter in METRICS;
  * the `unit.exec` spans sit on at least two tracks, as a run with
    more than one worker spreads them.

Exits non-zero with a pointed message on the first violation.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: check_trace.py TRACE METRICS")
    trace_path, metrics_path = argv[1:]
    with open(trace_path) as f:
        trace = json.load(f)
    with open(metrics_path) as f:
        planned = json.load(f)["counters"]["runner.units_planned"]
    if not isinstance(trace, list):
        sys.exit(f"{trace_path}: a trace is a JSON array")
    named = {e["tid"] for e in trace if e.get("ph") == "M" and e.get("name") == "thread_name"}
    spans = [e for e in trace if e.get("ph") == "X"]
    if len(spans) + len(named) != len(trace):
        sys.exit(f"{trace_path}: events other than spans and track names")
    unnamed = {e["tid"] for e in spans} - named
    if unnamed:
        sys.exit(f"{trace_path}: tracks without a thread_name event: {sorted(unnamed)}")
    units = [e for e in spans if e["name"] == "unit.exec"]
    if len(units) != planned:
        sys.exit(
            f"{trace_path}: {len(units)} unit.exec spans, but runner.units_planned is {planned}"
        )
    tracks = {e["tid"] for e in units}
    if len(tracks) < 2:
        sys.exit(f"{trace_path}: unit.exec spans on {len(tracks)} track, want >= 2")
    print(f"OK: {len(units)} unit.exec spans == runner.units_planned on {len(tracks)} tracks")


if __name__ == "__main__":
    main(sys.argv)
