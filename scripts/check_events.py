#!/usr/bin/env python3
"""Validate eureka-events-v1 JSONL streams and compare their
deterministic projections.

Usage:
  scripts/check_events.py FILE [FILE ...]     validate every line of every
                                              file; with 2+ files, also
                                              require byte-identical
                                              deterministic projections
  scripts/check_events.py --project FILE      print FILE's deterministic
                                              projection to stdout

The projection mirrors `eureka_obs::events::deterministic_projection`
exactly: per line keep only {"event":...,"det":{...}} (field order
preserved, compact separators, Rust-style string escaping), sort the
projected lines lexicographically, join with newlines. Two runs of the
same plan must agree byte-for-byte on this projection regardless of
`--jobs`; the `wall` object (seq, t_us, jobs, exec_us) is where
legitimate variation lives.
"""

import json
import sys

SCHEMA = "eureka-events-v1"

# Event kinds and their required deterministic fields — a mirror of
# `eureka_obs::events::KINDS`; keep the two tables in sync.
KINDS = {
    "run-started": [],
    "unit-planned": ["unit", "job", "arch", "gemm", "key"],
    "unit-started": ["unit"],
    "unit-finished": ["unit", "source", "ok", "cycles"],
    "retry": ["unit", "attempt", "kind"],
    "failure": ["unit", "kind", "attempts", "payload"],
    "checkpoint-written": ["unit"],
    "store-flush": [],
    "run-finished": ["units", "failures"],
}


def esc(s):
    """String escaping identical to `eureka_obs::json::escape`."""
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def ser(v):
    """Compact serialization identical to `eureka_obs::json::Value::to_json`."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        # Rust re-parses numbers as f64 and prints integral values
        # without a trailing .0; match that.
        return str(int(v)) if v.is_integer() else repr(v)
    if isinstance(v, str):
        return '"%s"' % esc(v)
    if isinstance(v, list):
        return "[%s]" % ",".join(ser(x) for x in v)
    if isinstance(v, dict):
        return "{%s}" % ",".join('"%s":%s' % (esc(k), ser(x)) for k, x in v.items())
    raise TypeError(f"unserializable {type(v)}")


def validate_line(line):
    """Returns the parsed object; raises ValueError on any v1 violation."""
    try:
        v = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"not JSON: {e}") from e
    if not isinstance(v, dict):
        raise ValueError("line is not an object")
    if v.get("schema") != SCHEMA:
        raise ValueError(f"bad or missing schema stamp (want {SCHEMA})")
    kind = v.get("event")
    if kind not in KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    det = v.get("det")
    if not isinstance(det, dict):
        raise ValueError("missing det object")
    for field in KINDS[kind]:
        if field not in det:
            raise ValueError(f"event {kind!r} missing det field {field!r}")
    wall = v.get("wall")
    if not isinstance(wall, dict):
        raise ValueError("missing wall object")
    for field in ("seq", "t_us"):
        if not isinstance(wall.get(field), (int, float)) or isinstance(
            wall.get(field), bool
        ):
            raise ValueError(f"missing numeric wall field {field!r}")
    return v


def check_file(path):
    """Validates one stream; returns its deterministic projection."""
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    projected = []
    seqs = []
    for i, line in enumerate(lines, 1):
        try:
            v = validate_line(line)
        except ValueError as e:
            sys.exit(f"{path}:{i}: {e}")
        seqs.append(v["wall"]["seq"])
        projected.append(ser({"event": v["event"], "det": v["det"]}))
    # The bus assigns seq densely from 0 in emission order.
    if sorted(seqs) != list(range(len(seqs))):
        sys.exit(f"{path}: wall.seq is not a dense 0..{len(seqs) - 1} sequence")
    projected.sort()
    return "\n".join(projected)


def main(argv):
    project = False
    files = []
    for a in argv:
        if a == "--project":
            project = True
        elif a in ("-h", "--help"):
            print(__doc__.strip())
            return 0
        elif a.startswith("-"):
            sys.exit(f"unknown flag {a!r}")
        else:
            files.append(a)
    if not files:
        sys.exit("usage: check_events.py [--project] FILE [FILE ...]")
    projections = [(path, check_file(path)) for path in files]
    if project:
        for _, p in projections:
            print(p)
        return 0
    base_path, base = projections[0]
    for path, p in projections[1:]:
        if p != base:
            a, b = base.splitlines(), p.splitlines()
            for i, (la, lb) in enumerate(zip(a, b), 1):
                if la != lb:
                    sys.exit(
                        f"deterministic projections differ at projected line {i}:\n"
                        f"  {base_path}: {la}\n  {path}: {lb}"
                    )
            sys.exit(
                f"deterministic projections differ in length: "
                f"{base_path} has {len(a)} line(s), {path} has {len(b)}"
            )
    total = sum(len(p.splitlines()) for _, p in projections[:1])
    print(
        f"OK: {len(files)} stream(s) schema-valid"
        + (f", projections identical ({total} events)" if len(files) > 1 else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
