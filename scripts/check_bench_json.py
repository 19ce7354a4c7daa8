#!/usr/bin/env python3
"""Validate quicksand-bench-v1 JSON documents, or compare two for determinism.

Usage:
  check_bench_json.py FILE [FILE...]          validate each document
  check_bench_json.py --compare A.json B.json assert the deterministic parts
                                              of two runs are identical
  check_bench_json.py --compare-resume UNINTERRUPTED.json RESUMED.json
                                              same assertion between an
                                              uninterrupted run and a
                                              killed-and-resumed run

Validation checks the schema tag, the presence and types of every
top-level field, and the internal shape of phases, metric maps (top
level and in "run"), histograms, and comparison rows.

Every metric declares where it is registered whether two runs of one
seed must agree on it (obs::Stability, docs/OBSERVABILITY.md). Seeded
metrics fill the top-level "counters"/"gauges"/"histograms"; run-shaped
ones (thread-pool, checkpoint, streaming-feed, codec, profiler, daemon
and population telemetry, retry backoff) fill the "run" section's
maps of the same names. Comparison ignores everything that is allowed to
vary between runs of the same seed: per-phase wall times, total_wall_ms,
the top-level "threads" field and the "run" section. Everything else,
including every top-level counter, gauge and histogram, comparison row,
and result value, must match exactly.

--profile runs exactly the code an unprofiled run does and adds one
optional section, "spans" (per-span-name aggregates), validated when
present and left out of the deterministic view, so a plain run and a
--profile run of one seed compare equal.

--compare-resume applies the same deterministic view and additionally
asserts that the second document came from a run that really resumed
from a snapshot (run.counters contain a positive
ckpt.resume.shards_loaded). Without that guard, a rejected snapshot
silently falling back to a fresh run would make the comparison pass
without exercising resume at all. Seeded counters and histograms are
compared exactly even though a resumed process performs less work:
checkpoint shards carry the deltas of the work they recorded, and resume
replays them (see src/ckpt/sweep.hpp).
"""

import json
import math
import sys

SCHEMA = "quicksand-bench-v1"

REQUIRED = {
    "schema": str,
    "experiment": str,
    "claim": str,
    "phases": list,
    "total_wall_ms": (int, float),
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "run": dict,
    "comparisons": list,
    "results": dict,
}


class CheckError(Exception):
    pass


def fail(msg):
    raise CheckError(msg)


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_metrics(metrics, origin):
    """Checks one {"counters", "gauges", "histograms"} set."""
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"{origin}: counter '{name}' is not a non-negative integer")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{origin}: gauge '{name}' is not an integer")

    for name, hist in metrics["histograms"].items():
        if not isinstance(hist, dict):
            fail(f"{origin}: histogram '{name}' is not an object")
        for key in ("count", "sum", "buckets"):
            if key not in hist:
                fail(f"{origin}: histogram '{name}' missing '{key}'")
        if not isinstance(hist["count"], int) or hist["count"] < 0:
            fail(f"{origin}: histogram '{name}'.count is not a non-negative integer")
        if not is_number(hist["sum"]):
            fail(f"{origin}: histogram '{name}'.sum is not a number")
        if not isinstance(hist["buckets"], list) or not hist["buckets"]:
            fail(f"{origin}: histogram '{name}'.buckets is not a non-empty array")
        total = 0
        for j, bucket in enumerate(hist["buckets"]):
            # le is a finite upper bound, or null for the +inf overflow bucket.
            if bucket.get("le") is not None and not is_number(bucket["le"]):
                fail(f"{origin}: histogram '{name}'.buckets[{j}].le is invalid")
            if not isinstance(bucket.get("count"), int) or bucket["count"] < 0:
                fail(f"{origin}: histogram '{name}'.buckets[{j}].count is invalid")
            total += bucket["count"]
        if hist["buckets"][-1]["le"] is not None:
            fail(f"{origin}: histogram '{name}' last bucket is not the overflow bucket")
        if total != hist["count"]:
            fail(f"{origin}: histogram '{name}' bucket counts sum to {total}, "
                 f"count says {hist['count']}")


def validate(doc, origin):
    if not isinstance(doc, dict):
        fail(f"{origin}: top level is not an object")
    for key, kind in REQUIRED.items():
        if key not in doc:
            fail(f"{origin}: missing required key '{key}'")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            fail(f"{origin}: '{key}' has wrong type {type(doc[key]).__name__}")
    if doc["schema"] != SCHEMA:
        fail(f"{origin}: schema is '{doc['schema']}', expected '{SCHEMA}'")

    for i, phase in enumerate(doc["phases"]):
        if not isinstance(phase, dict):
            fail(f"{origin}: phases[{i}] is not an object")
        if not isinstance(phase.get("name"), str):
            fail(f"{origin}: phases[{i}].name is not a string")
        if not is_number(phase.get("wall_ms")):
            fail(f"{origin}: phases[{i}].wall_ms is not a number")

    validate_metrics(doc, origin)
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(doc["run"].get(key), dict):
            fail(f"{origin}: 'run.{key}' is not an object")
    validate_metrics(doc["run"], f"{origin} (run)")

    for i, row in enumerate(doc["comparisons"]):
        if not isinstance(row, dict):
            fail(f"{origin}: comparisons[{i}] is not an object")
        for key in ("metric", "paper", "measured"):
            if not isinstance(row.get(key), str):
                fail(f"{origin}: comparisons[{i}].{key} is not a string")

    if "spans" in doc:
        if not isinstance(doc["spans"], dict):
            fail(f"{origin}: 'spans' is not an object")
        for name, span in doc["spans"].items():
            if not isinstance(span, dict):
                fail(f"{origin}: span '{name}' is not an object")
            for key in ("calls", "max_depth", "threads"):
                value = span.get(key)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    fail(f"{origin}: span '{name}'.{key} is not a non-negative integer")
            for key in ("total_ms", "self_ms"):
                if not is_number(span.get(key)):
                    fail(f"{origin}: span '{name}'.{key} is not a number")


def deterministic_view(doc):
    """The subset of a document that must be identical across same-seed runs."""
    return {
        "experiment": doc["experiment"],
        "claim": doc["claim"],
        "phase_names": [p["name"] for p in doc["phases"]],
        "counters": doc["counters"],
        "gauges": doc["gauges"],
        "histograms": doc["histograms"],
        "comparisons": doc["comparisons"],
        "results": doc["results"],
    }


def diff(a, b, path=""):
    """Yield human-readable differences between two deterministic views."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                yield f"{sub}: only in second run"
            elif key not in b:
                yield f"{sub}: only in first run"
            else:
                yield from diff(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} vs {len(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from diff(x, y, f"{path}[{i}]")
    else:
        equal = (
            math.isclose(a, b, rel_tol=0.0, abs_tol=0.0)
            if is_number(a) and is_number(b)
            else a == b
        )
        if not equal:
            yield f"{path}: {a!r} vs {b!r}"


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path}: {exc}") from exc


def main(argv):
    if len(argv) >= 1 and argv[0] in ("--compare", "--compare-resume"):
        mode = argv[0]
        if len(argv) != 3:
            print(f"usage: check_bench_json.py {mode} A.json B.json",
                  file=sys.stderr)
            return 2
        a_path, b_path = argv[1], argv[2]
        a, b = load(a_path), load(b_path)
        validate(a, a_path)
        validate(b, b_path)
        if mode == "--compare-resume":
            loaded = b["run"]["counters"].get("ckpt.resume.shards_loaded", 0)
            if not isinstance(loaded, int) or loaded <= 0:
                print(f"FAIL: {b_path} did not resume from a snapshot "
                      f"(ckpt.resume.shards_loaded={loaded!r}); a rejected "
                      "snapshot falls back to a fresh run, which would make "
                      "this comparison vacuous", file=sys.stderr)
                return 1
        differences = list(diff(deterministic_view(a), deterministic_view(b)))
        if differences:
            print(f"NONDETERMINISTIC: {a_path} vs {b_path}", file=sys.stderr)
            for line in differences[:50]:
                print(f"  {line}", file=sys.stderr)
            return 1
        suffix = (" (resumed run replayed checkpointed work)"
                  if mode == "--compare-resume" else "")
        print(f"OK: {a_path} and {b_path} agree on all deterministic fields"
              f"{suffix}")
        return 0

    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv:
        validate(load(path), path)
        print(f"OK: {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except CheckError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
