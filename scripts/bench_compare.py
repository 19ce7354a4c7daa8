#!/usr/bin/env python3
"""Regression-gate a bench run against a committed baseline document.

Usage:
  bench_compare.py RUN.json --baseline BASELINE.json [options]

Two independent checks, with different severities:

  * Deterministic drift (HARD FAIL): the deterministic views of the two
    documents (check_bench_json.py: top-level counters, gauges and
    histograms, comparison rows, results — never the "run" section)
    must be identical. A drift here means the experiment's *output* changed —
    a correctness regression, never noise — so it always exits 1.

  * Wall-time regressions (WARN by default): each phase present in both
    documents, plus total_wall_ms, is compared as run/baseline. A phase
    is flagged when the ratio exceeds --max-wall-ratio AND the absolute
    growth exceeds --min-wall-ms (the floor keeps sub-millisecond
    phases from tripping the ratio on scheduler jitter). Machines and
    loads differ, so flags are warnings unless --fail-on-wall is given
    (CI does that only on dedicated runners).

The baselines are committed under bench/baselines/; regenerating one is
a reviewed change to the repository, so the gate always compares against
a known build.

Exit codes: 0 clean (or wall warnings without --fail-on-wall),
1 deterministic drift / wall breach with --fail-on-wall / no baseline,
2 usage errors.
"""

import argparse
import sys

from check_bench_json import CheckError, deterministic_view, diff, load, validate


def wall_entries(doc):
    """(name, wall_ms) pairs: each phase, then the run total."""
    entries = [(p["name"], p["wall_ms"]) for p in doc["phases"]]
    entries.append(("total", doc["total_wall_ms"]))
    return entries


def compare_wall(run, baseline, max_ratio, min_ms):
    """Yields (name, base_ms, run_ms, ratio) for every breached budget."""
    base_by_name = dict(wall_entries(baseline))
    for name, run_ms in wall_entries(run):
        base_ms = base_by_name.get(name)
        if base_ms is None:
            continue
        grew_ms = run_ms - base_ms
        ratio = run_ms / base_ms if base_ms > 0 else float("inf")
        if ratio > max_ratio and grew_ms > min_ms:
            yield name, base_ms, run_ms, ratio


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", help="bench JSON produced by this build")
    parser.add_argument("--baseline", required=True,
                        help="baseline bench JSON")
    parser.add_argument("--max-wall-ratio", type=float, default=1.5,
                        help="flag a phase when run/baseline exceeds this "
                             "(default: 1.5)")
    parser.add_argument("--min-wall-ms", type=float, default=50.0,
                        help="...and the absolute growth exceeds this many "
                             "ms (default: 50)")
    parser.add_argument("--fail-on-wall", action="store_true",
                        help="exit 1 on wall-time breaches instead of warning")
    args = parser.parse_args(argv)

    run = load(args.run)
    validate(run, args.run)
    baseline = load(args.baseline)
    baseline_origin = args.baseline
    validate(baseline, baseline_origin)

    drift = list(diff(deterministic_view(baseline), deterministic_view(run)))
    if drift:
        print(f"DRIFT: {args.run} diverges from {baseline_origin} on "
              "deterministic fields:", file=sys.stderr)
        for line in drift[:50]:
            print(f"  {line}", file=sys.stderr)
        return 1

    breaches = list(compare_wall(run, baseline, args.max_wall_ratio,
                                 args.min_wall_ms))
    for name, base_ms, run_ms, ratio in breaches:
        print(f"WALL: phase {name!r} took {run_ms:.1f} ms vs baseline "
              f"{base_ms:.1f} ms ({ratio:.2f}x > {args.max_wall_ratio:.2f}x "
              f"budget)", file=sys.stderr)
    if breaches and args.fail_on_wall:
        return 1

    verdict = "no deterministic drift"
    verdict += (f"; {len(breaches)} wall-time warning(s)" if breaches
                else "; wall times within budget")
    print(f"OK: {args.run} vs {baseline_origin}: {verdict}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except CheckError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
    except OSError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
