#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes two reduced-size untraced runs and one reduced-size traced run
through perfbench/run.py (which builds the harness first), and checks that

  * every run is correct, attempted at least one operation and failed none;
  * the runs give identical output digests and deterministic counts;
  * the untraced result holds exactly the end_to_end metrics and the
    traced one exactly the per_layer metrics, each with its unit;
  * each run records threads = 1 and the machine's nproc;
  * the traced run's spans cover at least 90% of its timed wall.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: str):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", trace, "--small"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["perfbench_run"]
    return info, result


def check_result(label: str, info: dict, result: dict, expected: list) -> list:
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"{label}: metrics differ: missing {missing} extra {extra} "
                      f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            errors.append(f"{label}: {name} is not a number")
    if info["threads"] != 1 or info["nproc"] != len(os.sched_getaffinity(0)):
        errors.append(f"{label}: threads={info['threads']} nproc={info['nproc']}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        first_info, first = run(workload, "0")
        second_info, second = run(workload, "0")
        traced_info, traced = run(workload, "1")
        errors += check_result(f"{workload} run 1", first_info, first, spec["end_to_end"])
        errors += check_result(f"{workload} run 2", second_info, second, spec["end_to_end"])
        errors += check_result(f"{workload} traced", traced_info, traced, spec["per_layer"])
        for label, info in (("run 2", second_info), ("traced", traced_info)):
            if (info["digest"], info["counts"]) != (first_info["digest"], first_info["counts"]):
                errors.append(f"{workload} {label}: digest/counts differ from run 1: "
                              f"{info['digest']} {info['counts']} vs "
                              f"{first_info['digest']} {first_info['counts']}")
        if not first_info["digest"]:
            errors.append(f"{workload}: empty digest")
        coverage = traced["metrics"].get("trace.coverage", {}).get("value", 0)
        if coverage < 0.9:
            errors.append(f"{workload}: trace.coverage {coverage} < 0.9")
        print(f"{workload}: digest {first_info['digest']} counts {first_info['counts']} "
              f"coverage {coverage:.3f}", flush=True)
    for error in errors:
        print("FAIL", error)
    print("OK" if not errors else f"{len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
