#!/usr/bin/env bash
# Kill-mid-run integration test for checkpoint/resume (docs/ROBUSTNESS.md).
#
# For each case (a checkpointed bench and the figure CSV it checks) and
# each thread count, three runs:
#   full   — uninterrupted, no checkpoint flags (the reference output)
#   crash  — with --checkpoint, hard-aborted mid-sweep via the
#            QUICKSAND_CKPT_ABORT_AFTER fault hook (std::_Exit(42), no
#            destructors — a deterministic SIGKILL stand-in)
#   resume — with --checkpoint --resume in the crash directory, picking up
#            from the snapshot the aborted run left behind
# then asserts the resumed run's outputs are byte-identical to the
# uninterrupted run: bench JSON via check_bench_json.py --compare-resume
# (the full deterministic view, which leaves out only the "run" section —
# including seeded work counters and histograms, which resume replays from
# checkpointed per-shard deltas) and the figure CSV via cmp. Finally the
# uninterrupted --threads 1 and --threads 4 runs must agree: bench JSON via
# check_bench_json.py --compare and the figure CSV via cmp.
#
# Usage: scripts/resume_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  defaults to "build"
#   OUT_DIR    defaults to "resume_smoke_out" (wiped per bench/CSV/thread case)

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=$(cd "${1:-"$repo_root/build"}" && pwd)  # absolute: runs cd around
mkdir -p "${2:-"$repo_root/resume_smoke_out"}"
out_dir=$(cd "${2:-"$repo_root/resume_smoke_out"}" && pwd)
checker="$repo_root/scripts/check_bench_json.py"

# bench binary : figure CSV it writes : shards to record before aborting.
# Each checkpointed sweep has its own writer and shard count: sec2's 5-shard
# policy_sweep never reaches 6, so the second sec2 case dies after the sixth
# of population_distribution's 8 shards, mid-population.
cases=(
  "sec33_asymmetric_gain:sec33_deanon.csv:7"
  "sec2_longterm_guards:sec2_longterm.csv:2"
  "sec2_longterm_guards:sec2_population.csv:6"
  "fault_sweep:fault_sweep.csv:2"
)

for spec in "${cases[@]}"; do
  IFS=: read -r bench csv abort_after <<< "$spec"
  bin="$build_dir/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found — build first:" >&2
    echo "  cmake --build $build_dir -j --target $bench" >&2
    exit 1
  fi

  for threads in 1 4; do
    case_dir="$out_dir/$bench/${csv%.csv}/t$threads"
    rm -rf "$case_dir"
    mkdir -p "$case_dir/full" "$case_dir/crash"
    echo "==> $bench --threads $threads"

    (cd "$case_dir/full" && "$bin" --threads "$threads" \
        --json full.json > full.log)

    set +e
    (cd "$case_dir/crash" && QUICKSAND_CKPT_ABORT_AFTER="$abort_after" \
        "$bin" --threads "$threads" --checkpoint ck \
        --json crash.json > crash.log 2>&1)
    status=$?
    set -e
    if [[ $status -ne 42 ]]; then
      echo "error: expected the aborted run to exit 42, got $status" >&2
      tail -n 20 "$case_dir/crash/crash.log" >&2
      exit 1
    fi

    (cd "$case_dir/crash" && "$bin" --threads "$threads" --checkpoint ck \
        --resume --json resume.json > resume.log)

    python3 "$checker" --compare-resume \
        "$case_dir/full/full.json" "$case_dir/crash/resume.json"
    if ! cmp "$case_dir/full/$csv" "$case_dir/crash/$csv"; then
      echo "error: $csv differs between uninterrupted and resumed runs" >&2
      exit 1
    fi
    echo "    $csv byte-identical after kill+resume"
  done

  full_t1="$out_dir/$bench/${csv%.csv}/t1/full"
  full_t4="$out_dir/$bench/${csv%.csv}/t4/full"
  python3 "$checker" --compare "$full_t1/full.json" "$full_t4/full.json"
  if ! cmp "$full_t1/$csv" "$full_t4/$csv"; then
    echo "error: $csv differs between --threads 1 and --threads 4" >&2
    exit 1
  fi
  echo "    $csv byte-identical at --threads 1 and 4"
done

echo
echo "resume smoke passed: killed-and-resumed sweeps reproduce uninterrupted"
echo "output byte-for-byte at --threads 1 and 4, and the two thread counts agree."
