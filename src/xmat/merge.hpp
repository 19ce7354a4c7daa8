#pragma once

// Matrix merge: per-cell quicksand-bench-v1 summaries → one
// quicksand-xmat-v1 document plus an aligned summary table.
//
// The merged document is built *only* from deterministic cell content —
// the cells' "results" and "comparisons" sections and their seeded
// top-level counters/gauges, never the "run" section or a wall-clock field
// (the same view scripts/check_bench_json.py compares). That makes the
// merge the proof
// artifact of the crash-safety contract: a matrix that was SIGKILLed and
// resumed merges byte-identically to one that ran uninterrupted.
//
// Quarantined cells are never silently dropped: they appear in a "gaps"
// array with their coordinates, attempt count, and last failure, and the
// summary table carries a QUARANTINED row — a sweep with holes *looks*
// like a sweep with holes.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "xmat/config.hpp"
#include "xmat/manifest.hpp"

namespace quicksand::xmat {

/// Merge output: the document plus the counts the caller reports.
struct MergeResult {
  obs::JsonValue document;  ///< the quicksand-xmat-v1 object
  std::string table;        ///< rendered per-cell summary table
  std::size_t merged = 0;   ///< cells with results in the document
  std::size_t gaps = 0;     ///< quarantined / missing cells reported as gaps
};

/// Merges the matrix under `out_dir` (as laid out by RunMatrix). The
/// manifest is re-loaded from its journal, so merging works on a freshly
/// resumed tree or long after the runner exited. Throws
/// std::runtime_error if the manifest is missing/foreign or a *done*
/// cell's JSON is missing, unparseable or has no "run" section (a done
/// cell without a summary is corruption, not a gap).
[[nodiscard]] MergeResult MergeMatrix(const MatrixConfig& config,
                                      const std::string& out_dir);

/// Writes `result` to `<out_dir>/matrix.json` (atomic) and the table to
/// `<out_dir>/matrix_summary.txt`. Returns the JSON path.
std::string WriteMergedMatrix(const MergeResult& result, const std::string& out_dir);

}  // namespace quicksand::xmat
