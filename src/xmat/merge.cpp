#include "xmat/merge.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "xmat/runner.hpp"

namespace quicksand::xmat {

namespace {

[[nodiscard]] obs::JsonValue LoadCellDocument(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    throw std::runtime_error("merge: cannot open cell summary " + path);
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  std::string error;
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(buffer.str(), &error);
  if (!doc.has_value()) {
    throw std::runtime_error("merge: cell summary " + path +
                             " is not valid JSON (" + error + ")");
  }
  if (const obs::JsonValue* schema = doc->Find("schema");
      schema == nullptr || schema->AsString() != "quicksand-bench-v1") {
    throw std::runtime_error("merge: cell summary " + path +
                             " is not a quicksand-bench-v1 document");
  }
  // A summary without the run section predates the stability split: its
  // top-level maps still hold run-shaped metrics the merge must not copy.
  if (const obs::JsonValue* run = doc->Find("run"); run == nullptr || !run->IsObject()) {
    throw std::runtime_error("merge: cell summary " + path +
                             " has no \"run\" metrics section (written by an older "
                             "bench binary; rerun the cell)");
  }
  return std::move(*doc);
}

[[nodiscard]] obs::JsonValue CoordinatesJson(const Cell& cell) {
  obs::JsonValue coordinates = obs::JsonValue::Object();
  for (const auto& [name, value] : cell.coordinates) {
    coordinates.Set(name, value);
  }
  return coordinates;
}

/// A short headline for the summary table: results[summary_key] when
/// configured and present, otherwise the cell's status detail.
[[nodiscard]] std::string Headline(const obs::JsonValue& results,
                                   const std::string& summary_key) {
  if (summary_key.empty()) return "-";
  const obs::JsonValue* value = results.Find(summary_key);
  if (value == nullptr) return "-";
  std::string dumped = value->Dump();
  if (!dumped.empty() && dumped.back() == '\n') dumped.pop_back();
  return dumped;
}

}  // namespace

MergeResult MergeMatrix(const MatrixConfig& config, const std::string& out_dir) {
  const Manifest manifest =
      Manifest::Load(ManifestPath(out_dir), config.fingerprint, config.CellCount());
  const std::vector<Cell> cells = ExpandCells(config);

  MergeResult result;
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("schema", "quicksand-xmat-v1");
  doc.Set("bench", config.bench);

  obs::JsonValue axes = obs::JsonValue::Object();
  for (const Axis& axis : config.axes) {
    obs::JsonValue values = obs::JsonValue::Array();
    for (const std::string& value : axis.values) values.Append(value);
    axes.Set(axis.name, std::move(values));
  }
  doc.Set("axes", std::move(axes));

  obs::JsonValue merged_cells = obs::JsonValue::Array();
  obs::JsonValue gaps = obs::JsonValue::Array();

  std::vector<std::string> headers = {"cell"};
  for (const Axis& axis : config.axes) headers.push_back(axis.name);
  headers.push_back("status");
  headers.push_back(config.summary_key.empty() ? "detail" : config.summary_key);
  util::Table table(headers);

  for (const Cell& cell : cells) {
    const CellStatus& status = manifest.Status(cell.index);
    std::vector<std::string> row = {cell.id};
    for (const auto& [name, value] : cell.coordinates) row.push_back(value);

    if (status.state == CellState::kDone) {
      const obs::JsonValue cell_doc =
          LoadCellDocument(CellJsonPath(out_dir, cell));
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("id", cell.id);
      entry.Set("coordinates", CoordinatesJson(cell));
      entry.Set("status", "done");
      obs::JsonValue results = obs::JsonValue::Object();
      if (const obs::JsonValue* cell_results = cell_doc.Find("results");
          cell_results != nullptr && cell_results->IsObject()) {
        results = *cell_results;
      }
      row.push_back("done");
      row.push_back(Headline(results, config.summary_key));
      entry.Set("results", std::move(results));
      if (const obs::JsonValue* comparisons = cell_doc.Find("comparisons");
          comparisons != nullptr && comparisons->IsArray()) {
        entry.Set("comparisons", *comparisons);
      }
      // The seeded maps only: the run section is never merged.
      for (const char* section : {"counters", "gauges"}) {
        const obs::JsonValue* metrics = cell_doc.Find(section);
        const bool present = metrics != nullptr && metrics->IsObject();
        entry.Set(section, present ? *metrics : obs::JsonValue::Object());
      }
      merged_cells.Append(std::move(entry));
      ++result.merged;
    } else {
      // Anything not done at merge time is an explicit gap. (After a
      // completed run that can only be quarantined cells; merging a
      // half-run tree also surfaces pending/failed ones rather than
      // pretending the sweep covered them.)
      obs::JsonValue gap = obs::JsonValue::Object();
      gap.Set("id", cell.id);
      gap.Set("coordinates", CoordinatesJson(cell));
      gap.Set("status", ToString(status.state));
      gap.Set("attempts", status.attempts);
      gap.Set("last_error", status.detail.empty() ? "-" : status.detail);
      gaps.Append(std::move(gap));
      ++result.gaps;
      row.push_back(ToString(status.state));
      row.push_back(status.detail.empty() ? "-" : status.detail);
    }
    table.AddRow(std::move(row));
  }

  doc.Set("cells", std::move(merged_cells));
  doc.Set("gaps", std::move(gaps));
  obs::JsonValue totals = obs::JsonValue::Object();
  totals.Set("cells", static_cast<std::int64_t>(cells.size()));
  totals.Set("merged", static_cast<std::int64_t>(result.merged));
  totals.Set("gaps", static_cast<std::int64_t>(result.gaps));
  doc.Set("totals", std::move(totals));

  result.document = std::move(doc);
  result.table = table.Render();
  return result;
}

std::string WriteMergedMatrix(const MergeResult& result, const std::string& out_dir) {
  const std::string json_path = out_dir + "/matrix.json";
  util::WriteFileAtomic(json_path, result.document.Dump(2));
  util::WriteFileAtomic(out_dir + "/matrix_summary.txt", result.table);
  return json_path;
}

}  // namespace quicksand::xmat
