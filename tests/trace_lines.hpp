#pragma once

// Reads a TraceSink JSONL file back for assertions: one obs::JsonValue
// object per line, parsed with the project's one JSON reader.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace quicksand::test {

[[nodiscard]] inline std::vector<obs::JsonValue> ReadTraceLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<obs::JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    std::string error;
    std::optional<obs::JsonValue> event = obs::JsonValue::Parse(line, &error);
    EXPECT_TRUE(event.has_value() && event->IsObject()) << error << ": " << line;
    if (event.has_value()) events.push_back(std::move(*event));
  }
  return events;
}

/// The member names of one trace event, in emission order.
[[nodiscard]] inline std::vector<std::string> Keys(const obs::JsonValue& event) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : event.members()) keys.push_back(key);
  return keys;
}

}  // namespace quicksand::test
