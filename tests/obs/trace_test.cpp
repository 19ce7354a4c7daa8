#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace_lines.hpp"

namespace quicksand::obs {
namespace {

using test::Keys;
using test::ReadTraceLines;
using Names = std::vector<std::string>;

/// Temp-file path helper; removes the file on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) {
    path = std::string(::testing::TempDir()) + name;
  }
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(TraceSink, CompleteEventsRoundTrip) {
  TempPath tmp("quicksand_trace_complete.jsonl");
  {
    TraceSink sink(tmp.path);
    sink.Complete("span \"quoted\"", /*dur_us=*/1234, /*depth=*/2, /*tid=*/3,
                  {{"key", "line1\nline2"}, {"n", "42"}});
    sink.Complete("plain", /*dur_us=*/0, /*depth=*/0, /*tid=*/0);
  }
  const std::vector<JsonValue> events = ReadTraceLines(tmp.path);
  ASSERT_EQ(events.size(), 2u);
  const JsonValue& span = events[0];
  EXPECT_EQ(span.Find("name")->AsString(), "span \"quoted\"");
  EXPECT_EQ(span.Find("ph")->AsString(), "X");
  EXPECT_EQ(span.Find("depth")->AsInt(), 2);
  EXPECT_EQ(span.Find("dur")->AsInt(), 1234);
  EXPECT_EQ(span.Find("tid")->AsInt(), 3);
  ASSERT_NE(span.Find("args"), nullptr);
  EXPECT_EQ(span.Find("args")->Find("key")->AsString(), "line1\nline2");
  EXPECT_EQ(span.Find("args")->Find("n")->AsString(), "42");
  // The event's ts is its start: emission time minus duration.
  EXPECT_GE(events[1].Find("ts")->AsInt(), span.Find("ts")->AsInt());
  // dur is always serialized for 'X' events; tid only when attributed.
  EXPECT_EQ(Keys(events[1]), (Names{"name", "ph", "ts", "depth", "dur"}));
}

TEST(TraceSink, NonSpanJsonlOmitsDurAndTid) {
  // Instants carry no dur or tid keys and sit at depth 0.
  TempPath tmp("quicksand_trace_instant.jsonl");
  {
    TraceSink sink(tmp.path);
    sink.Instant("tick", {{"rss_kb", "7"}});
    sink.Instant("bare");
  }
  const std::vector<JsonValue> events = ReadTraceLines(tmp.path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(Keys(events[0]), (Names{"name", "ph", "ts", "depth", "args"}));
  EXPECT_EQ(events[0].Find("ph")->AsString(), "i");
  EXPECT_EQ(events[0].Find("depth")->AsInt(), 0);
  EXPECT_EQ(events[0].Find("args")->Find("rss_kb")->AsString(), "7");
  EXPECT_EQ(Keys(events[1]), (Names{"name", "ph", "ts", "depth"}));
}

TEST(TraceSink, StreamsJsonlToFile) {
  TempPath tmp("quicksand_trace_test.jsonl");
  {
    TraceSink sink(tmp.path);
    sink.Instant("first");
    sink.Complete("second", /*dur_us=*/5, /*depth=*/0, /*tid=*/1);
  }
  const std::vector<JsonValue> events = ReadTraceLines(tmp.path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("name")->AsString(), "first");
  EXPECT_EQ(events[1].Find("name")->AsString(), "second");
  EXPECT_EQ(events[1].Find("ph")->AsString(), "X");
}

TEST(TraceSink, UnopenablePathThrows) {
  EXPECT_THROW(TraceSink("/nonexistent-dir/trace.jsonl"), std::runtime_error);
}

TEST(GlobalTraceSink, InstallAndClear) {
  TempPath tmp("quicksand_trace_global.jsonl");
  EXPECT_EQ(GlobalTrace(), nullptr);
  {
    TraceSink sink(tmp.path);
    SetGlobalTrace(&sink);
    EXPECT_EQ(GlobalTrace(), &sink);
    // The sink's destructor clears the global pointer it owns.
  }
  EXPECT_EQ(GlobalTrace(), nullptr);
}

}  // namespace
}  // namespace quicksand::obs
