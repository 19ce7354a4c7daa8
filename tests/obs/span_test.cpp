#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "trace_lines.hpp"

namespace quicksand::obs {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

/// Enables span aggregation for one test and restores the disabled
/// default afterwards, so tests sharing the process-global registry
/// cannot leak state into each other.
class SpanRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanRegistry::Global().Reset();
    SpanRegistry::Global().Enable(true);
  }
  void TearDown() override {
    SpanRegistry::Global().Enable(false);
    SpanRegistry::Global().Reset();
  }
};

TEST_F(SpanRegistryTest, AggregatesCallsByName) {
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan span("outer");
  }
  const auto summary = SpanRegistry::Global().Summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].first, "outer");
  EXPECT_EQ(summary[0].second.calls, 3u);
  EXPECT_EQ(summary[0].second.max_depth, 0);
  EXPECT_EQ(summary[0].second.threads, 1u);
}

TEST_F(SpanRegistryTest, SummaryIsNameSorted) {
  { const ScopedSpan span("zeta"); }
  { const ScopedSpan span("alpha"); }
  { const ScopedSpan span("mid"); }
  const auto summary = SpanRegistry::Global().Summary();
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].first, "alpha");
  EXPECT_EQ(summary[1].first, "mid");
  EXPECT_EQ(summary[2].first, "zeta");
}

TEST_F(SpanRegistryTest, NestingAttributesSelfAndDepth) {
  {
    const ScopedSpan outer("outer");
    const ScopedSpan inner("inner");
    // Deterministic busy loop so inner accumulates measurable time.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
  const auto summary = SpanRegistry::Global().Summary();
  ASSERT_EQ(summary.size(), 2u);
  const SpanStats& inner = summary[0].second;
  const SpanStats& outer = summary[1].second;
  EXPECT_EQ(summary[0].first, "inner");
  EXPECT_EQ(inner.max_depth, 1);
  EXPECT_EQ(outer.max_depth, 0);
  // Inner has no children: self == total. Outer's self excludes inner's
  // inclusive time, so it can never exceed total.
  EXPECT_EQ(inner.self_us, inner.total_us);
  EXPECT_LE(outer.self_us, outer.total_us);
  EXPECT_GE(outer.total_us, inner.total_us);
  EXPECT_LE(outer.self_us, outer.total_us - inner.total_us);
}

TEST_F(SpanRegistryTest, DisabledRecordsNothing) {
  SpanRegistry::Global().Enable(false);
  { const ScopedSpan span("ghost"); }
  EXPECT_TRUE(SpanRegistry::Global().Summary().empty());
}

TEST_F(SpanRegistryTest, PoolThreadsAggregateWithoutLoss) {
  constexpr std::size_t kItems = 64;
  exec::ParallelFor(4, kItems, [](std::size_t i) {
    const ScopedSpan span("worker");
    volatile std::uint64_t sink = i;
    for (int k = 0; k < 1000; ++k) sink = sink + static_cast<std::uint64_t>(k);
  });
  const auto summary = SpanRegistry::Global().Summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].second.calls, kItems);
  EXPECT_GE(summary[0].second.threads, 1u);
  EXPECT_LE(summary[0].second.threads, 4u);
}

TEST_F(SpanRegistryTest, CallCountsStableAcrossThreadCounts) {
  // The deterministic slice of a summary — which spans ran, how often,
  // how deep — must not depend on the worker count.
  auto run = [](std::size_t threads) {
    SpanRegistry::Global().Reset();
    exec::ParallelFor(threads, 32, [](std::size_t) {
      const ScopedSpan outer("outer");
      const ScopedSpan inner("inner");
    });
    std::vector<std::pair<std::string, std::pair<std::uint64_t, int>>> view;
    for (const auto& [name, stats] : SpanRegistry::Global().Summary()) {
      view.emplace_back(name, std::make_pair(stats.calls, stats.max_depth));
    }
    return view;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ScopedSpanTrace, EmitsCompleteEventsWithThreadIds) {
  const std::string path = TempPath("quicksand_span_trace.jsonl");
  {
    TraceSink sink(path);
    SetGlobalTrace(&sink);
    const ScopedSpan outer("outer");
    { const ScopedSpan inner("inner"); }
    SetGlobalTrace(nullptr);
  }
  // outer is still open when the sink detaches; only inner was emitted.
  const std::vector<JsonValue> events = test::ReadTraceLines(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("name")->AsString(), "inner");
  EXPECT_EQ(events[0].Find("ph")->AsString(), "X");
  EXPECT_EQ(events[0].Find("depth")->AsInt(), 1);
  EXPECT_GE(events[0].Find("dur")->AsInt(), 0);
  EXPECT_GE(events[0].Find("tid")->AsInt(), 1);
  std::remove(path.c_str());
}

TEST(ScopedSpanTrace, ConcurrentSpansAreSelfContained) {
  // 'X' complete events carry their own duration, so spans closing
  // concurrently on pool threads cannot tear a global begin/end stack.
  const std::string path = TempPath("quicksand_span_trace_mt.jsonl");
  constexpr std::size_t kItems = 48;
  {
    TraceSink sink(path);
    SetGlobalTrace(&sink);
    exec::ParallelFor(4, kItems, [](std::size_t i) {
      const ScopedSpan span("mt", {{"i", std::to_string(i)}});
    });
    SetGlobalTrace(nullptr);
  }
  const std::vector<JsonValue> events = test::ReadTraceLines(path);
  ASSERT_EQ(events.size(), kItems);
  std::set<std::string> seen_args;
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.Find("name")->AsString(), "mt");
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    EXPECT_GE(event.Find("dur")->AsInt(), 0);
    EXPECT_GE(event.Find("tid")->AsInt(), 1);
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->members().size(), 1u);
    seen_args.insert(args->Find("i")->AsString());
  }
  // Every iteration's event arrived exactly once — nothing torn or lost.
  EXPECT_EQ(seen_args.size(), kItems);
  std::remove(path.c_str());
}

TEST(CurrentThreadIdTest, StableAndSmall) {
  const std::uint64_t first = CurrentThreadId();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(CurrentThreadId(), first);
}

}  // namespace
}  // namespace quicksand::obs
