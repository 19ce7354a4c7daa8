// End-to-end graceful degradation: the collector → analysis pipeline run
// through every fault choke point at once must not crash, must account
// for every record it drops, and must stay deterministic across thread
// counts (the acceptance contract of docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/mrt.hpp"
#include "bgp/topology_gen.hpp"
#include "core/monitor.hpp"
#include "fault/injector.hpp"
#include "record_fixture.hpp"

namespace quicksand::fault {
namespace {

struct SmallWorld {
  bgp::Topology topology;
  bgp::CollectorSet collectors;
  bgp::GeneratedDynamics dynamics;
};

SmallWorld MakeSmallWorld(std::int64_t window_s) {
  SmallWorld world;
  bgp::TopologyParams tp;
  tp.tier1_count = 3;
  tp.transit_count = 12;
  tp.eyeball_count = 15;
  tp.hosting_count = 6;
  tp.content_count = 10;
  tp.seed = 17;
  world.topology = bgp::GenerateTopology(tp);
  bgp::CollectorParams cp;
  cp.collector_count = 2;
  cp.sessions_per_collector = 6;
  cp.seed = 18;
  world.collectors = bgp::CollectorSet::Create(world.topology, cp);
  bgp::DynamicsParams dp;
  dp.window = window_s;
  dp.seed = 19;
  world.dynamics = bgp::GenerateDynamics(world.topology, world.collectors, dp);
  return world;
}

/// The full faulted pipeline, on one table from the parse on, as
/// fault_sweep runs it: text faults → lenient ParseStream → delivery
/// faults (PerturbRecords) → sanitizer → churn analysis.
struct PipelineRun {
  bgp::mrt::ParseStats parse_stats;
  StreamFaultStats stream_stats;
  std::vector<bgp::BgpUpdate> sanitized;
  std::size_t churn_dropped = 0;
  std::vector<std::pair<bgp::SessionPrefixKey, bgp::SessionPrefixChurn>> entries;
};

PipelineRun RunPipeline(const SmallWorld& world, const FaultInjector& injector,
                        std::size_t threads) {
  PipelineRun run;
  test::RecordFixture fx;
  std::vector<bgp::feed::UpdateRec> rib = fx.Recs(world.dynamics.initial_rib);
  const FaultedText faulted_text =
      injector.CorruptText(bgp::mrt::ToText(world.dynamics.updates));
  bgp::mrt::ParseStreamOptions parse_options;
  parse_options.lenient = true;
  parse_options.stats = std::make_shared<bgp::mrt::ParseStats>();
  bgp::feed::UpdateStream parsed =
      bgp::mrt::ParseStream(fx.table(), faulted_text.text, parse_options);
  FaultedRecords stream = injector.PerturbRecords(rib, bgp::feed::Drain(parsed));
  run.parse_stats = *parse_options.stats;
  run.stream_stats = stream.stats;
  bgp::SanitizedRecords clean = bgp::SanitizeRecords(rib, std::move(stream.updates));
  run.sanitized = fx.Updates(clean.updates);
  bgp::ChurnParams churn_params;
  churn_params.window_end_s = injector.plan().window_s;
  const bgp::ChurnAnalyzer analyzer = bgp::AnalyzeChurnStream(
      bgp::feed::FromRecords(fx.table(), std::move(rib)),
      bgp::feed::FromRecords(fx.table(), std::move(clean.updates)), churn_params,
      threads);
  run.churn_dropped = analyzer.DroppedOutOfOrder();
  run.entries.assign(analyzer.entries().begin(), analyzer.entries().end());
  return run;
}

constexpr std::int64_t kWindow = 3 * 86400;

TEST(Degradation, FaultedPipelineRunsToCompletionAndAccounts) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const FaultInjector injector(FaultPlan::Scaled(0.05, 4242, kWindow));
  const PipelineRun run = RunPipeline(world, injector, 1);

  // Lenient parsing accounts for every line.
  EXPECT_GT(run.parse_stats.bad_lines, 0u);
  EXPECT_EQ(run.parse_stats.parsed + run.parse_stats.bad_lines,
            run.parse_stats.total_lines);
  // Delivery faults account for every update.
  EXPECT_EQ(run.stream_stats.output_updates + run.stream_stats.dropped(),
            run.stream_stats.input_updates + run.stream_stats.resync_injected);
  // Analysis produced results despite the damage.
  EXPECT_FALSE(run.entries.empty());
}

TEST(Degradation, FaultedPipelineIsIdenticalAcrossThreadCounts) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const FaultInjector injector(FaultPlan::Scaled(0.05, 4242, kWindow));
  const PipelineRun serial = RunPipeline(world, injector, 1);
  const PipelineRun parallel = RunPipeline(world, injector, 4);
  EXPECT_EQ(serial.sanitized, parallel.sanitized);
  EXPECT_EQ(serial.churn_dropped, parallel.churn_dropped);
  ASSERT_EQ(serial.entries.size(), parallel.entries.size());
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_EQ(serial.entries[i].first, parallel.entries[i].first);
    EXPECT_EQ(serial.entries[i].second.path_changes,
              parallel.entries[i].second.path_changes);
    EXPECT_EQ(serial.entries[i].second.qualifying_extra_ases,
              parallel.entries[i].second.qualifying_extra_ases);
  }
}

TEST(Degradation, FaultedPipelineIsRepeatable) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const FaultInjector injector(FaultPlan::Scaled(0.03, 777, kWindow));
  const PipelineRun first = RunPipeline(world, injector, 2);
  const PipelineRun second = RunPipeline(world, injector, 2);
  EXPECT_EQ(first.sanitized, second.sanitized);
  EXPECT_EQ(first.parse_stats.bad_lines, second.parse_stats.bad_lines);
  EXPECT_EQ(first.stream_stats.dropped(), second.stream_stats.dropped());
}

TEST(Degradation, ZeroRatePipelineMatchesInjectorFreeRun) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const FaultInjector injector(FaultPlan::Scaled(0.0, 4242, kWindow));
  const PipelineRun faulted = RunPipeline(world, injector, 1);

  // The same pipeline without any injector in the loop.
  const auto parsed = bgp::mrt::ParseText(bgp::mrt::ToText(world.dynamics.updates));
  test::RecordFixture fx;
  const std::vector<bgp::feed::UpdateRec> rib = fx.Recs(world.dynamics.initial_rib);
  const bgp::SanitizedRecords clean = bgp::SanitizeRecords(rib, fx.Recs(parsed));
  EXPECT_EQ(faulted.sanitized, fx.Updates(clean.updates));
  EXPECT_EQ(faulted.parse_stats.bad_lines, 0u);
  EXPECT_EQ(faulted.stream_stats.dropped(), 0u);
  EXPECT_EQ(faulted.churn_dropped, 0u);
}

TEST(Degradation, ChurnAnalyzerDropsOutOfOrderInsteadOfCorrupting) {
  bgp::ChurnAnalyzer analyzer;
  const auto mk = [](std::int64_t t, const char* path) {
    return bgp::BgpUpdate{netbase::SimTime{t}, 0, bgp::UpdateType::kAnnounce,
                          netbase::Prefix::MustParse("10.0.0.0/8"),
                          bgp::AsPath::MustParse(path)};
  };
  test::RecordFixture fx;
  fx.Feed(analyzer, mk(100, "1 2"));
  fx.Feed(analyzer, mk(500, "1 3"));
  fx.Feed(analyzer, mk(200, "1 2"));  // late straggler: dropped, not fatal
  fx.Feed(analyzer, mk(600, "1 2"));
  EXPECT_EQ(analyzer.DroppedOutOfOrder(), 1u);
  analyzer.Finish();
  const auto& entries = analyzer.entries();
  ASSERT_EQ(entries.size(), 1u);
  // The straggler contributed nothing: 1 2 → 1 3 → 1 2 is two changes.
  EXPECT_EQ(entries.begin()->second.path_changes, 2u);
  EXPECT_EQ(entries.begin()->second.announcements, 3u);
}

TEST(Degradation, MonitorSurvivesFaultedStreamIdempotently) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const FaultInjector injector(FaultPlan::Scaled(0.05, 999, kWindow));
  test::RecordFixture fx;
  const std::vector<bgp::feed::UpdateRec> rib = fx.Recs(world.dynamics.initial_rib);
  const FaultedRecords stream =
      injector.PerturbRecords(rib, fx.Recs(world.dynamics.updates));

  std::unordered_set<netbase::Prefix> monitored;
  for (const auto& update : world.dynamics.initial_rib) {
    monitored.insert(update.prefix);
    if (monitored.size() >= 4) break;
  }
  core::RelayMonitor monitor(monitored);
  for (const bgp::feed::UpdateRec& rec : rib) monitor.LearnRecord(rec, *fx.table());
  for (const bgp::feed::UpdateRec& rec : stream.updates) {
    (void)monitor.ConsumeRecord(rec, *fx.table());
  }
  // Alert totals stay consistent however noisy the feed was.
  EXPECT_EQ(monitor.AlertCounts().total(), monitor.alerts().size());
}

}  // namespace
}  // namespace quicksand::fault
