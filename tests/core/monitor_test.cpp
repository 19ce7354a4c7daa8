#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include "record_fixture.hpp"

namespace quicksand::core {
namespace {

using bgp::AsPath;
using bgp::BgpUpdate;
using bgp::SessionId;
using bgp::UpdateType;
using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

RelayMonitor MonitorWithBaseline(test::RecordFixture& fx) {
  RelayMonitor monitor({Prefix::MustParse("78.46.0.0/15"),
                        Prefix::MustParse("10.9.0.0/16")});
  const std::vector<BgpUpdate> rib = {
      Announce(0, 0, "78.46.0.0/15", "701 3356 24940"),
      Announce(0, 1, "78.46.0.0/15", "1299 3356 24940"),
      Announce(0, 0, "10.9.0.0/16", "701 16276"),
  };
  fx.FeedBaseline(monitor, rib);
  return monitor;
}

TEST(RelayMonitor, NoAlertsOnBaselineConsistentUpdates) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // Same origin, known upstream 3356: silent.
  const auto alerts =
      fx.Feed(monitor, Announce(100, 1, "78.46.0.0/15", "1299 174 3356 24940"));
  EXPECT_TRUE(alerts.empty());
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(RelayMonitor, OriginChangeDetected) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto alerts =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 4837 666"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kOriginChange);
  EXPECT_EQ(alerts[0].suspect, 666u);
  EXPECT_EQ(alerts[0].monitored_prefix, Prefix::MustParse("78.46.0.0/15"));
}

TEST(RelayMonitor, MoreSpecificDetected) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // A /16 carved out of the monitored /15, announced by anyone.
  const auto alerts =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/16", "701 3356 24940"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kMoreSpecific);
  EXPECT_EQ(alerts[0].monitored_prefix, Prefix::MustParse("78.46.0.0/15"));
  EXPECT_EQ(alerts[0].announced_prefix, Prefix::MustParse("78.46.0.0/16"));
}

TEST(RelayMonitor, UnrelatedPrefixIgnored) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  EXPECT_TRUE(fx.Feed(monitor, Announce(100, 0, "99.0.0.0/8", "701 666")).empty());
  EXPECT_TRUE(fx.Feed(monitor, Announce(100, 0, "78.48.0.0/16", "701 666")).empty());
}

TEST(RelayMonitor, NewUpstreamDetectedOnceAndLearned) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto first =
      fx.Feed(monitor, Announce(100, 0, "10.9.0.0/16", "701 9002 16276"));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].kind, AlertKind::kNewUpstream);
  EXPECT_EQ(first[0].suspect, 9002u);
  // Same upstream again: already learned, no duplicate alert storm.
  const auto second =
      fx.Feed(monitor, Announce(200, 1, "10.9.0.0/16", "1299 9002 16276"));
  EXPECT_TRUE(second.empty());
}

TEST(RelayMonitor, UpstreamSkipsOriginPrepending) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // Prepended origin: upstream is still 3356, which is known.
  const auto alerts = fx.Feed(
      monitor, Announce(100, 0, "78.46.0.0/15", "701 3356 24940 24940 24940"));
  EXPECT_TRUE(alerts.empty());
}

TEST(RelayMonitor, WithdrawalsRaiseNothing) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const BgpUpdate withdraw = {SimTime{100}, 0, UpdateType::kWithdraw,
                              Prefix::MustParse("78.46.0.0/15"), {}};
  EXPECT_TRUE(fx.Feed(monitor, withdraw).empty());
}

TEST(RelayMonitor, AlertsAccumulateAndFlagPrefixes) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  (void)fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  (void)fx.Feed(monitor, Announce(200, 0, "10.9.128.0/17", "701 666"));
  EXPECT_EQ(monitor.alerts().size(), 2u);
  const auto flagged = monitor.FlaggedPrefixes();
  EXPECT_EQ(flagged.size(), 2u);
  EXPECT_TRUE(flagged.contains(Prefix::MustParse("78.46.0.0/15")));
  EXPECT_TRUE(flagged.contains(Prefix::MustParse("10.9.0.0/16")));
}

TEST(RelayMonitor, DetectorsCanBeDisabled) {
  MonitorParams params;
  params.alert_on_more_specific = false;
  params.alert_on_new_upstream = false;
  RelayMonitor monitor({Prefix::MustParse("78.46.0.0/15")}, params);
  const std::vector<BgpUpdate> rib = {Announce(0, 0, "78.46.0.0/15", "701 3356 24940")};
  test::RecordFixture fx;
  fx.FeedBaseline(monitor, rib);
  EXPECT_TRUE(
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/16", "701 3356 24940")).empty());
  EXPECT_TRUE(
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 9999 24940")).empty());
  // Origin change still fires.
  EXPECT_FALSE(fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666")).empty());
}

TEST(RelayMonitor, MonitoredCount) {
  test::RecordFixture fx;
  EXPECT_EQ(MonitorWithBaseline(fx).MonitoredCount(), 2u);
}

TEST(RelayMonitor, AlertCountsTrackPerKindTotals) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  EXPECT_EQ(monitor.AlertCounts().total(), 0u);
  // origin change, more specific, new upstream, origin change
  (void)fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  (void)fx.Feed(monitor, Announce(200, 0, "10.9.128.0/17", "701 666"));
  (void)fx.Feed(monitor, Announce(300, 0, "10.9.0.0/16", "701 9002 16276"));
  (void)fx.Feed(monitor, Announce(400, 1, "78.46.0.0/15", "1299 667"));
  const AlertCountSummary& counts = monitor.AlertCounts();
  EXPECT_EQ(counts.origin_change, 2u);
  EXPECT_EQ(counts.more_specific, 1u);
  EXPECT_EQ(counts.new_upstream, 1u);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_EQ(counts.total(), monitor.alerts().size());
  EXPECT_EQ(counts.Of(AlertKind::kOriginChange), 2u);
  EXPECT_EQ(counts.Of(AlertKind::kMoreSpecific), 1u);
  EXPECT_EQ(counts.Of(AlertKind::kNewUpstream), 1u);
}

TEST(RelayMonitor, DuplicateOriginChangeAlertsOnce) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // The same hijack re-announced — the signature a flapping session
  // produces when it resyncs its table after recovery.
  const auto first = fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  const auto second = fx.Feed(monitor, Announce(200, 1, "78.46.0.0/15", "1299 666"));
  const auto third =
      fx.Feed(monitor, Announce(300, 0, "78.46.0.0/15", "701 4837 666"));
  EXPECT_EQ(first.size(), 1u);
  EXPECT_TRUE(second.empty());
  EXPECT_TRUE(third.empty());
  EXPECT_EQ(monitor.AlertCounts().origin_change, 1u);
  EXPECT_EQ(monitor.SuppressedDuplicates(), 2u);
  // A *different* bogus origin is a new anomaly, not a duplicate.
  EXPECT_EQ(fx.Feed(monitor, Announce(400, 0, "78.46.0.0/15", "701 667")).size(), 1u);
  EXPECT_EQ(monitor.AlertCounts().origin_change, 2u);
}

TEST(RelayMonitor, DuplicateMoreSpecificAlertsOnce) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto first =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/16", "701 3356 24940"));
  const auto repeat =
      fx.Feed(monitor, Announce(200, 1, "78.46.0.0/16", "1299 3356 24940"));
  EXPECT_EQ(first.size(), 1u);
  EXPECT_TRUE(repeat.empty());
  EXPECT_EQ(monitor.AlertCounts().more_specific, 1u);
  EXPECT_EQ(monitor.SuppressedDuplicates(), 1u);
  // Same carve-out from a different origin: a distinct anomaly.
  EXPECT_EQ(fx.Feed(monitor, Announce(300, 0, "78.46.0.0/16", "701 666")).size(), 1u);
  // So is a different carve-out by the original origin.
  EXPECT_EQ(
      fx.Feed(monitor, Announce(400, 0, "78.47.0.0/16", "701 3356 24940")).size(), 1u);
}

TEST(RelayMonitor, OutOfOrderTimestampsYieldTheSameAlertSet) {
  // Decisions depend only on learned sets and update content, never on
  // timestamp monotonicity — a reordered feed raises the same alerts.
  const std::vector<BgpUpdate> anomalies = {
      Announce(300, 0, "78.46.0.0/15", "701 666"),       // origin change
      Announce(100, 0, "10.9.128.0/17", "701 666"),      // more specific (late)
      Announce(200, 0, "10.9.0.0/16", "701 9002 16276"), // new upstream
  };
  test::RecordFixture fx;
  RelayMonitor in_order = MonitorWithBaseline(fx);
  RelayMonitor reversed = MonitorWithBaseline(fx);
  for (const BgpUpdate& update : anomalies) (void)fx.Feed(in_order, update);
  for (auto it = anomalies.rbegin(); it != anomalies.rend(); ++it) {
    (void)fx.Feed(reversed, *it);
  }
  EXPECT_EQ(in_order.AlertCounts().total(), 3u);
  EXPECT_EQ(in_order.AlertCounts().origin_change, reversed.AlertCounts().origin_change);
  EXPECT_EQ(in_order.AlertCounts().more_specific, reversed.AlertCounts().more_specific);
  EXPECT_EQ(in_order.AlertCounts().new_upstream, reversed.AlertCounts().new_upstream);
  EXPECT_EQ(in_order.FlaggedPrefixes(), reversed.FlaggedPrefixes());
}

TEST(RelayMonitor, SuppressedDuplicatesStartAtZero) {
  test::RecordFixture fx;
  EXPECT_EQ(MonitorWithBaseline(fx).SuppressedDuplicates(), 0u);
}

TEST(AlertCountSummary, Accumulates) {
  AlertCountSummary a{1, 2, 3};
  const AlertCountSummary b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.origin_change, 11u);
  EXPECT_EQ(a.more_specific, 22u);
  EXPECT_EQ(a.new_upstream, 33u);
  EXPECT_EQ(a.total(), 66u);
}

TEST(AlertKindNames, Readable) {
  EXPECT_EQ(ToString(AlertKind::kOriginChange), "origin-change");
  EXPECT_EQ(ToString(AlertKind::kMoreSpecific), "more-specific");
  EXPECT_EQ(ToString(AlertKind::kNewUpstream), "new-upstream");
}

}  // namespace
}  // namespace quicksand::core
