#include "core/advisor.hpp"

#include <gtest/gtest.h>

#include "record_fixture.hpp"

namespace quicksand::core {
namespace {

using bgp::AsPath;
using bgp::BgpUpdate;
using bgp::UpdateType;
using netbase::Ipv4Address;
using netbase::Prefix;
using netbase::SimTime;

/// Consensus with three relays in three distinct prefixes, one unmapped.
struct Fixture {
  tor::Consensus consensus;
  tor::TorPrefixMap prefix_map;
  std::vector<bgp::PrefixOrigin> origins;

  Fixture() {
    std::vector<tor::Relay> relays(4);
    relays[0] = {"calm", Ipv4Address(10, 1, 0, 5), 9001, 100,
                 tor::RelayFlag::kGuard | tor::RelayFlag::kRunning};
    relays[1] = {"churny", Ipv4Address(10, 2, 0, 5), 9001, 100,
                 tor::RelayFlag::kGuard | tor::RelayFlag::kRunning};
    relays[2] = {"attacked", Ipv4Address(10, 3, 0, 5), 9001, 100,
                 tor::RelayFlag::kGuard | tor::RelayFlag::kRunning};
    relays[3] = {"lost", Ipv4Address(192, 0, 2, 5), 9001, 100,
                 tor::RelayFlag::kGuard | tor::RelayFlag::kRunning};
    consensus = tor::Consensus(SimTime{0}, std::move(relays));
    origins = {
        {Prefix::MustParse("10.1.0.0/16"), 100},
        {Prefix::MustParse("10.2.0.0/16"), 200},
        {Prefix::MustParse("10.3.0.0/16"), 300},
    };
    prefix_map = tor::TorPrefixMap::Build(consensus, origins);
  }
};

BgpUpdate Announce(std::int64_t t, bgp::SessionId s, const char* prefix,
                   const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

TEST(RelayAdvisor, CleanWorldAdvisesOk) {
  const Fixture fx;
  const RelayAdvisor advisor;
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  ASSERT_EQ(advice.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(advice[i].verdict, RelayVerdict::kOk) << i;
    EXPECT_DOUBLE_EQ(advice[i].weight_multiplier, 1.0);
  }
}

TEST(RelayAdvisor, UnmappedRelayIsElevated) {
  const Fixture fx;
  const RelayAdvisor advisor;
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  EXPECT_EQ(advice[3].verdict, RelayVerdict::kElevated);
  EXPECT_LT(advice[3].weight_multiplier, 1.0);
}

TEST(RelayAdvisor, AlertMeansAvoid) {
  const Fixture fx;
  RelayMonitor monitor({Prefix::MustParse("10.3.0.0/16")});
  const std::vector<BgpUpdate> rib = {Announce(0, 0, "10.3.0.0/16", "1 2 300")};
  test::RecordFixture records;
  records.FeedBaseline(monitor, rib);
  (void)records.Feed(monitor, Announce(100, 0, "10.3.0.0/16", "1 666"));  // hijack
  ASSERT_FALSE(monitor.alerts().empty());

  RelayAdvisor advisor;
  advisor.IngestAlerts(monitor.alerts());
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  EXPECT_EQ(advice[2].verdict, RelayVerdict::kAvoid);
  EXPECT_DOUBLE_EQ(advice[2].weight_multiplier, 0.0);
  EXPECT_NE(advice[2].reason.find("10.3.0.0/16"), std::string::npos);
  // Other relays unaffected.
  EXPECT_EQ(advice[0].verdict, RelayVerdict::kOk);
}

TEST(RelayAdvisor, ChurnyPrefixIsElevated) {
  const Fixture fx;
  bgp::ChurnAnalyzer churn;
  test::RecordFixture records;
  // Three extra ASes stay on-path for hours on 10.2/16: elevation
  // threshold reached. Two stay as long on 10.1/16: one short of it.
  records.Feed(churn, Announce(0, 0, "10.1.0.0/16", "1 2 100"));
  records.Feed(churn, Announce(0, 0, "10.2.0.0/16", "1 2 200"));
  records.Feed(churn, Announce(1000, 0, "10.1.0.0/16", "1 7 8 100"));
  records.Feed(churn, Announce(1000, 0, "10.2.0.0/16", "1 7 8 9 200"));
  records.Feed(churn, Announce(1000 + 7200, 0, "10.1.0.0/16", "1 2 100"));
  records.Feed(churn, Announce(1000 + 7200, 0, "10.2.0.0/16", "1 2 200"));
  churn.Finish();
  ASSERT_EQ(churn.entries().size(), 2u);
  for (const auto& [key, entry] : churn.entries()) {
    const std::size_t want = key.prefix == Prefix::MustParse("10.2.0.0/16") ? 3 : 2;
    EXPECT_EQ(entry.qualifying_extra_ases.size(), want) << key.prefix.ToString();
  }

  RelayAdvisor advisor;
  advisor.IngestChurn(churn);
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  EXPECT_EQ(advice[1].verdict, RelayVerdict::kElevated);
  EXPECT_EQ(advice[1].weight_multiplier, 0.35);
  EXPECT_EQ(advice[0].verdict, RelayVerdict::kOk);
  EXPECT_EQ(advice[0].weight_multiplier, 1.0);
}

TEST(RelayAdvisor, AvoidDominatesElevation) {
  const Fixture fx;
  RelayAdvisor advisor;
  advisor.IngestAlerts({Alert{SimTime{1}, 0, Prefix::MustParse("10.3.0.0/16"),
                              Prefix::MustParse("10.3.0.0/16"),
                              AlertKind::kNewUpstream, 777},
                        Alert{SimTime{1}, 0, Prefix::MustParse("10.3.0.0/16"),
                              Prefix::MustParse("10.3.0.0/16"),
                              AlertKind::kOriginChange, 666}});
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  EXPECT_EQ(advice[2].verdict, RelayVerdict::kAvoid);
}

TEST(RelayAdvisor, WeightMultipliersMatchAdvice) {
  const Fixture fx;
  RelayAdvisor advisor;
  advisor.IngestAlerts({Alert{SimTime{1}, 0, Prefix::MustParse("10.3.0.0/16"),
                              Prefix::MustParse("10.3.0.0/16"),
                              AlertKind::kMoreSpecific, 666}});
  const auto weights = advisor.GuardWeightMultipliers(fx.consensus, fx.prefix_map);
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[2], 0.0);
  EXPECT_LT(weights[3], 1.0);  // unmapped
}

TEST(RelayAdvisor, NewUpstreamAlertOnlyElevates) {
  const Fixture fx;
  RelayAdvisor advisor;
  advisor.IngestAlerts({Alert{SimTime{1}, 0, Prefix::MustParse("10.1.0.0/16"),
                              Prefix::MustParse("10.1.0.0/16"),
                              AlertKind::kNewUpstream, 777}});
  const auto advice = advisor.Advise(fx.consensus, fx.prefix_map);
  EXPECT_EQ(advice[0].verdict, RelayVerdict::kElevated);
  EXPECT_GT(advice[0].weight_multiplier, 0.0);
  EXPECT_NE(advice[0].reason.find("new upstream"), std::string::npos);
}

TEST(RelayVerdictNames, Readable) {
  EXPECT_EQ(ToString(RelayVerdict::kOk), "ok");
  EXPECT_EQ(ToString(RelayVerdict::kElevated), "elevated");
  EXPECT_EQ(ToString(RelayVerdict::kAvoid), "avoid");
}

}  // namespace
}  // namespace quicksand::core
