#include "core/population_exposure.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <numeric>

#include "bgp/topology_gen.hpp"
#include "paper_feeds.hpp"
#include "tor/consensus_gen.hpp"

namespace quicksand::core {
namespace {

struct Fixture {
  bgp::Topology topology;
  tor::Consensus consensus;
};

const Fixture& TestFixture() {
  static const Fixture fixture = [] {
    bgp::TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 16;
    tp.eyeball_count = 24;
    tp.hosting_count = 10;
    tp.content_count = 16;
    tp.seed = 61;
    bgp::Topology topo = bgp::GenerateTopology(tp);
    tor::ConsensusGenParams gp;
    gp.total_relays = 600;
    gp.guard_only = 200;
    gp.exit_only = 60;
    gp.guard_exit = 60;
    gp.seed = 62;
    tor::Consensus consensus = tor::GenerateConsensus(topo, gp).consensus;
    return Fixture{std::move(topo), std::move(consensus)};
  }();
  return fixture;
}

PopulationExposureParams FastParams() {
  PopulationExposureParams params;
  params.clients = 300;
  params.days = 40;
  params.malicious_bandwidth_fraction = 0.15;
  params.guard_lifetime_s = 10 * netbase::duration::kDay;
  params.seed = 7;
  params.shard_clients = 64;
  return params;
}

TEST(PopulationExposure, CurveMonotoneAndTalliesConsistent) {
  const tor::PathSelector selector(TestFixture().consensus);
  const PopulationExposureParams params = FastParams();
  const PopulationExposureResult result =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);

  ASSERT_EQ(result.cumulative_compromised.size(), params.days);
  double previous = 0;
  for (double fraction : result.cumulative_compromised) {
    EXPECT_GE(fraction, previous);
    EXPECT_LE(fraction, 1.0);
    previous = fraction;
  }
  EXPECT_DOUBLE_EQ(result.final_fraction, result.cumulative_compromised.back());

  // Per-AS tallies partition the population.
  std::size_t clients = 0, compromised = 0;
  for (std::size_t i = 0; i < result.per_as.size(); ++i) {
    const ClientAsExposure& entry = result.per_as[i];
    if (i > 0) {
      EXPECT_LT(result.per_as[i - 1].as, entry.as);
    }
    EXPECT_LE(entry.compromised, entry.clients);
    EXPECT_GE(entry.fraction, 0.0);
    EXPECT_LE(entry.fraction, 1.0);
    clients += entry.clients;
    compromised += entry.compromised;
  }
  EXPECT_EQ(clients, params.clients);
  EXPECT_DOUBLE_EQ(static_cast<double>(compromised) /
                       static_cast<double>(params.clients),
                   result.final_fraction);

  ASSERT_EQ(result.fraction_histogram.size(), 20u);
  EXPECT_EQ(std::accumulate(result.fraction_histogram.begin(),
                            result.fraction_histogram.end(), std::size_t{0}),
            result.per_as.size());

  // One circuit per client per day; guards rotate on the 10-day lifetime.
  EXPECT_EQ(result.circuits,
            static_cast<std::uint64_t>(params.clients) * params.days);
  EXPECT_GT(result.rotations, 0u);
}

TEST(PopulationExposure, ByteIdenticalAcrossThreadCounts) {
  const tor::PathSelector selector(TestFixture().consensus);
  PopulationExposureParams params = FastParams();
  params.threads = 1;
  const auto t1 =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);
  params.threads = 4;
  const auto t4 =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);

  EXPECT_EQ(t1.cumulative_compromised, t4.cumulative_compromised);
  EXPECT_EQ(t1.circuits, t4.circuits);
  EXPECT_EQ(t1.rotations, t4.rotations);
  ASSERT_EQ(t1.per_as.size(), t4.per_as.size());
  for (std::size_t i = 0; i < t1.per_as.size(); ++i) {
    EXPECT_EQ(t1.per_as[i].as, t4.per_as[i].as);
    EXPECT_EQ(t1.per_as[i].compromised, t4.per_as[i].compromised);
  }
}

TEST(PopulationExposure, ByteIdenticalAcrossShardSizes) {
  const tor::PathSelector selector(TestFixture().consensus);
  PopulationExposureParams params = FastParams();
  params.shard_clients = 7;
  const auto fine =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);
  params.shard_clients = 1000;  // one shard
  const auto coarse =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);

  EXPECT_EQ(fine.cumulative_compromised, coarse.cumulative_compromised);
  EXPECT_EQ(fine.circuits, coarse.circuits);
  EXPECT_EQ(fine.rotations, coarse.rotations);
}

TEST(PopulationExposure, NoAdversaryNoCompromise) {
  const tor::PathSelector selector(TestFixture().consensus);
  PopulationExposureParams params = FastParams();
  params.malicious_bandwidth_fraction = 0;
  const auto result =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);
  EXPECT_DOUBLE_EQ(result.final_fraction, 0.0);
  EXPECT_EQ(result.malicious_relays, 0u);
}

// The engine on the paper world (topology and consensus seeds as in
// tests/paper_feeds.hpp): 100,000 clients homed in the eyeball ASes for 30
// days in shards of 8,192, against a 10% bandwidth adversary. Every output
// is pinned bit for bit, at one and at four threads.
TEST(PopulationExposure, GoldenDigestOfThePaperConsensus) {
  bgp::TopologyParams tp;
  tp.seed = 20140501;
  const bgp::Topology topology = bgp::GenerateTopology(tp);
  tor::ConsensusGenParams gp;
  gp.seed = 20140503;
  const tor::GeneratedConsensus consensus = tor::GenerateConsensus(topology, gp);
  const tor::PathSelector selector(consensus.consensus);

  PopulationExposureParams params;
  params.clients = 100000;
  params.days = 30;
  params.shard_clients = 8192;
  params.malicious_bandwidth_fraction = 0.10;
  params.seed = 20140901;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    params.threads = threads;
    const PopulationExposureResult result =
        SimulatePopulationExposure(selector, topology.eyeballs, params);

    test::Fnv64 digest;
    for (const double fraction : result.cumulative_compromised) {
      digest.Add(std::bit_cast<std::uint64_t>(fraction));
    }
    for (const ClientAsExposure& entry : result.per_as) {
      digest.Add(entry.as).Add(entry.clients).Add(entry.compromised);
      digest.Add(std::bit_cast<std::uint64_t>(entry.fraction));
    }
    for (const std::size_t count : result.fraction_histogram) digest.Add(count);

    EXPECT_EQ(result.clients, 100'000u);
    EXPECT_EQ(result.circuits, 3'000'000u);
    EXPECT_EQ(result.rotations, 0u);
    EXPECT_EQ(result.malicious_relays, 725u);
    EXPECT_EQ(result.malicious_guards, 300u);
    EXPECT_EQ(result.malicious_exits, 148u);
    EXPECT_EQ(result.cumulative_compromised.size(), 30u);
    EXPECT_EQ(result.final_fraction, 0.30362);  // exact: 30,362 of 100,000
    EXPECT_EQ(result.per_as.size(), 260u);
    EXPECT_EQ(result.fraction_histogram,
              (std::vector<std::size_t>{0, 0, 0, 0, 3, 113, 139, 5, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(digest.value(), 0x75da9717d2ba7164ULL);
  }
}

// The Section 2 claim: without guard persistence, compromise approaches 1
// over time; persistent guards pin most clients to honest entries. "No
// guards" is one guard re-drawn before every circuit (zero lifetime).
TEST(LongTerm, GuardsSlowLongTermCompromise) {
  PopulationExposureParams params = FastParams();
  params.clients = 150;
  params.days = 240;
  tor::PathSelectionConfig one_guard;
  one_guard.guard_set_size = 1;
  const tor::PathSelector fresh_entry(TestFixture().consensus, one_guard);
  params.guard_lifetime_s = 0;
  const auto without =
      SimulatePopulationExposure(fresh_entry, TestFixture().topology.eyeballs, params);

  // Three guards that never rotate within the horizon.
  const tor::PathSelector three_guards(TestFixture().consensus);
  params.guard_lifetime_s = 400 * netbase::duration::kDay;
  const auto with =
      SimulatePopulationExposure(three_guards, TestFixture().topology.eyeballs, params);

  EXPECT_EQ(without.rotations, static_cast<std::uint64_t>(params.clients) * params.days);
  EXPECT_EQ(with.rotations, 0u);
  EXPECT_GT(without.final_fraction, with.final_fraction);
  EXPECT_GT(without.final_fraction, 0.5);  // approaches 1 over time
}

TEST(LongTerm, ShorterGuardLifetimeHurts) {
  const tor::PathSelector selector(TestFixture().consensus);
  PopulationExposureParams params = FastParams();
  params.clients = 150;
  params.days = 240;
  params.guard_lifetime_s = 400 * netbase::duration::kDay;
  const auto rarely =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);
  params.guard_lifetime_s = 10 * netbase::duration::kDay;
  const auto often =
      SimulatePopulationExposure(selector, TestFixture().topology.eyeballs, params);
  EXPECT_GE(often.final_fraction, rarely.final_fraction);
}

TEST(PopulationExposure, InputValidation) {
  const tor::PathSelector selector(TestFixture().consensus);
  PopulationExposureParams params = FastParams();
  params.clients = 0;
  EXPECT_THROW((void)SimulatePopulationExposure(
                   selector, TestFixture().topology.eyeballs, params),
               std::invalid_argument);
  params = FastParams();
  EXPECT_THROW(
      (void)SimulatePopulationExposure(selector, {}, params),
      std::invalid_argument);
}

TEST(MarkMalicious, OwnsRequestedShare) {
  const tor::Consensus& consensus = TestFixture().consensus;
  netbase::Rng rng(7);
  const MaliciousMarkResult marked = MarkMaliciousByBandwidth(consensus, 0.15, rng);

  EXPECT_GT(marked.relays, 0u);
  EXPECT_LT(marked.relays, consensus.size());
  double owned = 0, total = 0;
  for (std::size_t i = 0; i < consensus.size(); ++i) {
    total += consensus.relays()[i].bandwidth_kbs;
    if (marked.malicious[i]) owned += consensus.relays()[i].bandwidth_kbs;
  }
  EXPECT_GE(owned, 0.15 * total);
}

TEST(MarkMalicious, BoundaryFractions) {
  const tor::Consensus& consensus = TestFixture().consensus;
  netbase::Rng rng(3);
  const MaliciousMarkResult none = MarkMaliciousByBandwidth(consensus, 0.0, rng);
  EXPECT_EQ(none.relays, 0u);
  netbase::Rng rng2(3);
  EXPECT_THROW((void)MarkMaliciousByBandwidth(consensus, 1.5, rng2),
               std::invalid_argument);
  // A NaN target never stops the marking loop: every relay would go.
  EXPECT_THROW((void)MarkMaliciousByBandwidth(
                   consensus, std::numeric_limits<double>::quiet_NaN(), rng2),
               std::invalid_argument);
}

TEST(PopulationGain, PerAsScoresAreThreadInvariantAndBounded) {
  const bgp::Topology& topo = TestFixture().topology;
  ExposureAnalyzer analyzer(topo.graph, topo.policy_salts);
  const std::vector<bgp::AsNumber> guards(topo.hostings.begin(),
                                          topo.hostings.end());
  const auto run = [&](std::size_t threads) {
    return ComputePopulationAsymmetricGain(
        analyzer, topo.graph.AsCount(), topo.eyeballs, guards, guards,
        topo.contents, /*samples_per_as=*/3, /*seed=*/11, threads);
  };
  const PopulationGainResult t1 = run(1);
  const PopulationGainResult t4 = run(4);

  ASSERT_EQ(t1.per_as.size(), topo.eyeballs.size());
  EXPECT_EQ(t1.mean_gain, t4.mean_gain);
  EXPECT_EQ(t1.max_gain, t4.max_gain);
  for (std::size_t i = 0; i < t1.per_as.size(); ++i) {
    EXPECT_EQ(t1.per_as[i].client_as, topo.eyeballs[i]);
    EXPECT_EQ(t1.per_as[i].mean_gain, t4.per_as[i].mean_gain);
    // Any-direction observation can only widen the observer set.
    EXPECT_GE(t1.per_as[i].mean_gain, 1.0);
    EXPECT_GE(t1.per_as[i].mean_fraction_any_direction,
              t1.per_as[i].mean_fraction_symmetric);
  }
  EXPECT_GE(t1.max_gain, t1.mean_gain);

  EXPECT_THROW((void)ComputePopulationAsymmetricGain(analyzer, topo.graph.AsCount(),
                                                     topo.eyeballs, guards, guards,
                                                     topo.contents, 0, 11),
               std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::core
