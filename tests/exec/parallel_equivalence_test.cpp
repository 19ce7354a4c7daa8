// The determinism contract of quicksand::exec (parallel.hpp): for every
// parallelized entry point, a fixed seed produces byte-identical output
// whatever the thread count. Each suite runs the same computation with
// threads=1 (the inline serial path) and threads=4 (oversubscribed on
// single-core CI machines, which still exercises the concurrent code) and
// asserts exact equality — EXPECT_EQ on doubles, not EXPECT_NEAR.

#include "exec/parallel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/topology_gen.hpp"
#include "core/attack_analysis.hpp"
#include "core/exposure.hpp"
#include "record_fixture.hpp"

namespace quicksand {
namespace {

// --- parallel.hpp unit properties -----------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> visits(kN, 0);
  exec::ParallelFor(4, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, HandlesEmptyRangeAndGrainOne) {
  exec::ParallelFor(4, 0, [](std::size_t) { FAIL() << "body ran for n=0"; });
  std::vector<int> visits(7, 0);
  exec::ParallelFor(4, visits.size(), [&](std::size_t i) { ++visits[i]; },
                    /*grain=*/1);
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, RethrowsTaskExceptionsOnTheCaller) {
  EXPECT_THROW(
      exec::ParallelFor(4, 500,
                        [](std::size_t i) {
                          if (i == 357) throw std::runtime_error("task boom");
                        }),
      std::runtime_error);
}

TEST(ParallelMap, OutputSlotsFollowIndexOrder) {
  const std::vector<std::size_t> out =
      exec::ParallelMap(4, 512, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 512u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

// --- pipeline entry points -------------------------------------------------

class EntryPointEquivalenceTest : public ::testing::Test {
 protected:
  EntryPointEquivalenceTest() {
    bgp::TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 16;
    tp.eyeball_count = 20;
    tp.hosting_count = 8;
    tp.content_count = 14;
    tp.seed = 3;
    topo_ = bgp::GenerateTopology(tp);
    bgp::CollectorParams cp;
    cp.collector_count = 2;
    cp.sessions_per_collector = 6;
    cp.seed = 4;
    collectors_ = bgp::CollectorSet::Create(topo_, cp);
  }

  bgp::Topology topo_;
  bgp::CollectorSet collectors_;
};

TEST_F(EntryPointEquivalenceTest, GenerateDynamicsIsThreadCountInvariant) {
  bgp::DynamicsParams params;
  params.window = 2 * netbase::duration::kDay;
  params.seed = 5;
  params.threads = 1;
  const bgp::GeneratedDynamics serial =
      bgp::GenerateDynamics(topo_, collectors_, params);
  params.threads = 4;
  const bgp::GeneratedDynamics parallel =
      bgp::GenerateDynamics(topo_, collectors_, params);

  EXPECT_EQ(serial.initial_rib, parallel.initial_rib);
  EXPECT_EQ(serial.updates, parallel.updates);
  ASSERT_EQ(serial.truth.size(), parallel.truth.size());
  for (std::size_t i = 0; i < serial.truth.size(); ++i) {
    EXPECT_EQ(serial.truth[i].prefix, parallel.truth[i].prefix);
    EXPECT_EQ(serial.truth[i].origin, parallel.truth[i].origin);
    EXPECT_EQ(serial.truth[i].hosting_origin, parallel.truth[i].hosting_origin);
    EXPECT_EQ(serial.truth[i].scheduled_events, parallel.truth[i].scheduled_events);
    EXPECT_EQ(serial.truth[i].emitted_transitions,
              parallel.truth[i].emitted_transitions);
  }
}

TEST_F(EntryPointEquivalenceTest, AnalyzeChurnMatchesTheSerialAnalyzer) {
  bgp::DynamicsParams params;
  params.window = 2 * netbase::duration::kDay;
  params.seed = 5;
  const bgp::GeneratedDynamics dyn =
      bgp::GenerateDynamics(topo_, collectors_, params);

  bgp::ChurnAnalyzer serial;
  test::RecordFixture fx;
  fx.Feed(serial, dyn.initial_rib);
  fx.Feed(serial, dyn.updates);
  serial.Finish();

  const bgp::ChurnAnalyzer parallel =
      bgp::AnalyzeChurnStream(bgp::feed::FromVector(fx.table(), dyn.initial_rib),
                              bgp::feed::FromVector(fx.table(), dyn.updates), {}, 4);

  ASSERT_EQ(serial.entries().size(), parallel.entries().size());
  auto it = parallel.entries().begin();
  for (const auto& [key, churn] : serial.entries()) {
    ASSERT_TRUE(it->first == key);
    EXPECT_EQ(churn.announcements, it->second.announcements);
    EXPECT_EQ(churn.path_changes, it->second.path_changes);
    EXPECT_EQ(churn.distinct_paths, it->second.distinct_paths);
    EXPECT_EQ(churn.qualifying_extra_ases, it->second.qualifying_extra_ases);
    EXPECT_EQ(churn.glimpsed_extra_ases, it->second.glimpsed_extra_ases);
    ++it;
  }
}

TEST_F(EntryPointEquivalenceTest, AsymmetricGainIsThreadCountInvariant) {
  core::ExposureAnalyzer analyzer(topo_.graph, topo_.policy_salts);
  const auto gain_with = [&](std::size_t threads) {
    return core::ComputeAsymmetricGain(analyzer, topo_.graph.AsCount(),
                                       topo_.eyeballs, topo_.hostings,
                                       topo_.hostings, topo_.contents,
                                       /*samples=*/40, /*seed=*/20140627, threads);
  };
  const core::AsymmetricGainResult serial = gain_with(1);
  const core::AsymmetricGainResult parallel = gain_with(4);

  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.mean_fraction_symmetric, parallel.mean_fraction_symmetric);
  EXPECT_EQ(serial.mean_fraction_any_direction,
            parallel.mean_fraction_any_direction);
  EXPECT_EQ(serial.mean_count_symmetric, parallel.mean_count_symmetric);
  EXPECT_EQ(serial.mean_count_any_direction, parallel.mean_count_any_direction);
  EXPECT_EQ(serial.circuits_observed_symmetric,
            parallel.circuits_observed_symmetric);
  EXPECT_EQ(serial.circuits_observed_any_direction,
            parallel.circuits_observed_any_direction);
  EXPECT_EQ(serial.mean_gain, parallel.mean_gain);
}

}  // namespace
}  // namespace quicksand
