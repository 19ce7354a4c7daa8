#include "core/attack_analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "bgp/topology_gen.hpp"
#include "obs/metrics.hpp"
#include "paper_feeds.hpp"

namespace quicksand::core {
namespace {

bgp::Topology TestTopology() {
  bgp::TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 18;
  params.eyeball_count = 30;
  params.hosting_count = 10;
  params.content_count = 16;
  params.seed = 23;
  return bgp::GenerateTopology(params);
}

TEST(AnalyzeHijack, MoreSpecificObservesWholeClientPopulation) {
  const bgp::Topology topo = TestTopology();
  bgp::AttackSpec spec;
  spec.victim = topo.hostings.front();
  spec.attacker = topo.transits.front();
  spec.victim_prefix = topo.PrefixesOf(spec.victim).front();
  spec.more_specific = true;
  const auto result = AnalyzeHijack(topo.graph, spec, topo.eyeballs);
  EXPECT_EQ(result.clients_total, topo.eyeballs.size());
  // Unlimited more-specific: every client's traffic lands on the attacker.
  EXPECT_EQ(result.clients_observed, result.clients_total);
  EXPECT_DOUBLE_EQ(result.observed_fraction, 1.0);
  EXPECT_FALSE(result.connection_survives);  // blackhole
}

TEST(AnalyzeHijack, SamePrefixObservesOnlyASubset) {
  const bgp::Topology topo = TestTopology();
  bgp::AttackSpec spec;
  spec.victim = topo.hostings.front();
  spec.attacker = topo.transits.back();
  spec.victim_prefix = topo.PrefixesOf(spec.victim).front();
  const auto result = AnalyzeHijack(topo.graph, spec, topo.eyeballs);
  EXPECT_LT(result.clients_observed, result.clients_total);
}

TEST(AnalyzeHijack, ScopedAttackShrinksObservedSet) {
  const bgp::Topology topo = TestTopology();
  bgp::AttackSpec spec;
  spec.victim = topo.hostings.front();
  spec.attacker = topo.transits.front();
  spec.victim_prefix = topo.PrefixesOf(spec.victim).front();
  spec.more_specific = true;
  const auto unlimited = AnalyzeHijack(topo.graph, spec, topo.eyeballs);
  spec.propagation_radius = 2;
  const auto scoped = AnalyzeHijack(topo.graph, spec, topo.eyeballs);
  EXPECT_LE(scoped.clients_observed, unlimited.clients_observed);
}

TEST(AnalyzeHijack, TunnelInterceptionKeepsConnectionAlive) {
  const bgp::Topology topo = TestTopology();
  bgp::AttackSpec spec;
  spec.victim = topo.hostings.front();
  spec.attacker = topo.transits.front();
  spec.victim_prefix = topo.PrefixesOf(spec.victim).front();
  spec.more_specific = true;
  spec.keep_alive = true;
  spec.forwarding = bgp::ForwardingMode::kTunnel;
  const auto result = AnalyzeHijack(topo.graph, spec, topo.eyeballs);
  EXPECT_TRUE(result.connection_survives);
}

TEST(Deanonymization, CorrelationAttackIdentifiesTheTarget) {
  DeanonExperimentParams params;
  params.candidate_clients = 6;
  params.base_flow.file_bytes = 8 << 20;
  params.correlation.bin_s = 0.5;
  params.correlation.duration_s = 12.0;
  params.seed = 11;
  const DeanonResult result = RunCorrelationDeanonymization(params).At(
      SegmentView::kAckedBytes, SegmentView::kDataBytes);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.matched, result.target);
  EXPECT_GT(result.target_correlation, 0.85);
  EXPECT_GT(result.target_correlation, result.runner_up_correlation);
  EXPECT_EQ(result.correlations.size(), 6u);
}

TEST(Deanonymization, WorksForAckOnlyObservationAtBothEnds) {
  // The paper's "more extreme variant": only ACK traffic at both ends.
  DeanonExperimentParams params;
  params.candidate_clients = 5;
  params.base_flow.file_bytes = 8 << 20;
  params.correlation.bin_s = 0.5;
  params.correlation.duration_s = 12.0;
  params.seed = 13;
  const DeanonResult result = RunCorrelationDeanonymization(params).At(
      SegmentView::kAckedBytes, SegmentView::kAckedBytes);
  EXPECT_TRUE(result.success);
}

TEST(Deanonymization, WorksForUploadsToo) {
  // The paper's WikiLeaks example: a file UPLOAD — data flows client ->
  // server, and the adversary correlates entry data with exit-side acks.
  DeanonExperimentParams params;
  params.candidate_clients = 5;
  params.base_flow.direction = traffic::TransferDirection::kUpload;
  params.base_flow.file_bytes = 12 << 20;
  params.correlation.bin_s = 0.5;
  params.correlation.duration_s = 16.0;
  // The relay pipeline makes the entry lead the exit by the in-flight
  // slack; widen the alignment search accordingly.
  params.correlation.max_lag_bins = 3;
  params.seed = 18;
  const DeanonResult result = RunCorrelationDeanonymization(params).At(
      SegmentView::kDataBytes, SegmentView::kAckedBytes);
  EXPECT_TRUE(result.success);
}

/// FNV-1a over one cell: target, matched, success and the bit pattern of
/// every correlation.
std::uint64_t CellDigest(const DeanonResult& result) {
  test::Fnv64 digest;
  digest.Add(result.target).Add(result.matched).Add(result.success ? 1 : 0);
  digest.Add(std::bit_cast<std::uint64_t>(result.target_correlation));
  digest.Add(std::bit_cast<std::uint64_t>(result.runner_up_correlation));
  for (const double r : result.correlations) digest.Add(std::bit_cast<std::uint64_t>(r));
  return digest.value();
}

TEST(Deanonymization, GoldenDigestOfSec33Trials) {
  // sec33's experiment (10 candidates, 12 MB files, 0.5 s bins over 16 s)
  // at its trial seeds 5000 + 37 * trial for trials 0 and 8 (trial 8's
  // acks/data cell is sec33's one miss), one digest per (entry view, exit
  // view) cell in the order data/data, data/acks, acks/data, acks/acks.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t cells[4];
  };
  constexpr Golden kGolden[] = {
      {5000, {0x0a847609313a0761ULL, 0xda15b9f25dc5d17bULL,
              0x7e5044eef1157ff6ULL, 0x519649a391caa67dULL}},
      {5000 + 37 * 8, {0x09318218842874adULL, 0xdfe757efb958ab61ULL,
                     0xd06ba10ebc7a96eaULL, 0x86c0af193571e39bULL}},
  };
  const SegmentView views[] = {SegmentView::kDataBytes, SegmentView::kAckedBytes};
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.seed);
    DeanonExperimentParams params;
    params.candidate_clients = 10;
    params.base_flow.file_bytes = 12 << 20;
    params.correlation.bin_s = 0.5;
    params.correlation.duration_s = 16.0;
    params.seed = golden.seed;
    const DeanonViews cells = RunCorrelationDeanonymization(params);
    std::size_t cell = 0;
    for (const SegmentView entry : views) {
      for (const SegmentView exit : views) {
        const DeanonResult& result = cells.At(entry, exit);
        EXPECT_EQ(result.correlations.size(), 10u);
        EXPECT_EQ(CellDigest(result), golden.cells[cell]) << "cell " << cell;
        ++cell;
      }
    }
  }
}

TEST(Deanonymization, SimulatesEachCandidateOncePerCall) {
  obs::Counter& transfers =
      obs::MetricsRegistry::Global().GetCounter("traffic.flow.transfers_simulated");
  DeanonExperimentParams params;
  params.candidate_clients = 6;
  params.base_flow.file_bytes = 2 << 20;
  params.correlation.bin_s = 0.5;
  params.correlation.duration_s = 8.0;
  params.seed = 5037;
  const std::uint64_t before = transfers.value();
  (void)RunCorrelationDeanonymization(params);
  EXPECT_EQ(transfers.value() - before, params.candidate_clients);
}

TEST(Deanonymization, RejectsZeroCandidates) {
  DeanonExperimentParams params;
  params.candidate_clients = 0;
  EXPECT_THROW((void)RunCorrelationDeanonymization(params), std::invalid_argument);
}

TEST(AsymmetricGain, AnyDirectionDominatesSymmetric) {
  const bgp::Topology topo = TestTopology();
  ExposureAnalyzer analyzer(topo.graph, topo.policy_salts);
  const auto result = ComputeAsymmetricGain(
      analyzer, topo.graph.AsCount(), topo.eyeballs, topo.hostings, topo.hostings,
      topo.contents, 40, 17);
  EXPECT_EQ(result.samples, 40u);
  EXPECT_GE(result.mean_fraction_any_direction, result.mean_fraction_symmetric);
  EXPECT_GE(result.mean_gain, 1.0);
  EXPECT_GT(result.mean_fraction_any_direction, 0.0);
}

TEST(AsymmetricGain, RejectsEmptyPools) {
  const bgp::Topology topo = TestTopology();
  ExposureAnalyzer analyzer(topo.graph, topo.policy_salts);
  const std::vector<bgp::AsNumber> empty;
  EXPECT_THROW((void)ComputeAsymmetricGain(analyzer, topo.graph.AsCount(), empty,
                                           topo.hostings, topo.hostings, topo.contents,
                                           5, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::core
