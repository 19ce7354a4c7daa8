#include "tor/path_selection.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

namespace quicksand::tor {
namespace {

using netbase::Ipv4Address;
using netbase::Rng;

/// Hand-built consensus: addresses chosen so the /16 rule is exercised.
Consensus TestConsensus() {
  std::vector<Relay> relays;
  auto add = [&](const char* nick, Ipv4Address addr, std::uint32_t bw, RelayFlags flags) {
    relays.push_back({nick, addr, 9001, bw, flags | RelayFlag::kRunning});
  };
  add("g1", Ipv4Address(10, 1, 0, 1), 4000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g2", Ipv4Address(10, 2, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g3", Ipv4Address(10, 3, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g4", Ipv4Address(10, 4, 0, 1), 2000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("e1", Ipv4Address(20, 1, 0, 1), 3000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("e2", Ipv4Address(20, 2, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kExit));
  // Exit sharing g1's /16: must never appear with g1 on one circuit.
  add("e3", Ipv4Address(10, 1, 99, 1), 5000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("m1", Ipv4Address(30, 1, 0, 1), 2000, 0);
  add("m2", Ipv4Address(30, 2, 0, 1), 2000, 0);
  add("down", Ipv4Address(40, 1, 0, 1), 9000,
      static_cast<RelayFlags>(RelayFlag::kGuard));
  relays.back().flags = static_cast<RelayFlags>(RelayFlag::kGuard);  // not Running
  return Consensus(netbase::SimTime{0}, std::move(relays));
}

/// Pearson chi-squared statistic of `counts` (indexed by relay) over the
/// relays in `expected_probability`, for `trials` draws.
double ChiSquared(const std::vector<int>& counts,
                  const std::map<std::size_t, double>& expected_probability, int trials) {
  double chi2 = 0;
  for (const auto& [relay, probability] : expected_probability) {
    const double expected = trials * probability;
    const double diff = counts[relay] - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

TEST(AliasTable, ProbabilitiesMatchWeights) {
  const std::vector<std::size_t> candidates = {3, 7, 11};
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  const AliasTable table = AliasTable::Build(candidates, weights);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_DOUBLE_EQ(table.Probability(0), 0.1);
  EXPECT_DOUBLE_EQ(table.Probability(1), 0.3);
  EXPECT_DOUBLE_EQ(table.Probability(2), 0.6);
}

TEST(AliasTable, RejectsBadInput) {
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1}, std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  // Non-finite weights would otherwise give uniform draws (NaN) or pile
  // every draw on one slot (+inf), with NaN probabilities either way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{1.0, nan}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{inf, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{1.0, -inf}),
               std::invalid_argument);
  const double huge = std::numeric_limits<double>::max();
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{huge, huge}),
               std::invalid_argument);
  const AliasTable empty;
  Rng rng(1);
  EXPECT_THROW((void)empty.SampleSlot(rng), std::logic_error);
}

/// Chi-squared goodness of fit of the alias guard draw against the exact
/// bandwidth-proportional distribution: g1..g4 carry 4000/1000/1000/2000
/// of 8000 guard bandwidth.
TEST(AliasTable, GuardDrawMatchesScanDistributionChiSquared) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const AliasTable& table = selector.guard_table();
  ASSERT_EQ(table.size(), 4u);

  const int trials = 40000;
  Rng rng(20140809);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[table.Sample(rng)];
  // 3 degrees of freedom; 16.27 is the p = 0.001 critical value.
  EXPECT_LT(ChiSquared(counts, {{0, 0.5}, {1, 0.125}, {2, 0.125}, {3, 0.25}}, trials),
            16.27);
}

/// Rejection against an excluded candidate renormalizes exactly: the
/// conditional distribution over the survivors matches their relative
/// bandwidths.
TEST(PathSelector, AliasPickExclusionRenormalizes) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const std::vector<std::size_t> exclude = {0};  // g1, half the mass

  const int trials = 30000;
  Rng rng(9);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const auto pick = selector.AliasPick(selector.guard_table(), rng, exclude);
    ASSERT_TRUE(pick.has_value());
    ASSERT_NE(*pick, 0u);
    ++counts[*pick];
  }
  // Survivors g2/g3/g4 carry 1000/1000/2000 of 4000; df = 2, p = 0.001.
  EXPECT_LT(ChiSquared(counts, {{1, 0.25}, {2, 0.25}, {3, 0.5}}, trials), 13.82);
}

TEST(PathSelector, AliasPickReturnsNulloptWhenNothingQualifies) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(10);
  const auto pick = selector.AliasPick(selector.guard_table(), rng, {},
                                       [](std::size_t) { return false; });
  EXPECT_FALSE(pick.has_value());
}

TEST(PathSelector, CandidateSetsRespectFlagsAndRunning) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  EXPECT_EQ(selector.GuardCandidates().size(), 4u);  // "down" excluded
  EXPECT_EQ(selector.ExitCandidates().size(), 3u);
}

TEST(PathSelector, GuardSetHasRequestedSizeAndDistinctMembers) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 3;
  const PathSelector selector(consensus, config);
  Rng rng(1);
  const auto guards = selector.PickGuardSet(rng);
  EXPECT_EQ(guards.size(), 3u);
  EXPECT_NE(guards[0], guards[1]);
  EXPECT_NE(guards[1], guards[2]);
  EXPECT_NE(guards[0], guards[2]);
  for (std::size_t g : guards) {
    EXPECT_TRUE(consensus.relays()[g].IsGuard());
  }
}

/// The guard draw against the closed form GuardSelectionProbability
/// (g1..g4 carry 4000/1000/1000/2000 of 8000 guard bandwidth).
TEST(PathSelector, GuardSelectionIsBandwidthWeighted) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  const int trials = 40000;
  Rng rng(2);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[selector.PickGuardSet(rng)[0]];
  std::map<std::size_t, double> expected;
  for (const std::size_t guard : selector.GuardCandidates()) {
    expected[guard] = selector.GuardSelectionProbability(guard);
  }
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_LT(ChiSquared(counts, expected, trials), 16.27);  // df = 3, p = 0.001
}

/// The circuit draw's exit against the closed form ExitSelectionProbability:
/// with guard g2, no exit is excluded by identity or /16.
TEST(PathSelector, ExitDrawFitsClosedFormChiSquared) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const std::vector<std::size_t> guards = {1};
  const int trials = 40000;
  Rng rng(12);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[selector.BuildCircuit(guards, rng).exit];
  std::map<std::size_t, double> expected;
  for (const std::size_t exit : selector.ExitCandidates()) {
    expected[exit] = selector.ExitSelectionProbability(exit);
  }
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_LT(ChiSquared(counts, expected, trials), 13.82);  // df = 2, p = 0.001
}

/// The multiplier-weighted guard draw against normalised bandwidth x
/// multiplier.
TEST(PathSelector, WeightedGuardDrawFitsClosedFormChiSquared) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  std::vector<double> multipliers(consensus.size(), 1.0);
  multipliers[0] = 0.25;  // g1: 4000 -> 1000
  multipliers[1] = 2.0;   // g2: 1000 -> 2000
  multipliers[3] = 0.5;   // g4: 2000 -> 1000
  const int trials = 40000;
  Rng rng(13);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) ++counts[selector.PickGuardSet(rng, multipliers)[0]];
  std::map<std::size_t, double> expected;
  double total = 0;
  for (const std::size_t guard : selector.GuardCandidates()) {
    total += consensus.relays()[guard].bandwidth_kbs * multipliers[guard];
  }
  for (const std::size_t guard : selector.GuardCandidates()) {
    expected[guard] = consensus.relays()[guard].bandwidth_kbs * multipliers[guard] / total;
  }
  EXPECT_LT(ChiSquared(counts, expected, trials), 16.27);  // df = 3, p = 0.001
}

TEST(PathSelector, WeightMultipliersSkewGuardChoice) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  std::vector<double> multipliers(consensus.size(), 0.0);
  multipliers[2] = 1.0;  // only g3 has weight
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(selector.PickGuardSet(rng, multipliers)[0], 2u);
  }
}

TEST(PathSelector, BadOrAllZeroMultipliersThrow) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  Rng rng(14);
  // No guard left with weight: no valid draw exists.
  std::vector<double> multipliers(consensus.size(), 0.0);
  EXPECT_THROW((void)selector.PickGuardSet(rng, multipliers), std::runtime_error);
  // Caller errors: misaligned, negative or non-finite multipliers.
  EXPECT_THROW((void)selector.PickGuardSet(rng, std::vector<double>(3, 1.0)),
               std::invalid_argument);
  multipliers.assign(consensus.size(), 1.0);
  multipliers[1] = -1.0;
  EXPECT_THROW((void)selector.PickGuardSet(rng, multipliers), std::invalid_argument);
  multipliers[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)selector.PickGuardSet(rng, multipliers), std::invalid_argument);
}

TEST(PathSelector, CircuitSatisfiesAllInvariants) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(4);
  const auto guards = selector.PickGuardSet(rng);
  for (int i = 0; i < 200; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng);
    EXPECT_NO_THROW(ValidateCircuit(circuit, consensus));
    // Guard came from the set.
    EXPECT_NE(std::find(guards.begin(), guards.end(), circuit.guard), guards.end());
    // The /16 rule.
    const auto& relays = consensus.relays();
    EXPECT_NE(relays[circuit.guard].address.value() >> 16,
              relays[circuit.exit].address.value() >> 16);
    EXPECT_NE(relays[circuit.guard].address.value() >> 16,
              relays[circuit.middle].address.value() >> 16);
    EXPECT_NE(relays[circuit.middle].address.value() >> 16,
              relays[circuit.exit].address.value() >> 16);
  }
}

TEST(PathSelector, ConstraintVetoesGuardsAndPairs) {
  class VetoExit3 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index, std::size_t) const override {
      return exit_index != 4;  // never e1
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const VetoExit3 constraint;
  Rng rng(6);
  const auto guards = selector.PickGuardSet(rng);
  for (int i = 0; i < 100; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng, &constraint);
    EXPECT_NE(circuit.exit, 4u);
  }
}

TEST(PathSelector, SelectionProbabilities) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(0), 0.5);
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(4), 0.0);  // not a guard
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(9), 0.0);  // not running
  EXPECT_DOUBLE_EQ(selector.ExitSelectionProbability(6), 5000.0 / 9000.0);
  EXPECT_DOUBLE_EQ(selector.ExitSelectionProbability(999), 0.0);
}

TEST(PathSelector, ThrowsWhenGuardPoolTooSmall) {
  std::vector<Relay> relays = {
      {"g1", Ipv4Address(1, 0, 0, 1), 9001, 100, RelayFlag::kGuard | RelayFlag::kRunning},
  };
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  PathSelectionConfig config;
  config.guard_set_size = 3;
  const PathSelector selector(consensus, config);
  Rng rng(7);
  EXPECT_THROW((void)selector.PickGuardSet(rng), std::runtime_error);

  // A guard class without bandwidth has nothing to draw.
  std::vector<Relay> unweighted = {
      {"g0", Ipv4Address(1, 0, 0, 1), 9001, 0, RelayFlag::kGuard | RelayFlag::kRunning},
  };
  const Consensus idle(netbase::SimTime{0}, std::move(unweighted));
  const PathSelector idle_selector(idle, config);
  EXPECT_THROW((void)idle_selector.PickGuardSet(rng), std::runtime_error);
}

TEST(PathSelector, BuildCircuitRejectsEmptyGuardSet) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(8);
  EXPECT_THROW((void)selector.BuildCircuit({}, rng), std::invalid_argument);
  // A guard index outside the consensus is rejected before any draw.
  const std::vector<std::size_t> out_of_range = {0, consensus.size()};
  EXPECT_THROW((void)selector.BuildCircuit(out_of_range, rng), std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::tor
