#include "tor/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tor/path_selection.hpp"

namespace quicksand::tor {
namespace {

using netbase::Ipv4Address;
using netbase::Rng;

/// Same shape as the path-selection test consensus: four guards with known
/// bandwidths, an exit sharing g1's /16, and one non-Running guard.
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
  add("e3", Ipv4Address(10, 1, 99, 1), 5000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("m1", Ipv4Address(30, 1, 0, 1), 2000, 0);
  add("m2", Ipv4Address(30, 2, 0, 1), 2000, 0);
  add("down", Ipv4Address(40, 1, 0, 1), 9000,
      static_cast<RelayFlags>(RelayFlag::kGuard));
  relays.back().flags = static_cast<RelayFlags>(RelayFlag::kGuard);  // not Running
  return Consensus(netbase::SimTime{0}, std::move(relays));
}

/// The scalar calls and the population run the same two draws: a client
/// driven through PickGuardSet / BuildCircuit and a one-client population
/// on the same substream pick identical guard sets and circuits, day by
/// day through rotations, with and without a constraint.
TEST(ClientPopulation, MatchesPathSelectorForOneClient) {
  class VetoE1 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index, std::size_t) const override {
      return exit_index != 4;
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const VetoE1 veto;
  const std::int64_t lifetime = 10 * netbase::duration::kDay;

  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const CircuitConstraint* constraint = seed % 2 == 0 ? nullptr : &veto;
    Rng rng(20140809 + seed);
    ClientPopulation population(selector, PopulationConfig{lifetime}, {0}, {rng},
                                constraint);
    std::vector<std::size_t> guards = selector.PickGuardSet(rng, {}, constraint);
    std::int64_t chosen_at = 0;
    ASSERT_EQ(guards, population.GuardSetOf(0)) << "seed " << seed;

    std::vector<Circuit> batch(1);
    for (int day = 0; day < 40; ++day) {
      const std::int64_t now = day * netbase::duration::kDay;
      if (now - chosen_at >= lifetime) {
        guards = selector.PickGuardSet(rng, {}, constraint);
        chosen_at = now;
      }
      population.RotateExpired(netbase::SimTime{now});
      population.BuildCircuits(batch);
      ASSERT_EQ(selector.BuildCircuit(guards, rng, constraint), batch[0])
          << "seed " << seed << " day " << day;
      ASSERT_EQ(guards, population.GuardSetOf(0)) << "seed " << seed << " day " << day;
    }
    EXPECT_EQ(population.rotations(), 3u);  // days 10, 20 and 30
  }
}

TEST(ClientPopulation, DistinctSeedsDistinctGuardSets) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const ClientPopulation population(selector, PopulationConfig{}, {0, 1},
                                    {Rng(10), Rng(20)});
  // Guards against clients accidentally sharing one RNG state.
  EXPECT_NE(population.GuardSetOf(0), population.GuardSetOf(1));
}

/// ForShard re-derives the serial fork sequence, so any shard split of the
/// same population produces the same per-client trajectories.
TEST(ClientPopulation, ShardSplitInvariance) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const PopulationConfig config{5 * netbase::duration::kDay};
  const std::uint64_t seed = 77;

  std::vector<std::uint32_t> as_ids(10);
  for (std::size_t i = 0; i < as_ids.size(); ++i) {
    as_ids[i] = static_cast<std::uint32_t>(i % 3);
  }
  const std::span<const std::uint32_t> ids(as_ids);
  ClientPopulation whole = ClientPopulation::ForShard(selector, config, ids, seed, 0);
  ClientPopulation lo =
      ClientPopulation::ForShard(selector, config, ids.subspan(0, 4), seed, 0);
  ClientPopulation hi =
      ClientPopulation::ForShard(selector, config, ids.subspan(4), seed, 4);

  std::vector<Circuit> whole_out(10), lo_out(4), hi_out(6);
  for (int day = 0; day < 12; ++day) {
    const netbase::SimTime now{day * netbase::duration::kDay};
    whole.RotateExpired(now);
    lo.RotateExpired(now);
    hi.RotateExpired(now);
    whole.BuildCircuits(whole_out);
    lo.BuildCircuits(lo_out);
    hi.BuildCircuits(hi_out);
    for (std::size_t c = 0; c < 10; ++c) {
      const Circuit& split = c < 4 ? lo_out[c] : hi_out[c - 4];
      ASSERT_EQ(whole_out[c], split) << "day " << day << " client " << c;
    }
  }
  EXPECT_EQ(whole.rotations(), lo.rotations() + hi.rotations());
  EXPECT_EQ(whole.circuits_built(), lo.circuits_built() + hi.circuits_built());
}

TEST(ClientPopulation, RotationSweepHonorsLifetime) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const std::int64_t lifetime = 3 * netbase::duration::kDay;
  ClientPopulation population = ClientPopulation::ForShard(
      selector, PopulationConfig{lifetime}, std::vector<std::uint32_t>{0, 0, 0}, 5, 0);

  EXPECT_EQ(population.RotateExpired(netbase::SimTime{0}), 0u);
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime - 1}), 0u);
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime}), 3u);
  // The clock restarted at `lifetime`, so one second later nothing expires.
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime + 1}), 0u);
  EXPECT_EQ(population.rotations(), 3u);
}

TEST(ClientPopulation, CircuitsSatisfyInvariantsAndConstraint) {
  class VetoE1 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index, std::size_t) const override {
      return exit_index != 4;  // never e1
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const VetoE1 constraint;
  ClientPopulation population = ClientPopulation::ForShard(
      selector, PopulationConfig{}, std::vector<std::uint32_t>{0, 1, 2, 3}, 11, 0,
      &constraint);

  std::vector<Circuit> out(4);
  for (int sweep = 0; sweep < 50; ++sweep) {
    population.BuildCircuits(out);
    for (const Circuit& circuit : out) {
      EXPECT_NO_THROW(ValidateCircuit(circuit, consensus));
      EXPECT_NE(circuit.exit, 4u);
      const auto guards = population.GuardSetOf(0);
      EXPECT_EQ(guards.size(), selector.config().guard_set_size);
    }
  }
  EXPECT_EQ(population.circuits_built(), 200u);
}

TEST(ClientPopulation, CircuitsUseOwnGuardSet) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  ClientPopulation population = ClientPopulation::ForShard(
      selector, PopulationConfig{}, std::vector<std::uint32_t>{0, 1, 2, 3}, 4, 0);

  std::vector<Circuit> out(4);
  for (int sweep = 0; sweep < 50; ++sweep) {
    population.BuildCircuits(out);
    for (std::size_t c = 0; c < out.size(); ++c) {
      // Each circuit enters through its own client's guard set.
      const auto guards = population.GuardSetOf(c);
      EXPECT_NE(std::find(guards.begin(), guards.end(), out[c].guard), guards.end())
          << "client " << c << " sweep " << sweep;
      EXPECT_NO_THROW(ValidateCircuit(out[c], consensus));
    }
  }
}

}  // namespace
}  // namespace quicksand::tor
