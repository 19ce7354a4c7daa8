#include "tor/consensus.hpp"

#include <gtest/gtest.h>

namespace quicksand::tor {
namespace {

Consensus SampleConsensus() {
  std::vector<Relay> relays(4);
  relays[0] = {"guard1", netbase::Ipv4Address(10, 0, 0, 1), 9001, 1000,
               RelayFlag::kGuard | RelayFlag::kRunning};
  relays[1] = {"exit1", netbase::Ipv4Address(10, 0, 0, 2), 443, 2000,
               RelayFlag::kExit | RelayFlag::kRunning};
  relays[2] = {"both1", netbase::Ipv4Address(10, 0, 1, 3), 9002, 3000,
               RelayFlag::kGuard | RelayFlag::kExit | RelayFlag::kRunning};
  relays[3] = {"mid1", netbase::Ipv4Address(10, 0, 1, 4), 9030, 500,
               static_cast<RelayFlags>(RelayFlag::kRunning)};
  return Consensus(netbase::SimTime{1000}, std::move(relays));
}

TEST(Consensus, FlagQueries) {
  const Consensus consensus = SampleConsensus();
  EXPECT_EQ(consensus.size(), 4u);
  EXPECT_EQ(consensus.Guards().size(), 2u);
  EXPECT_EQ(consensus.Exits().size(), 2u);
  EXPECT_EQ(consensus.GuardExits().size(), 1u);
  EXPECT_EQ(consensus.GuardExits().front()->nickname, "both1");
  EXPECT_EQ(consensus.TotalBandwidth(), 6500u);
}

TEST(Consensus, EmptyConsensusIsValid) {
  const Consensus empty(netbase::SimTime{42}, {});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.valid_after().seconds, 42);
  EXPECT_EQ(empty.TotalBandwidth(), 0u);
  EXPECT_TRUE(empty.Guards().empty());
}

}  // namespace
}  // namespace quicksand::tor
