#include "tor/consensus_gen.hpp"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "netbase/prefix_trie.hpp"

namespace quicksand::tor {
namespace {

bgp::Topology TestTopology() {
  bgp::TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 20;
  params.eyeball_count = 40;
  params.hosting_count = 14;
  params.content_count = 30;
  params.seed = 77;
  return bgp::GenerateTopology(params);
}

ConsensusGenParams SmallParams() {
  ConsensusGenParams params;
  params.total_relays = 800;
  params.guard_only = 260;
  params.exit_only = 80;
  params.guard_exit = 76;
  params.seed = 11;
  return params;
}

TEST(ConsensusGen, FlagCountsAreExact) {
  const bgp::Topology topo = TestTopology();
  const GeneratedConsensus gen = GenerateConsensus(topo, SmallParams());
  const Consensus& c = gen.consensus;
  EXPECT_EQ(c.size(), 800u);
  EXPECT_EQ(c.Guards().size(), 260u + 76u);
  EXPECT_EQ(c.Exits().size(), 80u + 76u);
  EXPECT_EQ(c.GuardExits().size(), 76u);
  for (const Relay& relay : c.relays()) {
    EXPECT_TRUE(relay.IsRunning());
    EXPECT_GT(relay.bandwidth_kbs, 0u);
  }
}

TEST(ConsensusGen, PaperScaleCountsMatchJuly2014) {
  const bgp::Topology topo = TestTopology();
  ConsensusGenParams params;  // defaults are the paper's numbers
  params.seed = 5;
  const GeneratedConsensus gen = GenerateConsensus(topo, params);
  EXPECT_EQ(gen.consensus.size(), 4586u);
  EXPECT_EQ(gen.consensus.Guards().size(), 1918u);
  EXPECT_EQ(gen.consensus.Exits().size(), 891u);
  EXPECT_EQ(gen.consensus.GuardExits().size(), 442u);
}

TEST(ConsensusGen, RelayAddressesAreUniqueAndInsideHostPrefixes) {
  const bgp::Topology topo = TestTopology();
  const GeneratedConsensus gen = GenerateConsensus(topo, SmallParams());
  netbase::PrefixTrie<bgp::AsNumber> trie;
  for (const bgp::PrefixOrigin& po : topo.prefix_origins) {
    trie.Insert(po.prefix, po.origin);
  }
  std::unordered_set<netbase::Ipv4Address> addresses;
  for (std::size_t i = 0; i < gen.consensus.size(); ++i) {
    const Relay& relay = gen.consensus.relays()[i];
    EXPECT_TRUE(addresses.insert(relay.address).second)
        << "duplicate address " << relay.address.ToString();
    const auto match = trie.LongestMatch(relay.address);
    ASSERT_TRUE(match.has_value()) << relay.address.ToString() << " not in any prefix";
    EXPECT_EQ(*match->second, gen.host_as[i])
        << "relay placed outside its host AS's address space";
  }
}

TEST(ConsensusGen, HostAsConcentrationIsSkewed) {
  const bgp::Topology topo = TestTopology();
  const GeneratedConsensus gen = GenerateConsensus(topo, SmallParams());
  std::map<bgp::AsNumber, std::size_t> per_as;
  for (bgp::AsNumber asn : gen.host_as) ++per_as[asn];
  // The most popular AS hosts far more than an even share.
  std::size_t top = 0;
  for (const auto& [asn, count] : per_as) top = std::max(top, count);
  const double even_share =
      static_cast<double>(gen.host_as.size()) / static_cast<double>(per_as.size());
  EXPECT_GT(static_cast<double>(top), 4 * even_share);
}

TEST(ConsensusGen, GuardsGetBandwidthBoost) {
  const bgp::Topology topo = TestTopology();
  const GeneratedConsensus gen = GenerateConsensus(topo, SmallParams());
  double guard_sum = 0, other_sum = 0;
  std::size_t guard_n = 0, other_n = 0;
  for (const Relay& relay : gen.consensus.relays()) {
    if (relay.IsGuard()) {
      guard_sum += relay.bandwidth_kbs;
      ++guard_n;
    } else {
      other_sum += relay.bandwidth_kbs;
      ++other_n;
    }
  }
  ASSERT_GT(guard_n, 0u);
  ASSERT_GT(other_n, 0u);
  EXPECT_GT(guard_sum / guard_n, other_sum / other_n);
}

TEST(ConsensusGen, DeterministicForSeed) {
  const bgp::Topology topo = TestTopology();
  const GeneratedConsensus a = GenerateConsensus(topo, SmallParams());
  const GeneratedConsensus b = GenerateConsensus(topo, SmallParams());
  ASSERT_EQ(a.consensus.size(), b.consensus.size());
  for (std::size_t i = 0; i < a.consensus.size(); ++i) {
    EXPECT_EQ(a.consensus.relays()[i], b.consensus.relays()[i]);
  }
  EXPECT_EQ(a.host_as, b.host_as);
}

TEST(ConsensusGen, RejectsInconsistentFlagCounts) {
  const bgp::Topology topo = TestTopology();
  ConsensusGenParams params = SmallParams();
  params.total_relays = 100;
  params.guard_only = 90;
  params.exit_only = 20;
  EXPECT_THROW((void)GenerateConsensus(topo, params), std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::tor
