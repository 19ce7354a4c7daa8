#include "bgp/topology_gen.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "netbase/prefix_trie.hpp"

namespace quicksand::bgp {
namespace {

TopologyParams SmallParams(std::uint64_t seed = 42) {
  TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 20;
  params.eyeball_count = 40;
  params.hosting_count = 12;
  params.content_count = 24;
  params.seed = seed;
  return params;
}

TEST(TopologyGen, CountsMatchParams) {
  const Topology topo = GenerateTopology(SmallParams());
  EXPECT_EQ(topo.tier1.size(), 4u);
  EXPECT_EQ(topo.transits.size(), 20u);
  EXPECT_EQ(topo.eyeballs.size(), 40u);
  EXPECT_EQ(topo.hostings.size(), 12u);
  EXPECT_EQ(topo.contents.size(), 24u);
  EXPECT_EQ(topo.graph.AsCount(), 4u + 20 + 40 + 12 + 24);
}

TEST(TopologyGen, DeterministicForSeed) {
  const Topology a = GenerateTopology(SmallParams(7));
  const Topology b = GenerateTopology(SmallParams(7));
  EXPECT_EQ(a.graph.AllAses(), b.graph.AllAses());
  EXPECT_EQ(a.graph.LinkCount(), b.graph.LinkCount());
  ASSERT_EQ(a.prefix_origins.size(), b.prefix_origins.size());
  for (std::size_t i = 0; i < a.prefix_origins.size(); ++i) {
    EXPECT_EQ(a.prefix_origins[i].prefix, b.prefix_origins[i].prefix);
    EXPECT_EQ(a.prefix_origins[i].origin, b.prefix_origins[i].origin);
  }
}

TEST(TopologyGen, SeedsChangeTheGraph) {
  const Topology a = GenerateTopology(SmallParams(1));
  const Topology b = GenerateTopology(SmallParams(2));
  EXPECT_NE(a.graph.LinkCount(), b.graph.LinkCount());
}

TEST(TopologyGen, Tier1FormsAPeeringClique) {
  const Topology topo = GenerateTopology(SmallParams());
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      EXPECT_EQ(topo.graph.RelationshipBetween(topo.tier1[i], topo.tier1[j]),
                Relationship::kPeer);
    }
  }
}

TEST(TopologyGen, Tier1HasNoProviders) {
  const Topology topo = GenerateTopology(SmallParams());
  for (AsNumber asn : topo.tier1) {
    EXPECT_EQ(topo.graph.ProviderCount(topo.graph.MustIndexOf(asn)), 0u);
  }
}

TEST(TopologyGen, EveryStubHasAProvider) {
  const Topology topo = GenerateTopology(SmallParams());
  for (const auto& group : {topo.eyeballs, topo.hostings, topo.contents}) {
    for (AsNumber asn : group) {
      EXPECT_GE(topo.graph.ProviderCount(topo.graph.MustIndexOf(asn)), 1u)
          << "AS" << asn << " is disconnected";
    }
  }
}

TEST(TopologyGen, StubsProvideTransitToNobody) {
  const Topology topo = GenerateTopology(SmallParams());
  for (const auto& group : {topo.eyeballs, topo.contents}) {
    for (AsNumber asn : group) {
      EXPECT_EQ(topo.graph.CustomerCount(topo.graph.MustIndexOf(asn)), 0u);
    }
  }
}

TEST(TopologyGen, CustomerProviderHierarchyIsAcyclic) {
  const Topology topo = GenerateTopology(SmallParams());
  // Kahn-style check on the provider->customer digraph.
  const std::size_t n = topo.graph.AsCount();
  std::vector<std::size_t> provider_count(n, 0);
  for (AsIndex as = 0; as < n; ++as) {
    provider_count[as] = topo.graph.ProviderCount(as);
  }
  std::vector<AsIndex> queue;
  for (AsIndex as = 0; as < n; ++as) {
    if (provider_count[as] == 0) queue.push_back(as);
  }
  std::size_t visited = 0;
  while (!queue.empty()) {
    const AsIndex current = queue.back();
    queue.pop_back();
    ++visited;
    for (const Neighbor& nb : topo.graph.NeighborsOf(current)) {
      if (nb.rel == Relationship::kCustomer && --provider_count[nb.index] == 0) {
        queue.push_back(nb.index);
      }
    }
  }
  EXPECT_EQ(visited, n) << "cycle in customer-provider hierarchy";
}

TEST(TopologyGen, PrefixesAreDisjointAcrossAses) {
  const Topology topo = GenerateTopology(SmallParams());
  netbase::PrefixTrie<AsNumber> trie;
  for (const PrefixOrigin& po : topo.prefix_origins) {
    // No prefix may be contained in (or equal to) an existing one.
    EXPECT_FALSE(trie.MostSpecificCovering(po.prefix).has_value())
        << po.prefix.ToString() << " overlaps";
    EXPECT_TRUE(trie.CoveredBy(po.prefix).empty())
        << po.prefix.ToString() << " covers an earlier prefix";
    trie.Insert(po.prefix, po.origin);
  }
}

TEST(TopologyGen, EveryAsOriginatesAtLeastOnePrefix) {
  const Topology topo = GenerateTopology(SmallParams());
  for (AsNumber asn : topo.graph.AllAses()) {
    EXPECT_FALSE(topo.PrefixesOf(asn).empty()) << "AS" << asn;
  }
}

TEST(TopologyGen, RolesAreQueryable) {
  const Topology topo = GenerateTopology(SmallParams());
  EXPECT_EQ(topo.RoleOf(topo.tier1.front()), AsRole::kTier1);
  EXPECT_EQ(topo.RoleOf(topo.hostings.front()), AsRole::kHosting);
  EXPECT_THROW((void)topo.RoleOf(9999999), std::invalid_argument);
}

TEST(TopologyGen, RejectsDegenerateParams) {
  TopologyParams params = SmallParams();
  params.tier1_count = 0;
  EXPECT_THROW((void)GenerateTopology(params), std::invalid_argument);
  params = SmallParams();
  params.eyeball_count = params.hosting_count = params.content_count = 0;
  EXPECT_THROW((void)GenerateTopology(params), std::invalid_argument);
}

TEST(TopologyGen, RoleNamesReadable) {
  EXPECT_EQ(ToString(AsRole::kTier1), "tier1");
  EXPECT_EQ(ToString(AsRole::kHosting), "hosting");
}

}  // namespace
}  // namespace quicksand::bgp
