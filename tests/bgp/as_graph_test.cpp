#include "bgp/as_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace quicksand::bgp {
namespace {

AsGraph SmallGraph() {
  // 100 (provider) -> 200, 300 (customers); 200 -- 300 peers;
  // 200 -> 400 (customer).
  AsGraph graph;
  for (AsNumber asn : {100u, 200u, 300u, 400u}) graph.AddAs(asn);
  graph.AddCustomerLink(100, 200);
  graph.AddCustomerLink(100, 300);
  graph.AddPeerLink(200, 300);
  graph.AddCustomerLink(200, 400);
  return graph;
}

TEST(AsGraph, AddAsIsIdempotent) {
  AsGraph graph;
  const AsIndex a = graph.AddAs(100);
  const AsIndex b = graph.AddAs(100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(graph.AsCount(), 1u);
}

TEST(AsGraph, IndexAndAsnRoundTrip) {
  const AsGraph graph = SmallGraph();
  for (AsNumber asn : graph.AllAses()) {
    const auto index = graph.IndexOf(asn);
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(graph.AsnOf(*index), asn);
  }
  EXPECT_FALSE(graph.IndexOf(999).has_value());
  EXPECT_THROW((void)graph.MustIndexOf(999), std::invalid_argument);
}

TEST(AsGraph, RelationshipsAreMirrored) {
  const AsGraph graph = SmallGraph();
  EXPECT_EQ(graph.RelationshipBetween(100, 200), Relationship::kCustomer);
  EXPECT_EQ(graph.RelationshipBetween(200, 100), Relationship::kProvider);
  EXPECT_EQ(graph.RelationshipBetween(200, 300), Relationship::kPeer);
  EXPECT_EQ(graph.RelationshipBetween(300, 200), Relationship::kPeer);
  EXPECT_FALSE(graph.RelationshipBetween(100, 400).has_value());
}

TEST(AsGraph, RejectsSelfAndDuplicateLinks) {
  AsGraph graph;
  graph.AddAs(1);
  graph.AddAs(2);
  graph.AddCustomerLink(1, 2);
  EXPECT_THROW(graph.AddCustomerLink(1, 2), std::invalid_argument);
  EXPECT_THROW(graph.AddCustomerLink(2, 1), std::invalid_argument);
  EXPECT_THROW(graph.AddPeerLink(1, 2), std::invalid_argument);
  EXPECT_THROW(graph.AddPeerLink(1, 1), std::invalid_argument);
}

TEST(AsGraph, LinkToUnknownAsThrows) {
  AsGraph graph;
  graph.AddAs(1);
  EXPECT_THROW(graph.AddCustomerLink(1, 99), std::invalid_argument);
}

TEST(AsGraph, DegreeAndRoleCounts) {
  const AsGraph graph = SmallGraph();
  const AsIndex as200 = graph.MustIndexOf(200);
  EXPECT_EQ(graph.Degree(as200), 3u);
  EXPECT_EQ(graph.ProviderCount(as200), 1u);
  EXPECT_EQ(graph.PeerCount(as200), 1u);
  EXPECT_EQ(graph.CustomerCount(as200), 1u);
  EXPECT_EQ(graph.LinkCount(), 4u);
}

TEST(AsGraph, LinkKeyIsSymmetric) {
  EXPECT_EQ(LinkKey(3, 9), LinkKey(9, 3));
  EXPECT_NE(LinkKey(3, 9), LinkKey(3, 10));
}

TEST(AsGraph, SplitAdjacencyMirrorsNeighborsInOrder) {
  AsGraph graph = SmallGraph();
  // A rejected duplicate must leave every list and the link count alone.
  EXPECT_THROW(graph.AddPeerLink(300, 200), std::invalid_argument);
  ASSERT_EQ(graph.LinkCount(), 4u);
  std::vector<bool> seen(graph.LinkCount(), false);
  for (AsIndex as = 0; as < graph.AsCount(); ++as) {
    std::vector<Edge> customers, peers, providers;
    for (const Neighbor& nb : graph.NeighborsOf(as)) {
      const auto link = graph.LinkIdOf(LinkKey(as, nb.index));
      ASSERT_TRUE(link.has_value());
      seen[*link] = true;
      auto& list = nb.rel == Relationship::kCustomer ? customers
                   : nb.rel == Relationship::kPeer   ? peers
                                                     : providers;
      list.push_back({nb.index, *link});
    }
    const auto same = [](std::span<const Edge> a, const std::vector<Edge>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                        [](const Edge& x, const Edge& y) { return x.to == y.to && x.link == y.link; });
    };
    EXPECT_TRUE(same(graph.CustomersOf(as), customers)) << "AS index " << as;
    EXPECT_TRUE(same(graph.PeersOf(as), peers)) << "AS index " << as;
    EXPECT_TRUE(same(graph.ProvidersOf(as), providers)) << "AS index " << as;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_FALSE(graph.LinkIdOf(LinkKey(0, 3)).has_value());  // 100 and 400 are not adjacent
}

TEST(RelationshipNames, AreHumanReadable) {
  EXPECT_EQ(ToString(Relationship::kCustomer), "customer");
  EXPECT_EQ(ToString(Relationship::kPeer), "peer");
  EXPECT_EQ(ToString(Relationship::kProvider), "provider");
}

}  // namespace
}  // namespace quicksand::bgp
