// Fixed-point oracle for the route computation: a computed state is
// correct iff it is *stable* under Gao–Rexford semantics — every AS's
// chosen route is the best candidate its neighbours' (computed) routes
// and export policies offer it, and unrouted ASes receive no offers at
// all. This checks the solution directly against the model's definition
// rather than against hand-derived expectations.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bgp/route_computation.hpp"
#include "bgp/topology_gen.hpp"

namespace quicksand::bgp {
namespace {

struct CandidateKey {
  int cls;
  int length;
  std::uint64_t score;
  friend auto operator<=>(const CandidateKey&, const CandidateKey&) = default;
};

constexpr CandidateKey kNoCandidate{99, std::numeric_limits<int>::max(),
                                    std::numeric_limits<std::uint64_t>::max()};

/// Best offer AS `u` receives from its neighbours in the computed state.
CandidateKey BestOffer(const AsGraph& graph, const RoutingState& state, AsIndex u,
                       std::span<const std::uint64_t> salts) {
  CandidateKey best = kNoCandidate;
  for (const Neighbor& nb : graph.NeighborsOf(u)) {
    const AsIndex v = nb.index;
    if (!state.HasRoute(v)) continue;
    const RouteEntry& rv = state.RouteOf(v);
    // v exports to u per its own route class and u's relationship to v.
    const auto rel_of_u_seen_from_v = graph.RelationshipBetween(nb.asn, graph.AsnOf(u));
    if (!rel_of_u_seen_from_v) {
      ADD_FAILURE() << "adjacency asymmetry at AS" << nb.asn;
      continue;
    }
    if (!MayExport(rv.cls, *rel_of_u_seen_from_v)) continue;
    // BGP loop prevention: u rejects paths containing itself.
    if (state.PathOf(v).Contains(graph.AsnOf(u))) continue;
    const CandidateKey key{
        static_cast<int>(ClassVia(nb.rel)), rv.length + 1,
        TieBreakScore(nb.asn, salts.empty() ? 0 : salts[u])};
    best = std::min(best, key);
  }
  if (best == kNoCandidate) return best;
  return best;
}

void CheckStability(const Topology& topo, const RoutingState& state, AsIndex origin,
                    std::span<const std::uint64_t> salts) {
  const AsGraph& graph = topo.graph;
  for (AsIndex u = 0; u < graph.AsCount(); ++u) {
    if (u == origin) {
      EXPECT_EQ(state.RouteOf(u).cls, RouteClass::kSelf);
      continue;
    }
    const CandidateKey best = BestOffer(graph, state, u, salts);
    if (!state.HasRoute(u)) {
      EXPECT_EQ(best, kNoCandidate)
          << "AS" << graph.AsnOf(u) << " is unrouted but receives an offer";
      continue;
    }
    const RouteEntry& ru = state.RouteOf(u);
    const CandidateKey chosen{
        static_cast<int>(ru.cls), ru.length,
        TieBreakScore(graph.AsnOf(ru.next_hop), salts.empty() ? 0 : salts[u])};
    EXPECT_EQ(chosen, best)
        << "AS" << graph.AsnOf(u) << " holds (" << ToString(ru.cls) << ", len "
        << ru.length << ") but a better offer exists: class " << best.cls
        << ", len " << best.length;
  }
}

class RouteStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteStability, ComputedStateIsAGaoRexfordFixedPoint) {
  TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 22;
  params.eyeball_count = 30;
  params.hosting_count = 10;
  params.content_count = 24;
  params.seed = GetParam();
  const Topology topo = GenerateTopology(params);

  for (AsNumber origin :
       {topo.hostings.front(), topo.eyeballs.back(), topo.tier1.front()}) {
    const RoutingState plain = ComputeRoutes(topo.graph, origin);
    CheckStability(topo, plain, topo.graph.MustIndexOf(origin), {});

    ComputationOptions options;
    options.tie_break_salts = topo.policy_salts;
    const RoutingState salted = ComputeRoutes(topo.graph, origin, options);
    CheckStability(topo, salted, topo.graph.MustIndexOf(origin), topo.policy_salts);
  }
}

TEST_P(RouteStability, StableUnderLinkFailuresToo) {
  TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 18;
  params.eyeball_count = 20;
  params.hosting_count = 8;
  params.content_count = 16;
  params.seed = GetParam() + 500;
  const Topology topo = GenerateTopology(params);
  netbase::Rng rng(GetParam());

  const AsNumber origin = topo.hostings.front();
  const RoutingState baseline = ComputeRoutes(topo.graph, origin);
  // Fail three random links from the baseline forwarding tree.
  std::unordered_set<std::uint64_t> disabled;
  for (int f = 0; f < 3; ++f) {
    const AsIndex src = static_cast<AsIndex>(rng.UniformInt(0, topo.graph.AsCount() - 1));
    if (!baseline.HasRoute(src)) continue;
    const auto path = baseline.ForwardingPath(src);
    if (path.size() < 2) continue;
    const std::size_t cut = rng.UniformInt(0, path.size() - 2);
    disabled.insert(LinkKey(path[cut], path[cut + 1]));
  }
  const std::vector<std::uint64_t> failed(disabled.begin(), disabled.end());
  ComputationOptions options;
  options.disabled_links = failed;
  const RoutingState state = ComputeRoutes(topo.graph, origin, options);

  // Oracle over the surviving adjacency: treat disabled links as absent.
  const AsGraph& graph = topo.graph;
  const AsIndex origin_index = graph.MustIndexOf(origin);
  for (AsIndex u = 0; u < graph.AsCount(); ++u) {
    if (u == origin_index) continue;
    CandidateKey best = kNoCandidate;
    for (const Neighbor& nb : graph.NeighborsOf(u)) {
      if (disabled.contains(LinkKey(u, nb.index))) continue;
      if (!state.HasRoute(nb.index)) continue;
      const RouteEntry& rv = state.RouteOf(nb.index);
      const auto rel_back = graph.RelationshipBetween(nb.asn, graph.AsnOf(u));
      if (!rel_back || !MayExport(rv.cls, *rel_back)) continue;
      if (state.PathOf(nb.index).Contains(graph.AsnOf(u))) continue;
      best = std::min(best, CandidateKey{static_cast<int>(ClassVia(nb.rel)),
                                         rv.length + 1, TieBreakScore(nb.asn, 0)});
    }
    if (!state.HasRoute(u)) {
      EXPECT_EQ(best, kNoCandidate) << "AS" << graph.AsnOf(u);
      continue;
    }
    const RouteEntry& ru = state.RouteOf(u);
    EXPECT_EQ((CandidateKey{static_cast<int>(ru.cls), ru.length,
                            TieBreakScore(graph.AsnOf(ru.next_hop), 0)}),
              best)
        << "AS" << graph.AsnOf(u) << " not on its best post-failure route";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteStability, ::testing::Values(7u, 23u, 71u, 113u));

}  // namespace
}  // namespace quicksand::bgp
