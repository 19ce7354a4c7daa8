#include "bgp/route_computation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "bgp/topology_gen.hpp"

namespace quicksand::bgp {
namespace {

// Classic textbook topology:
//
//        T1 ---- T2        (tier-1 peers)
//       /  .    /  .
//      A    .  .    B      (A customer of T1; B customer of T2)
//      |     ..     |
//      |     ..     |
//      C    .  .    D      (C customer of A; D customer of B)
//           M1--M2         (M1 customer of T1, M2 customer of T2, M1--M2 peers)
AsGraph DiamondGraph() {
  AsGraph graph;
  for (AsNumber asn : {10u, 20u, 100u, 200u, 1000u, 2000u, 31u, 32u}) graph.AddAs(asn);
  graph.AddPeerLink(10, 20);        // T1 -- T2
  graph.AddCustomerLink(10, 100);   // T1 -> A
  graph.AddCustomerLink(20, 200);   // T2 -> B
  graph.AddCustomerLink(100, 1000); // A -> C
  graph.AddCustomerLink(200, 2000); // B -> D
  graph.AddCustomerLink(10, 31);    // T1 -> M1
  graph.AddCustomerLink(20, 32);    // T2 -> M2
  graph.AddPeerLink(31, 32);        // M1 -- M2
  return graph;
}

bool IsValleyFree(const AsGraph& graph, const AsPath& path) {
  // Once a path goes from provider->customer or crosses a peer link, it
  // may never go customer->provider or cross another peer link again
  // (viewed from origin towards the announcing AS we check in reverse:
  // walk from front (receiver) to back (origin) must be uphill* then at
  // most one peer link then downhill*).
  const auto hops = path.DistinctAses();
  if (hops.size() < 2) return true;
  // Phase 0: ascending (towards origin means: receiver side climbs via
  // provider links in reverse). Simpler check: classify each step from
  // front to back as up (next is my provider... ). We instead verify the
  // canonical condition on the export sequence: in announcement order
  // (origin -> receiver, i.e. reverse iteration), steps are
  // customer->provider* , then <=1 peer step, then provider->customer*.
  enum Phase { kUp, kDown };
  Phase phase = kUp;
  int peer_steps = 0;
  for (std::size_t i = hops.size(); i-- > 1;) {
    const AsNumber from = hops[i];      // closer to origin
    const AsNumber to = hops[i - 1];    // receiver of the announcement
    const auto rel = graph.RelationshipBetween(from, to);
    if (!rel) return false;  // non-adjacent hop
    switch (*rel) {
      case Relationship::kProvider:  // 'to' is provider of 'from': uphill
        if (phase == kDown) return false;
        break;
      case Relationship::kPeer:
        if (phase == kDown) return false;
        ++peer_steps;
        phase = kDown;
        break;
      case Relationship::kCustomer:  // downhill
        phase = kDown;
        break;
    }
  }
  return peer_steps <= 1;
}

TEST(RouteComputation, OriginGetsSelfRoute) {
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 1000);
  const AsIndex origin = graph.MustIndexOf(1000);
  EXPECT_EQ(state.RouteOf(origin).cls, RouteClass::kSelf);
  EXPECT_EQ(state.PathOf(origin), AsPath{1000});
}

TEST(RouteComputation, AllAsesReachAStubInConnectedGraph) {
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 1000);
  EXPECT_EQ(state.RoutedCount(), graph.AsCount());
}

TEST(RouteComputation, PathsFollowGaoRexfordPreferences) {
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 1000);

  // A learns from its customer C directly.
  const AsIndex a = graph.MustIndexOf(100);
  EXPECT_EQ(state.RouteOf(a).cls, RouteClass::kCustomer);
  EXPECT_EQ(state.PathOf(a), (AsPath{100, 1000}));

  // T1 learns from its customer A.
  const AsIndex t1 = graph.MustIndexOf(10);
  EXPECT_EQ(state.RouteOf(t1).cls, RouteClass::kCustomer);
  EXPECT_EQ(state.PathOf(t1), (AsPath{10, 100, 1000}));

  // T2 learns from its peer T1 (customer routes are exported to peers).
  const AsIndex t2 = graph.MustIndexOf(20);
  EXPECT_EQ(state.RouteOf(t2).cls, RouteClass::kPeer);
  EXPECT_EQ(state.PathOf(t2), (AsPath{20, 10, 100, 1000}));

  // D reaches C through its provider chain.
  const AsIndex d = graph.MustIndexOf(2000);
  EXPECT_EQ(state.RouteOf(d).cls, RouteClass::kProvider);
  EXPECT_EQ(state.PathOf(d), (AsPath{2000, 200, 20, 10, 100, 1000}));
}

TEST(RouteComputation, PeerRouteNotExportedToPeer) {
  // M2's route to C is via its provider T2 (provider class) — M2 must NOT
  // give it to its peer M1; M1 should route via T1 instead. Conversely
  // M1's provider route must not leak to M2.
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 1000);
  const AsIndex m1 = graph.MustIndexOf(31);
  const AsIndex m2 = graph.MustIndexOf(32);
  EXPECT_EQ(state.RouteOf(m1).cls, RouteClass::kProvider);
  EXPECT_EQ(state.PathOf(m1), (AsPath{31, 10, 100, 1000}));
  EXPECT_EQ(state.RouteOf(m2).cls, RouteClass::kProvider);
  EXPECT_EQ(state.PathOf(m2), (AsPath{32, 20, 10, 100, 1000}));
}

TEST(RouteComputation, CustomerRoutePreferredOverShorterPeerOrProvider) {
  // B: customer D announces. T2 also hears it via peering. B must use its
  // customer route even when a path via its provider would exist.
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 2000);
  const AsIndex b = graph.MustIndexOf(200);
  EXPECT_EQ(state.RouteOf(b).cls, RouteClass::kCustomer);
  EXPECT_EQ(state.PathOf(b), (AsPath{200, 2000}));
}

TEST(RouteComputation, DisabledLinkReroutesTraffic) {
  const AsGraph graph = DiamondGraph();
  const std::uint64_t disabled[] = {LinkKey(graph.MustIndexOf(10), graph.MustIndexOf(100))};
  ComputationOptions options;
  options.disabled_links = disabled;
  const RoutingState state = ComputeRoutes(graph, 1000, options);
  // T1 can no longer use A; C stays reachable only via A, so T1 has no
  // route at all (A's only other neighbour is C itself).
  EXPECT_FALSE(state.HasRoute(graph.MustIndexOf(10)));
  // A itself still routes directly.
  EXPECT_TRUE(state.HasRoute(graph.MustIndexOf(100)));
}

TEST(RouteComputation, PrependingLengthensPath) {
  const AsGraph graph = DiamondGraph();
  const OriginSpec spec{1000, 3, 0};
  const RoutingState state =
      ComputeRoutes(graph, std::span<const OriginSpec>(&spec, 1));
  const AsIndex a = graph.MustIndexOf(100);
  EXPECT_EQ(state.PathOf(a), (AsPath{100, 1000, 1000, 1000}));
  EXPECT_EQ(state.RouteOf(a).length, 4);
}

TEST(RouteComputation, PropagationRadiusLimitsSpread) {
  const AsGraph graph = DiamondGraph();
  const OriginSpec spec{1000, 1, 2};  // paths of at most 2 hops
  const RoutingState state =
      ComputeRoutes(graph, std::span<const OriginSpec>(&spec, 1));
  EXPECT_TRUE(state.HasRoute(graph.MustIndexOf(100)));   // path length 2
  EXPECT_FALSE(state.HasRoute(graph.MustIndexOf(10)));   // would be 3
  EXPECT_FALSE(state.HasRoute(graph.MustIndexOf(2000)));
}

TEST(RouteComputation, MultiOriginSplitsTheInternet) {
  const AsGraph graph = DiamondGraph();
  const OriginSpec origins[] = {{1000, 1, 0}, {2000, 1, 0}};
  const RoutingState state = ComputeRoutes(graph, origins);
  // Each side of the diamond routes to its nearby origin.
  const AsIndex a = graph.MustIndexOf(100);
  const AsIndex b = graph.MustIndexOf(200);
  EXPECT_EQ(graph.AsnOf(state.RouteOf(a).origin), 1000u);
  EXPECT_EQ(graph.AsnOf(state.RouteOf(b).origin), 2000u);
  EXPECT_EQ(state.AsesRoutedTo(graph.MustIndexOf(1000)).size() +
                state.AsesRoutedTo(graph.MustIndexOf(2000)).size(),
            graph.AsCount());
}

/// 1 -> 2 -> 3: AS 1 is the provider of 2, which is the provider of 3.
AsGraph ChainGraph() {
  AsGraph graph;
  for (AsNumber asn : {1u, 2u, 3u}) graph.AddAs(asn);
  graph.AddCustomerLink(1, 2);
  graph.AddCustomerLink(2, 3);
  return graph;
}

/// The std::invalid_argument message ComputeRoutes throws for `spec`, or
/// "" if it does not throw one.
std::string RejectionOf(const AsGraph& graph, const OriginSpec& spec) {
  try {
    (void)ComputeRoutes(graph, std::span<const OriginSpec>(&spec, 1));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RouteComputation, InputValidation) {
  const AsGraph graph = DiamondGraph();
  EXPECT_THROW((void)ComputeRoutes(graph, 777), std::invalid_argument);  // unknown
  const OriginSpec bad_prepend{1000, 0, 0};
  EXPECT_THROW((void)ComputeRoutes(graph, std::span<const OriginSpec>(&bad_prepend, 1)),
               std::invalid_argument);
  const OriginSpec dup[] = {{1000, 1, 0}, {1000, 1, 0}};
  EXPECT_THROW((void)ComputeRoutes(graph, dup), std::invalid_argument);

  // A prepend whose longest route (prepend + AsCount - 1) overflows
  // RouteEntry::length, and a negative radius, fail closed naming the
  // origin instead of returning a truncated or empty table.
  const AsGraph chain = ChainGraph();
  EXPECT_NE(RejectionOf(chain, OriginSpec{3, 70000, 0}).find("AS3"), std::string::npos);
  EXPECT_NE(RejectionOf(chain, OriginSpec{3, 65534, 0}).find("AS3"), std::string::npos);
  EXPECT_NE(RejectionOf(chain, OriginSpec{3, 1, -1}).find("AS3"), std::string::npos);
  // The longest prepend that fits is accepted and reported exactly.
  const OriginSpec longest{3, 65533, 0};
  const RoutingState state = ComputeRoutes(chain, std::span<const OriginSpec>(&longest, 1));
  EXPECT_EQ(state.RoutedCount(), 3u);
  const AsIndex top = chain.MustIndexOf(1);
  EXPECT_EQ(state.RouteOf(top).length, kMaxRouteLength);
  EXPECT_EQ(state.PathOf(top).Length(), state.RouteOf(top).length);
}

TEST(RouteComputation, ForwardingPathMatchesAdvertisedPath) {
  const AsGraph graph = DiamondGraph();
  const RoutingState state = ComputeRoutes(graph, 1000);
  for (AsIndex as = 0; as < graph.AsCount(); ++as) {
    if (!state.HasRoute(as)) continue;
    const auto forwarding = state.ForwardingPath(as);
    const auto advertised = state.PathOf(as).DistinctAses();
    ASSERT_EQ(forwarding.size(), advertised.size());
    for (std::size_t i = 0; i < forwarding.size(); ++i) {
      EXPECT_EQ(graph.AsnOf(forwarding[i]), advertised[i]);
    }
  }
}

// ---- The paper topology: golden tables and the salt-shift oracle ----

/// The paper benches' world: default TopologyParams at the paper seed.
const Topology& PaperTopology() {
  static const Topology topology = [] {
    TopologyParams params;
    params.seed = 20140501;
    return GenerateTopology(params);
  }();
  return topology;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// Folds (cls, next_hop, origin, length) of every AS, in index order and
/// little-endian field bytes, into an FNV-1a digest.
void HashRoutes(std::uint64_t& h, const RoutingState& state) {
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  };
  for (AsIndex as = 0; as < state.graph().AsCount(); ++as) {
    const RouteEntry& e = state.RouteOf(as);
    mix(static_cast<std::uint8_t>(e.cls), 1);
    mix(e.next_hop, 4);
    mix(e.origin, 4);
    mix(e.length, 2);
  }
}

/// One link on a forwarding path of `state`: the middle link of the path
/// from the first AS, starting half the index space past `origin`, whose
/// path has a link.
std::uint64_t OnPathLink(const RoutingState& state, AsIndex origin) {
  const auto n = static_cast<AsIndex>(state.graph().AsCount());
  for (AsIndex step = 0; step < n; ++step) {
    const auto path = state.ForwardingPath((origin + n / 2 + step) % n);
    if (path.size() < 2) continue;
    const std::size_t k = (path.size() - 2) / 2;
    return LinkKey(path[k], path[k + 1]);
  }
  return 0;
}

void ExpectSameRoutes(const RoutingState& actual, const RoutingState& expected,
                      const std::string& what) {
  ASSERT_EQ(actual.graph().AsCount(), expected.graph().AsCount()) << what;
  std::size_t mismatches = 0;
  for (AsIndex as = 0; as < actual.graph().AsCount(); ++as) {
    if (!(actual.RouteOf(as) == expected.RouteOf(as))) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

// Every origin of the paper topology under zero salts, its policy salts,
// policy salts plus one failed on-path link, and a two-origin announcement
// (the first origin prepending 3, its neighbour in index order with
// radius 5). The constants were produced by running this digest against
// the map-frontier solver this kernel replaced (commit c9dbe5a), built
// RelWithDebInfo with gcc 12; the flat kernel must reproduce them.
TEST(RouteComputation, GoldenDigestOfThePaperTopology) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  ASSERT_EQ(graph.AsCount(), 608u);
  const auto n = static_cast<AsIndex>(graph.AsCount());
  std::uint64_t zero = kFnvOffset, salted = kFnvOffset, failed = kFnvOffset, moas = kFnvOffset;
  ComputationOptions with_salts;
  with_salts.tie_break_salts = topo.policy_salts;
  for (AsIndex o = 0; o < n; ++o) {
    const AsNumber origin = graph.AsnOf(o);
    const RoutingState plain = ComputeRoutes(graph, origin);
    HashRoutes(zero, plain);
    HashRoutes(salted, ComputeRoutes(graph, origin, with_salts));
    const std::uint64_t disabled[] = {OnPathLink(plain, o)};
    ComputationOptions failed_options = with_salts;
    failed_options.disabled_links = disabled;
    HashRoutes(failed, ComputeRoutes(graph, origin, failed_options));
    const OriginSpec pair[] = {{origin, 3, 0}, {graph.AsnOf((o + 1) % n), 1, 5}};
    HashRoutes(moas, ComputeRoutes(graph, pair, with_salts));
  }
  EXPECT_EQ(zero, 0x272738567AB658F4ULL);
  EXPECT_EQ(salted, 0xDF5A75C64B1E752CULL);
  EXPECT_EQ(failed, 0x008A75B02EDA38C0ULL);
  EXPECT_EQ(moas, 0x8695BA539667C840ULL);
}

/// Distinct non-zero salts per AS, numbered by `which`.
std::uint64_t ShiftSaltFor(AsIndex as, int which) {
  return (std::uint64_t{as} * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(which + 1) * 0xC0FFEE51ULL) |
         1;
}

/// An AS `as` and the link to its next hop whose failure leaves `as` a
/// route of the same class and length: after the failure the old next hop
/// still offers `as` an equally good route, across the failed link.
std::pair<AsIndex, std::uint64_t> TiedLink(const RoutingState& state, AsIndex origin) {
  const auto n = static_cast<AsIndex>(state.graph().AsCount());
  for (AsIndex step = 0; step < n; ++step) {
    const AsIndex as = (origin + n / 2 + step) % n;
    const RouteEntry& route = state.RouteOf(as);
    if (route.cls == RouteClass::kSelf || route.cls == RouteClass::kNone) continue;
    const std::uint64_t failed[] = {LinkKey(as, route.next_hop)};
    ComputationOptions options;
    options.disabled_links = failed;
    const RoutingState after =
        ComputeRoutes(state.graph(), state.graph().AsnOf(route.origin), options);
    if (after.RouteOf(as).cls == route.cls && after.RouteOf(as).length == route.length) {
      return {as, failed[0]};
    }
  }
  return {0, 0};
}

// SNIPPETS.md exp1's before/after snapshot, for salt shifts: for several
// origins, every AS x and two salts, shifting the unperturbed state and a
// link-failed state (under zero and under policy base salts) must give
// exactly the table a solve with x's salt replaced gives. The failed link
// is one an equally good exporter sits behind, and its near end is
// shifted under many salts, so a shift that chose across it would show.
TEST(SaltShift, EqualsASolveWithThatSaltReplaced) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const std::vector<std::uint64_t> zero_salts(graph.AsCount(), 0);
  for (const AsNumber origin : {topo.hostings.front(), topo.eyeballs.back(), topo.transits[3]}) {
    const auto [tied, link] = TiedLink(ComputeRoutes(graph, origin), graph.MustIndexOf(origin));
    ASSERT_NE(link, 0u) << "origin AS" << origin;
    const std::uint64_t disabled[] = {link};
    for (const std::vector<std::uint64_t>* base_salts : {&zero_salts, &topo.policy_salts}) {
      for (const std::span<const std::uint64_t> failed : {std::span<const std::uint64_t>{},
                                                          std::span<const std::uint64_t>(disabled)}) {
        ComputationOptions options;
        options.tie_break_salts = *base_salts;
        options.disabled_links = failed;
        const RoutingState base = ComputeRoutes(graph, origin, options);
        std::vector<std::uint64_t> salts = *base_salts;
        for (AsIndex x = 0; x < graph.AsCount(); ++x) {
          const int salt_count = x == tied ? 32 : 2;
          for (int which = 0; which < salt_count; ++which) {
            salts[x] = ShiftSaltFor(x, which);
            options.tie_break_salts = salts;
            ExpectSameRoutes(ShiftSalt(base, x, salts[x]), ComputeRoutes(graph, origin, options),
                             "origin AS" + std::to_string(origin) + " x=" + std::to_string(x) +
                                 " salt " + std::to_string(which) +
                                 (!failed.empty() ? " link-failed" : "") +
                                 (base_salts == &zero_salts ? "" : " policy salts"));
          }
          salts[x] = (*base_salts)[x];
        }
      }
    }
  }
}

TEST(SaltShift, ChainsEqualOneSolveWithAllSalts) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const auto n = static_cast<AsIndex>(graph.AsCount());
  const AsNumber origin = topo.hostings[2];
  const std::uint64_t disabled[] = {
      OnPathLink(ComputeRoutes(graph, origin), graph.MustIndexOf(origin))};
  for (const std::span<const std::uint64_t> failed :
       {std::span<const std::uint64_t>{}, std::span<const std::uint64_t>(disabled)}) {
    ComputationOptions options;
    options.disabled_links = failed;
    const RoutingState base = ComputeRoutes(graph, origin, options);
    for (AsIndex x = 0; x < n; ++x) {
      const AsIndex y = (x * 7 + 3) % n;
      std::vector<std::uint64_t> salts(n, 0);
      // Two ASes in turn (one solve with both salts)...
      salts[x] = ShiftSaltFor(x, 0);
      salts[y] = ShiftSaltFor(y, 1);
      options.tie_break_salts = salts;
      ExpectSameRoutes(ShiftSalt(ShiftSalt(base, x, salts[x]), y, salts[y]),
                       ComputeRoutes(graph, origin, options), "x then y, x=" + std::to_string(x));
      // ...and one AS twice (the second salt wins).
      salts.assign(n, 0);
      salts[x] = ShiftSaltFor(x, 1);
      options.tie_break_salts = salts;
      ExpectSameRoutes(ShiftSalt(ShiftSalt(base, x, ShiftSaltFor(x, 0)), x, salts[x]),
                       ComputeRoutes(graph, origin, options), "x twice, x=" + std::to_string(x));
    }
  }
}

TEST(SaltShift, RejectsStatesItCannotUpdateExactly) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const OriginSpec two[] = {{topo.hostings[0], 1, 0}, {topo.hostings[1], 1, 0}};
  const RoutingState moas = ComputeRoutes(graph, two);
  EXPECT_THROW((void)ShiftSalt(moas, 0, 7), std::invalid_argument);
  const OriginSpec scoped{topo.hostings[0], 1, 4};
  const RoutingState radius = ComputeRoutes(graph, std::span<const OriginSpec>(&scoped, 1));
  EXPECT_THROW((void)ShiftSalt(radius, 0, 7), std::invalid_argument);
  const RoutingState plain = ComputeRoutes(graph, topo.hostings[0]);
  EXPECT_THROW((void)ShiftSalt(plain, static_cast<AsIndex>(graph.AsCount()), 7),
               std::invalid_argument);

  // One origin that prepends, without a radius, stays exact.
  const OriginSpec prepended{topo.hostings[0], 3, 0};
  const RoutingState base = ComputeRoutes(graph, std::span<const OriginSpec>(&prepended, 1));
  std::vector<std::uint64_t> salts(graph.AsCount(), 0);
  ComputationOptions options;
  for (AsIndex x = 0; x < graph.AsCount(); ++x) {
    salts[x] = ShiftSaltFor(x, 0);
    options.tie_break_salts = salts;
    ExpectSameRoutes(ShiftSalt(base, x, salts[x]),
                     ComputeRoutes(graph, std::span<const OriginSpec>(&prepended, 1), options),
                     "prepend 3, x=" + std::to_string(x));
    salts[x] = 0;
  }
}

// ---- FailLink: the link-failure oracle (SNIPPETS.md exp1, as above) ----

/// Every link of `graph` as a LinkKey.
std::vector<std::uint64_t> AllLinks(const AsGraph& graph) {
  std::vector<std::uint64_t> links;
  for (AsIndex a = 0; a < graph.AsCount(); ++a) {
    for (const Neighbor& nb : graph.NeighborsOf(a)) {
      if (a < nb.index) links.push_back(LinkKey(a, nb.index));
    }
  }
  return links;
}

/// ExpectSameRoutes plus the failed-link list, which ShiftSalt reads.
void ExpectSameState(const RoutingState& actual, const RoutingState& expected,
                     const std::string& what) {
  ExpectSameRoutes(actual, expected, what);
  EXPECT_TRUE(std::ranges::equal(actual.FailedLinks(), expected.FailedLinks())) << what;
}

/// Does `src`'s forwarding path in `state` cross `link`?
bool PathUsesLink(const RoutingState& state, AsIndex src, std::uint64_t link) {
  const auto path = state.ForwardingPath(src);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (LinkKey(path[i], path[i + 1]) == link) return true;
  }
  return false;
}

// For every link of the paper topology and one origin per role, under zero
// and under policy salts: failing the link in a solved state must give the
// table (and failed-link list) a solve with that link failed gives. Under
// policy salts both ends of the link are then re-salted, which must still
// equal a solve: a derived state that forgot its failed link would let
// ShiftSalt choose across it. The keys must include ones where an AS whose
// path does not cross the link changes its route (the improvement wave), or
// a subtree-only update would pass this oracle.
TEST(FailLink, EqualsASolveForEveryLinkOfThePaperTopology) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const std::vector<std::uint64_t> links = AllLinks(graph);
  const std::vector<std::uint64_t> zero_salts;
  std::size_t keys = 0;
  std::size_t outside_changes = 0;
  for (const AsNumber origin : {topo.tier1[1], topo.transits[5], topo.eyeballs[17],
                                topo.hostings[3], topo.contents[11]}) {
    for (const std::vector<std::uint64_t>* salts : {&zero_salts, &topo.policy_salts}) {
      ComputationOptions options;
      options.tie_break_salts = *salts;
      const RoutingState base = ComputeRoutes(graph, origin, options);
      for (const std::uint64_t link : links) {
        const std::string what = "origin AS" + std::to_string(origin) + " link " +
                                 std::to_string(link) +
                                 (salts == &zero_salts ? "" : " policy salts");
        options.disabled_links = std::span(&link, 1);
        const RoutingState solved = ComputeRoutes(graph, origin, options);
        const RoutingState derived = FailLink(base, link, *salts);
        ExpectSameState(derived, solved, what);
        ++keys;
        for (AsIndex as = 0; as < graph.AsCount(); ++as) {
          if (!(solved.RouteOf(as) == base.RouteOf(as)) && !PathUsesLink(base, as, link)) {
            ++outside_changes;
            break;
          }
        }
        if (salts == &topo.policy_salts) {
          const auto a = static_cast<AsIndex>(link >> 32);
          const auto b = static_cast<AsIndex>(link & 0xFFFFFFFFu);
          std::vector<std::uint64_t> shifted = *salts;
          shifted[a] = ShiftSaltFor(a, 0);
          shifted[b] = ShiftSaltFor(b, 1);
          options.tie_break_salts = shifted;
          ExpectSameRoutes(ShiftSalt(ShiftSalt(derived, a, shifted[a]), b, shifted[b]),
                           ComputeRoutes(graph, origin, options), what + " shifted");
          options.tie_break_salts = *salts;
        }
        options.disabled_links = {};
      }
    }
  }
  EXPECT_EQ(keys, 10 * links.size());
  EXPECT_GT(outside_changes, 0u) << "no key re-routes an AS outside the failed subtree";
}

// Exhaustive on a small generated topology: every origin x every link.
TEST(FailLink, EqualsASolveForEveryOriginAndLinkOfASmallTopology) {
  TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 20;
  params.eyeball_count = 50;
  params.hosting_count = 16;
  params.content_count = 30;
  params.seed = 20140517;
  const Topology topo = GenerateTopology(params);
  const AsGraph& graph = topo.graph;
  ASSERT_EQ(graph.AsCount(), 120u);
  const std::vector<std::uint64_t> links = AllLinks(graph);
  for (AsIndex o = 0; o < graph.AsCount(); ++o) {
    ComputationOptions options;
    options.tie_break_salts = topo.policy_salts;
    const RoutingState base = ComputeRoutes(graph, graph.AsnOf(o), options);
    for (const std::uint64_t link : links) {
      options.disabled_links = std::span(&link, 1);
      ExpectSameState(FailLink(base, link, topo.policy_salts),
                      ComputeRoutes(graph, graph.AsnOf(o), options),
                      "origin index " + std::to_string(o) + " link " + std::to_string(link));
    }
  }
}

TEST(FailLink, ChainsAndRepeatsEqualOneSolve) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const std::vector<std::uint64_t> links = AllLinks(graph);
  const auto n = static_cast<AsIndex>(graph.AsCount());
  for (AsIndex o = 0; o < n; o += 19) {
    const AsNumber origin = graph.AsnOf(o);
    ComputationOptions options;
    options.tie_break_salts = topo.policy_salts;
    const RoutingState base = ComputeRoutes(graph, origin, options);
    // An on-path link and one from the whole link list, in turn.
    const std::uint64_t both[] = {OnPathLink(base, o), links[(o * 131) % links.size()]};
    options.disabled_links = both;
    const RoutingState solved = ComputeRoutes(graph, origin, options);
    const std::string what = "origin AS" + std::to_string(origin);
    ExpectSameState(FailLink(FailLink(base, both[0], topo.policy_salts), both[1],
                             topo.policy_salts),
                    solved, what + " first then second");
    ExpectSameState(FailLink(FailLink(base, both[1], topo.policy_salts), both[0],
                             topo.policy_salts),
                    solved, what + " second then first");
    // Failing the same link again changes nothing.
    const RoutingState once = FailLink(base, both[0], topo.policy_salts);
    ExpectSameState(FailLink(once, both[0], topo.policy_salts), once, what + " twice");
  }
}

TEST(FailLink, LinksNoPathCrossesChangeOnlyTheFailedList) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const AsNumber origin = topo.eyeballs[4];
  const RoutingState base = ComputeRoutes(graph, origin);
  // A link that no AS forwards over...
  std::uint64_t unused = 0;
  for (const std::uint64_t link : AllLinks(graph)) {
    if (base.CountCrossing(link, graph.AsCount()) == 0) {
      unused = link;
      break;
    }
  }
  ASSERT_NE(unused, 0u);
  // ...and two ASes with no link between them.
  AsIndex far = 1;
  while (graph.LinkIdOf(LinkKey(0, far))) ++far;
  for (const std::uint64_t link : {unused, LinkKey(0, far)}) {
    const RoutingState derived = FailLink(base, link, {});
    ExpectSameRoutes(derived, base, "link " + std::to_string(link));
    ASSERT_EQ(derived.FailedLinks().size(), 1u);
    EXPECT_EQ(derived.FailedLinks()[0], link);
    ComputationOptions options;
    options.disabled_links = std::span(&link, 1);
    ExpectSameState(derived, ComputeRoutes(graph, origin, options),
                    "link " + std::to_string(link));
  }
}

TEST(FailLink, RejectsStatesItCannotUpdateExactly) {
  const Topology& topo = PaperTopology();
  const AsGraph& graph = topo.graph;
  const OriginSpec two[] = {{topo.hostings[0], 1, 0}, {topo.hostings[1], 1, 0}};
  const RoutingState moas = ComputeRoutes(graph, two);
  const std::uint64_t link = OnPathLink(moas, graph.MustIndexOf(topo.hostings[0]));
  EXPECT_THROW((void)FailLink(moas, link, {}), std::invalid_argument);
  const OriginSpec scoped{topo.hostings[0], 1, 4};
  const RoutingState radius = ComputeRoutes(graph, std::span<const OriginSpec>(&scoped, 1));
  EXPECT_THROW((void)FailLink(radius, link, {}), std::invalid_argument);
  const RoutingState plain = ComputeRoutes(graph, topo.hostings[0]);
  const std::vector<std::uint64_t> short_salts(graph.AsCount() - 1, 5);
  EXPECT_THROW((void)FailLink(plain, link, short_salts), std::invalid_argument);

  // One origin that prepends, without a radius, stays exact.
  const OriginSpec prepended{topo.hostings[0], 3, 0};
  const RoutingState base = ComputeRoutes(graph, std::span<const OriginSpec>(&prepended, 1));
  const std::uint64_t on_path = OnPathLink(base, graph.MustIndexOf(topo.hostings[0]));
  ComputationOptions options;
  options.disabled_links = std::span(&on_path, 1);
  ExpectSameState(FailLink(base, on_path, {}),
                  ComputeRoutes(graph, std::span<const OriginSpec>(&prepended, 1), options),
                  "prepend 3");
}

// The kernel keeps its working memory per thread and reuses it across
// solves. One thread alternating between graphs of very different sizes
// (and level counts, and failed link ids) must keep matching what a fresh
// thread computes.
TEST(RouteComputation, ScratchReuseAcrossGraphSizes) {
  struct Case {
    const AsGraph* graph;
    std::vector<OriginSpec> origins;
    std::vector<std::uint64_t> disabled;
  };
  const Topology& paper = PaperTopology();
  const AsGraph diamond = DiamondGraph();
  const AsGraph chain = ChainGraph();
  const AsNumber eyeball = paper.eyeballs[9];
  std::vector<Case> cases;
  cases.push_back({&paper.graph, {{paper.hostings[4], 1, 0}}, {}});
  cases.push_back({&diamond, {{1000, 2, 0}},
                   {LinkKey(diamond.MustIndexOf(10), diamond.MustIndexOf(100))}});
  cases.push_back({&paper.graph, {{eyeball, 1, 0}},
                   {OnPathLink(ComputeRoutes(paper.graph, eyeball),
                               paper.graph.MustIndexOf(eyeball))}});
  cases.push_back({&chain, {{3, 65533, 0}}, {}});
  // Prepends 1 and 60,000: about 60k length levels on an 8-AS graph.
  cases.push_back({&diamond, {{1000, 1, 0}, {2000, 60000, 3}}, {}});

  const auto solve = [](const Case& c) {
    ComputationOptions options;
    options.disabled_links = c.disabled;
    return ComputeRoutes(*c.graph, c.origins, options);
  };
  std::vector<std::optional<RoutingState>> fresh(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::thread([&] { fresh[i].emplace(solve(cases[i])); }).join();
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::size_t k = round % 2 == 0 ? i : cases.size() - 1 - i;
      ExpectSameRoutes(solve(cases[k]), *fresh[k],
                       "round " + std::to_string(round) + " case " + std::to_string(k));
    }
  }
}

// ---- Property sweeps over generated topologies ----

class RouteComputationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteComputationProperty, AllPathsValleyFreeLoopFreeAndConsistent) {
  TopologyParams params;
  params.tier1_count = 4;
  params.transit_count = 25;
  params.eyeball_count = 40;
  params.hosting_count = 12;
  params.content_count = 30;
  params.seed = GetParam();
  const Topology topo = GenerateTopology(params);

  // Pick a handful of origins spread over roles.
  std::vector<AsNumber> origins = {topo.tier1.front(), topo.transits.front(),
                                   topo.hostings.front(), topo.eyeballs.back()};
  for (AsNumber origin : origins) {
    const RoutingState state = ComputeRoutes(topo.graph, origin);
    for (AsIndex as = 0; as < topo.graph.AsCount(); ++as) {
      if (!state.HasRoute(as)) continue;
      const AsPath path = state.PathOf(as);
      EXPECT_FALSE(path.HasLoop()) << "loop in " << path.ToString();
      EXPECT_TRUE(IsValleyFree(topo.graph, path)) << "valley in " << path.ToString();
      EXPECT_EQ(path.origin(), origin);
      EXPECT_EQ(path.Length(), state.RouteOf(as).length);
      // Adjacent hops must actually be adjacent in the graph.
      const auto hops = path.DistinctAses();
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        EXPECT_TRUE(topo.graph.RelationshipBetween(hops[i], hops[i + 1]).has_value());
      }
    }
  }
}

TEST_P(RouteComputationProperty, TieBreakSaltsOnlyFlipEqualCostChoices) {
  TopologyParams params;
  params.seed = GetParam() + 1000;
  params.tier1_count = 4;
  params.transit_count = 25;
  params.eyeball_count = 30;
  params.hosting_count = 10;
  params.content_count = 20;
  const Topology topo = GenerateTopology(params);
  const AsNumber origin = topo.hostings.front();

  const RoutingState base = ComputeRoutes(topo.graph, origin);
  std::vector<std::uint64_t> salts(topo.graph.AsCount(), 0);
  for (std::size_t i = 0; i < salts.size(); i += 3) salts[i] = GetParam() * 7919 + i;
  ComputationOptions options;
  options.tie_break_salts = salts;
  const RoutingState salted = ComputeRoutes(topo.graph, origin, options);

  for (AsIndex as = 0; as < topo.graph.AsCount(); ++as) {
    ASSERT_EQ(base.HasRoute(as), salted.HasRoute(as));
    if (!base.HasRoute(as)) continue;
    // Salting must never change route class or path length — only which
    // equally good neighbour is chosen.
    EXPECT_EQ(base.RouteOf(as).cls, salted.RouteOf(as).cls);
    EXPECT_EQ(base.RouteOf(as).length, salted.RouteOf(as).length);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteComputationProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace quicksand::bgp
