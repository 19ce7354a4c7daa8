#include "bgp/route_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bgp/route_computation.hpp"
#include "bgp/topology_gen.hpp"
#include "obs/metrics.hpp"

namespace quicksand::bgp {
namespace {

class RouteCacheTest : public ::testing::Test {
 protected:
  RouteCacheTest() {
    TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 12;
    tp.eyeball_count = 16;
    tp.hosting_count = 6;
    tp.content_count = 10;
    tp.seed = 11;
    topo_ = GenerateTopology(tp);
  }

  /// Exact state equality: same routed set and same forwarding path from
  /// every AS.
  static void ExpectSameState(const RoutingState& a, const RoutingState& b) {
    ASSERT_EQ(a.graph().AsCount(), b.graph().AsCount());
    EXPECT_EQ(a.RoutedCount(), b.RoutedCount());
    for (AsIndex as = 0; as < a.graph().AsCount(); ++as) {
      EXPECT_EQ(a.ForwardingPath(as), b.ForwardingPath(as)) << "AS index " << as;
    }
  }

  /// Entry-by-entry equality, failed-link list included.
  static bool SameTable(const RoutingState& a, const RoutingState& b) {
    for (AsIndex as = 0; as < a.graph().AsCount(); ++as) {
      if (!(a.RouteOf(as) == b.RouteOf(as))) return false;
    }
    return std::ranges::equal(a.FailedLinks(), b.FailedLinks());
  }

  /// Each routed AS's link to its next hop in `state`, as a LinkKey.
  static std::vector<std::uint64_t> TreeLinks(const RoutingState& state) {
    std::vector<std::uint64_t> links;
    for (AsIndex as = 0; as < state.graph().AsCount(); ++as) {
      const RouteEntry& route = state.RouteOf(as);
      if (route.cls != RouteClass::kSelf && route.cls != RouteClass::kNone) {
        links.push_back(LinkKey(as, route.next_hop));
      }
    }
    return links;
  }

  Topology topo_;
};

TEST_F(RouteCacheTest, HitReturnsStateIdenticalToFreshComputation) {
  RouteCache cache;
  const AsNumber origin = topo_.hostings.front();
  const auto cached = cache.GetOrCompute(topo_.graph, origin);
  ASSERT_NE(cached, nullptr);
  ExpectSameState(*cached, ComputeRoutes(topo_.graph, origin));
}

TEST_F(RouteCacheTest, RepeatLookupReturnsTheSameObject) {
  RouteCache cache;
  const AsNumber origin = topo_.hostings.front();
  const auto first = cache.GetOrCompute(topo_.graph, origin);
  const auto second = cache.GetOrCompute(topo_.graph, origin);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(RouteCacheTest, DisabledLinkSetFormsADistinctKey) {
  RouteCache cache;
  const AsNumber origin = topo_.hostings.front();
  const auto baseline = cache.GetOrCompute(topo_.graph, origin);

  // Fail the origin's first adjacency: same origin, different key, and
  // the cached perturbed state must match a fresh perturbed computation.
  const AsIndex origin_index = *topo_.graph.IndexOf(origin);
  const auto& neighbors = topo_.graph.NeighborsOf(origin_index);
  ASSERT_FALSE(neighbors.empty());
  const std::uint64_t failed[] = {LinkKey(origin_index, neighbors.front().index)};
  ComputationOptions options;
  options.disabled_links = failed;

  const auto perturbed = cache.GetOrCompute(topo_.graph, origin, options);
  EXPECT_NE(perturbed.get(), baseline.get());
  EXPECT_EQ(cache.size(), 2u);
  ExpectSameState(*perturbed, ComputeRoutes(topo_.graph, origin, options));

  // The baseline entry is untouched: looking it up again still hits.
  EXPECT_EQ(cache.GetOrCompute(topo_.graph, origin).get(), baseline.get());
}

// A miss on a link-failure key derives its state from the cached
// no-failure state with the same origin and salts (bgp::FailLink), for
// one- and two-link keys, with and without salt overrides, as long as
// every link re-routes at most kDeriveCrossover of the ASes. Past it, or
// without the base cached, the key is solved. Either way the state equals
// a solve.
TEST_F(RouteCacheTest, DerivesLinkFailuresFromTheCachedBase) {
  const AsGraph& graph = topo_.graph;
  obs::Counter& derived =
      obs::MetricsRegistry::Global().GetCounter("exec.route_cache.derived", obs::Stability::kRun);
  const AsNumber origin = topo_.eyeballs[2];
  const auto crossover = static_cast<std::size_t>(RouteCache::kDeriveCrossover *
                                                  static_cast<double>(graph.AsCount()));
  for (const bool with_override : {false, true}) {
    RouteCache cache;
    std::vector<std::uint64_t> salts = topo_.policy_salts;
    SaltKey salt_key{RouteCache::SaltEpochOf(salts), {}};
    if (with_override) {
      const AsIndex shifted = graph.MustIndexOf(topo_.transits[1]);
      salts[shifted] = 0xD1CEu;
      salt_key.overrides = {{shifted, 0xD1CEu}};
    }
    ComputationOptions options;
    options.tie_break_salts = salts;
    const RoutingState solved_base = ComputeRoutes(graph, origin, options);
    const std::vector<std::uint64_t> links = TreeLinks(solved_base);
    ASSERT_GE(links.size(), 3u);
    const auto lookup = [&](std::vector<std::uint64_t> failed, bool expect_derived) {
      const std::string what = std::to_string(failed.size()) + " link(s) from " +
                               std::to_string(failed.front()) +
                               (with_override ? ", salt override" : "");
      options.disabled_links = failed;
      const std::uint64_t before = derived.value();
      const auto state = cache.GetOrCompute(graph, origin, options, salt_key);
      EXPECT_EQ(derived.value() - before, expect_derived ? 1u : 0u) << what;
      EXPECT_TRUE(SameTable(*state, ComputeRoutes(graph, origin, options))) << what;
      options.disabled_links = {};
    };

    // Before the base is cached, a link-failure key is solved.
    lookup({links[0]}, false);
    (void)cache.GetOrCompute(graph, origin, options, salt_key);
    std::vector<std::uint64_t> small;
    std::uint64_t large = 0;
    for (const std::uint64_t link : links) {
      const std::size_t rerouted = solved_base.CountCrossing(link, graph.AsCount());
      if (rerouted <= crossover && link != links[0]) small.push_back(link);
      if (rerouted > crossover) large = link;
    }
    ASSERT_GE(small.size(), 2u);
    ASSERT_NE(large, 0u);
    for (std::size_t i = 0; i < small.size(); ++i) {
      lookup({small[i]}, true);
      lookup({small[i], small[(i + 1) % small.size()]}, true);
    }
    lookup({large}, false);
  }
}

// Four threads miss on the same link-failure keys of one cache at once,
// deriving from shared base states; every state must equal a solve. Runs
// under the TSan job like every other test.
TEST_F(RouteCacheTest, ConcurrentDerivationsEqualSolves) {
  const AsGraph& graph = topo_.graph;
  RouteCache cache;
  ComputationOptions options;
  options.tie_break_salts = topo_.policy_salts;
  const SaltKey salt_key{RouteCache::SaltEpochOf(topo_.policy_salts), {}};
  const std::vector<AsNumber> origins = {topo_.hostings[0], topo_.eyeballs[5],
                                         topo_.contents[3], topo_.transits[2]};
  std::vector<std::vector<std::uint64_t>> links;
  for (const AsNumber origin : origins) {
    links.push_back(TreeLinks(*cache.GetOrCompute(graph, origin, options, salt_key)));
  }
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> lookups{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ComputationOptions local = options;
      for (std::size_t k = 0; k < origins.size(); ++k) {
        const std::size_t i = (k + t) % origins.size();
        for (const std::uint64_t link : links[i]) {
          local.disabled_links = std::span(&link, 1);
          const auto state = cache.GetOrCompute(graph, origins[i], local, salt_key);
          if (!SameTable(*state, ComputeRoutes(graph, origins[i], local))) ++mismatches;
          ++lookups;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(lookups.load(), 4 * origins.size());
}

TEST_F(RouteCacheTest, SaltConfigurationFormsADistinctKey) {
  RouteCache cache;
  const AsNumber origin = topo_.hostings.front();
  const auto unsalted = cache.GetOrCompute(topo_.graph, origin);

  std::vector<std::uint64_t> salts(topo_.graph.AsCount(), 0);
  salts[0] = 0x5EEDu;
  ComputationOptions options;
  options.tie_break_salts = salts;
  const SaltKey salt_key{RouteCache::SaltEpochOf(salts), {}};

  const auto salted = cache.GetOrCompute(topo_.graph, origin, options, salt_key);
  EXPECT_NE(salted.get(), unsalted.get());
  EXPECT_EQ(cache.size(), 2u);
  ExpectSameState(*salted, ComputeRoutes(topo_.graph, origin, options));
  EXPECT_EQ(cache.GetOrCompute(topo_.graph, origin, options, salt_key).get(),
            salted.get());
}

TEST_F(RouteCacheTest, SaltEpochIsAContentHash) {
  EXPECT_EQ(RouteCache::SaltEpochOf({}), 0u);
  const std::vector<std::uint64_t> a = {1, 2, 3};
  const std::vector<std::uint64_t> b = {1, 2, 3};
  const std::vector<std::uint64_t> c = {1, 2, 4};
  EXPECT_EQ(RouteCache::SaltEpochOf(a), RouteCache::SaltEpochOf(b));
  EXPECT_NE(RouteCache::SaltEpochOf(a), RouteCache::SaltEpochOf(c));
  EXPECT_NE(RouteCache::SaltEpochOf(a), 0u);
}

TEST_F(RouteCacheTest, MultiOriginKeyIsCanonicalizedByAsn) {
  RouteCache cache;
  ASSERT_GE(topo_.hostings.size(), 2u);
  const OriginSpec first{topo_.hostings[0], 1, 0};
  const OriginSpec second{topo_.hostings[1], 1, 0};
  const std::vector<OriginSpec> order_a = {first, second};
  const std::vector<OriginSpec> order_b = {second, first};
  const auto a = cache.GetOrCompute(topo_.graph, order_a);
  const auto b = cache.GetOrCompute(topo_.graph, order_b);
  EXPECT_EQ(a.get(), b.get()) << "origin order must not change the key";
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(RouteCacheTest, ClearEmptiesTheCache) {
  RouteCache cache;
  const AsNumber origin = topo_.hostings.front();
  const auto before = cache.GetOrCompute(topo_.graph, origin);
  ASSERT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  const auto after = cache.GetOrCompute(topo_.graph, origin);
  EXPECT_NE(after.get(), before.get());  // recomputed, not resurrected
  ExpectSameState(*after, *before);      // ...but identical in content
}

TEST_F(RouteCacheTest, InsertionCapServesUncachedBeyondMaxEntries) {
  RouteCache cache(/*max_entries=*/1);
  const AsNumber kept = topo_.hostings[0];
  const AsNumber overflow = topo_.hostings[1];

  const auto first = cache.GetOrCompute(topo_.graph, kept);
  EXPECT_EQ(cache.size(), 1u);

  // Over the cap: still correct, just not inserted.
  const auto uncached = cache.GetOrCompute(topo_.graph, overflow);
  EXPECT_EQ(cache.size(), 1u);
  ExpectSameState(*uncached, ComputeRoutes(topo_.graph, overflow));

  // The resident entry still hits.
  EXPECT_EQ(cache.GetOrCompute(topo_.graph, kept).get(), first.get());
}

}  // namespace
}  // namespace quicksand::bgp
