#include "bgp/dynamics_gen.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "util/stats.hpp"

namespace quicksand::bgp {
namespace {

class DynamicsGenTest : public ::testing::Test {
 protected:
  DynamicsGenTest() {
    TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 16;
    tp.eyeball_count = 20;
    tp.hosting_count = 8;
    tp.content_count = 14;
    tp.seed = 3;
    topo_ = GenerateTopology(tp);
    CollectorParams cp;
    cp.collector_count = 2;
    cp.sessions_per_collector = 6;
    cp.seed = 4;
    collectors_ = CollectorSet::Create(topo_, cp);
    params_.window = 3 * netbase::duration::kDay;
    params_.seed = 5;
  }

  Topology topo_;
  CollectorSet collectors_;
  DynamicsParams params_;
};

TEST_F(DynamicsGenTest, InitialRibCoversVisiblePrefixesAtTimeZero) {
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params_);
  ASSERT_FALSE(dyn.initial_rib.empty());
  std::unordered_set<netbase::Prefix> seen;
  for (const BgpUpdate& u : dyn.initial_rib) {
    EXPECT_EQ(u.time.seconds, 0);
    EXPECT_EQ(u.type, UpdateType::kAnnounce);
    EXPECT_FALSE(u.path.empty());
    EXPECT_LT(u.session, collectors_.SessionCount());
    seen.insert(u.prefix);
  }
  // A substantial share of the table is visible somewhere.
  EXPECT_GT(seen.size(), topo_.prefix_origins.size() / 2);
}

TEST_F(DynamicsGenTest, UpdatesAreTimeOrderedAndInWindow) {
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params_);
  ASSERT_FALSE(dyn.updates.empty());
  for (std::size_t i = 0; i < dyn.updates.size(); ++i) {
    const BgpUpdate& u = dyn.updates[i];
    EXPECT_GT(u.time.seconds, 0);
    EXPECT_LE(u.time.seconds, params_.window);
    if (i > 0) {
      EXPECT_LE(dyn.updates[i - 1].time.seconds, u.time.seconds);
    }
  }
}

TEST_F(DynamicsGenTest, AnnouncedPathsEndAtTheTruePrefixOrigin) {
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params_);
  std::map<netbase::Prefix, AsNumber> origin_of;
  for (const PrefixOrigin& po : topo_.prefix_origins) {
    origin_of[po.prefix] = po.origin;
  }
  for (const BgpUpdate& u : dyn.updates) {
    if (u.type != UpdateType::kAnnounce) continue;
    EXPECT_EQ(u.path.origin(), origin_of.at(u.prefix))
        << u.prefix.ToString() << " announced with wrong origin";
    EXPECT_FALSE(u.path.HasLoop());
  }
}

TEST_F(DynamicsGenTest, AnnouncedPathsStartAtTheSessionPeer) {
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params_);
  for (const BgpUpdate& u : dyn.updates) {
    if (u.type != UpdateType::kAnnounce) continue;
    EXPECT_EQ(u.path.front(), collectors_.SessionById(u.session).peer_as);
  }
}

TEST_F(DynamicsGenTest, DeterministicForSeed) {
  const GeneratedDynamics a = GenerateDynamics(topo_, collectors_, params_);
  const GeneratedDynamics b = GenerateDynamics(topo_, collectors_, params_);
  EXPECT_EQ(a.initial_rib, b.initial_rib);
  EXPECT_EQ(a.updates, b.updates);
}

TEST_F(DynamicsGenTest, TruthCoversEveryPrefix) {
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params_);
  EXPECT_EQ(dyn.truth.size(), topo_.prefix_origins.size());
  std::size_t hosting = 0;
  for (const PrefixDynamicsTruth& t : dyn.truth) {
    if (t.hosting_origin) ++hosting;
    EXPECT_EQ(t.hosting_origin, topo_.RoleOf(t.origin) == AsRole::kHosting);
  }
  EXPECT_GT(hosting, 0u);
}

TEST_F(DynamicsGenTest, HostingPrefixesChurnMoreOnAverage) {
  DynamicsParams params = params_;
  params.window = netbase::duration::kMonth;  // enough events to average
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params);
  // Medians, not means: per-prefix event counts are heavy-tailed, so a
  // single Pareto outlier in the (larger) non-hosting group would swamp a
  // mean comparison.
  std::vector<double> hosting_counts, other_counts;
  for (const PrefixDynamicsTruth& t : dyn.truth) {
    (t.hosting_origin ? hosting_counts : other_counts)
        .push_back(static_cast<double>(t.scheduled_events));
  }
  ASSERT_FALSE(hosting_counts.empty());
  ASSERT_FALSE(other_counts.empty());
  EXPECT_GT(util::Median(hosting_counts), 1.4 * util::Median(other_counts));
}

TEST_F(DynamicsGenTest, StreamContainsDuplicateResetArtifacts) {
  // With resets enabled, the raw stream must contain announcements that do
  // not change the session's path (exactly what the filter removes).
  DynamicsParams params = params_;
  params.session_resets_per_month = 20;  // force resets inside 3 days
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params);
  std::map<std::pair<SessionId, netbase::Prefix>, AsPath> state;
  for (const BgpUpdate& u : dyn.initial_rib) state[{u.session, u.prefix}] = u.path;
  std::size_t duplicates = 0;
  for (const BgpUpdate& u : dyn.updates) {
    if (u.type != UpdateType::kAnnounce) continue;
    auto& current = state[{u.session, u.prefix}];
    if (current == u.path) ++duplicates;
    current = u.path;
  }
  EXPECT_GT(duplicates, 0u);
}

TEST_F(DynamicsGenTest, NoResetsMeansNoDuplicateFloods) {
  DynamicsParams params = params_;
  params.session_resets_per_month = 0;
  params.convergence_prob = 0;
  const GeneratedDynamics dyn = GenerateDynamics(topo_, collectors_, params);
  // Without resets/convergence, every announce changes the path.
  std::map<std::pair<SessionId, netbase::Prefix>, AsPath> state;
  for (const BgpUpdate& u : dyn.initial_rib) state[{u.session, u.prefix}] = u.path;
  for (const BgpUpdate& u : dyn.updates) {
    auto& current = state[{u.session, u.prefix}];
    if (u.type == UpdateType::kAnnounce) {
      EXPECT_NE(current, u.path);
      current = u.path;
    } else {
      current = AsPath{};
    }
  }
}

// Resets are drawn in [1 h, window - 1 h] and events in [60 s, window -
// 60 s]; below two hours the upper bound would wrap to a huge unsigned
// time. The generator refuses such a window instead.
TEST(DynamicsGen, RejectsWindowsTooShortForResets) {
  TopologyParams tp;
  tp.tier1_count = 3;
  tp.transit_count = 10;
  tp.eyeball_count = 12;
  tp.hosting_count = 5;
  tp.content_count = 8;
  tp.seed = 3;
  const Topology topology = GenerateTopology(tp);
  CollectorParams cp;
  cp.collector_count = 2;
  cp.sessions_per_collector = 4;
  cp.seed = 4;
  const CollectorSet collectors = CollectorSet::Create(topology, cp);
  DynamicsParams params;
  params.session_resets_per_month = 20;
  params.seed = 5;
  for (const std::int64_t window : {std::int64_t{0}, std::int64_t{3000}, std::int64_t{7199}}) {
    params.window = window;
    EXPECT_THROW((void)GenerateDynamics(topology, collectors, params), std::invalid_argument)
        << window;
  }
  params.window = 7200;
  const GeneratedDynamics dyn = GenerateDynamics(topology, collectors, params);
  ASSERT_FALSE(dyn.updates.empty());
  for (const BgpUpdate& u : dyn.updates) EXPECT_LE(u.time.seconds, params.window);
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

void Fold(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

void FoldUpdates(std::uint64_t& h, const std::vector<BgpUpdate>& updates) {
  for (const BgpUpdate& u : updates) {
    Fold(h, static_cast<std::uint64_t>(u.time.seconds));
    Fold(h, u.session);
    Fold(h, static_cast<std::uint64_t>(u.type));
    Fold(h, u.prefix.network().value());
    Fold(h, static_cast<std::uint64_t>(u.prefix.length()));
    Fold(h, u.path.size());
    for (const AsNumber hop : u.path) Fold(h, hop);
  }
}

// The paper month (paper topology, collector and dynamics seeds) folded
// field by field into one FNV-1a digest of little-endian 64-bit values:
// every RIB entry and update in order, then every truth record. It pins
// the order of tied keys and the session-reset draws, which a
// same-build comparison cannot. The constants were produced by the
// generator that re-sorted the whole month after appending its reset
// artifacts (commit 24238a1), built RelWithDebInfo with gcc 12.
TEST(DynamicsGen, GoldenDigestOfThePaperMonth) {
  TopologyParams tp;
  tp.seed = 20140501;
  const Topology topology = GenerateTopology(tp);
  CollectorParams cp;
  cp.seed = 20140502;
  const CollectorSet collectors = CollectorSet::Create(topology, cp);
  DynamicsParams dp;
  dp.seed = 20140502;
  dp.threads = 4;
  const GeneratedDynamics month = GenerateDynamics(topology, collectors, dp);

  std::uint64_t digest = kFnvOffset;
  FoldUpdates(digest, month.initial_rib);
  FoldUpdates(digest, month.updates);
  for (const PrefixDynamicsTruth& t : month.truth) {
    Fold(digest, t.prefix.network().value());
    Fold(digest, static_cast<std::uint64_t>(t.prefix.length()));
    Fold(digest, t.origin);
    Fold(digest, t.hosting_origin ? 1 : 0);
    Fold(digest, t.scheduled_events);
    Fold(digest, t.emitted_transitions);
  }

  EXPECT_EQ(month.initial_rib.size(), 54'025u);
  EXPECT_EQ(month.updates.size(), 968'157u);
  EXPECT_EQ(month.truth.size(), topology.prefix_origins.size());
  EXPECT_EQ(digest, 0x4C7912455B19AFB7ULL);
}

}  // namespace
}  // namespace quicksand::bgp
