// Tests for the streaming feed data plane (bgp/feed.hpp): AS-path
// interning, chunked UpdateStream sources and adapters, and the
// equivalence contract — every stream consumer must produce output
// identical to record-by-record consumption for every batch size and
// thread count (docs/ARCHITECTURE.md).

#include "bgp/feed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed_order.hpp"
#include "bgp/update.hpp"
#include "core/monitor.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "record_fixture.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

BgpUpdate Withdraw(std::int64_t t, SessionId s, const char* prefix) {
  return {SimTime{t}, s, UpdateType::kWithdraw, Prefix::MustParse(prefix), {}};
}

std::vector<BgpUpdate> SampleFeed() {
  return {
      Announce(1, 0, "10.0.0.0/8", "65001 65002 65003"),
      Announce(2, 1, "10.0.0.0/8", "65001 65002 65003"),
      Announce(3, 0, "192.168.0.0/16", "65001 65004"),
      Withdraw(4, 0, "10.0.0.0/8"),
      Announce(5, 0, "10.0.0.0/8", "65001 65005 65003"),
      Announce(6, 1, "192.168.0.0/16", "65001 65002 65003"),
  };
}

// --- AsPathTable ----------------------------------------------------------

TEST(AsPathTable, EmptyPathIsAlwaysIdZero) {
  feed::AsPathTable table;
  EXPECT_EQ(table.size(), 1u);  // the pre-interned empty path
  EXPECT_EQ(table.Intern(AsPath{}), feed::kEmptyPath);
  EXPECT_TRUE(table.Path(feed::kEmptyPath).empty());
}

TEST(AsPathTable, InternDeduplicatesAndReportsHits) {
  feed::AsPathTable table;
  bool hit = true;
  const feed::PathId a = table.Intern(AsPath::MustParse("1 2 3"), &hit);
  EXPECT_FALSE(hit);
  const feed::PathId b = table.Intern(AsPath::MustParse("1 2 3"), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a, b);
  const feed::PathId c = table.Intern(AsPath::MustParse("1 2 4"), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 3u);  // empty + two distinct paths
}

TEST(AsPathTable, SortedSetIsComputedOncePerPath) {
  feed::AsPathTable table;
  // Prepend-heavy path: the distinct-AS set drops duplicates and sorts.
  const feed::PathId id = table.Intern(AsPath::MustParse("7 7 7 3 5 3"));
  EXPECT_EQ(table.SortedSet(id), (std::vector<AsNumber>{3, 5, 7}));
}

TEST(AsPathTable, SetHashIgnoresPrependsAndOrder) {
  feed::AsPathTable table;
  const feed::PathId a = table.Intern(AsPath::MustParse("1 2 2 3"));
  const feed::PathId b = table.Intern(AsPath::MustParse("3 2 1"));
  const feed::PathId c = table.Intern(AsPath::MustParse("3 2 4"));
  EXPECT_NE(a, b);  // different paths...
  EXPECT_EQ(table.SetHash(a), table.SetHash(b));  // ...same AS set
  EXPECT_NE(table.SetHash(a), table.SetHash(c));
}

TEST(AsPathTable, OriginAndUpstreamSkipPrepends) {
  feed::AsPathTable table;
  const feed::PathId plain = table.Intern(AsPath::MustParse("701 3356 24940"));
  const feed::PathId prepended = table.Intern(AsPath::MustParse("701 3356 24940 24940 24940"));
  const feed::PathId alone = table.Intern(AsPath::MustParse("24940 24940"));
  const feed::PathId looped = table.Intern(AsPath::MustParse("24940 3356 24940"));
  EXPECT_EQ(table.Origin(plain), 24940u);
  EXPECT_EQ(table.OriginUpstream(plain), 3356u);
  EXPECT_EQ(table.Origin(prepended), 24940u);
  EXPECT_EQ(table.OriginUpstream(prepended), 3356u);
  EXPECT_EQ(table.Origin(alone), 24940u);
  EXPECT_EQ(table.OriginUpstream(alone), 0u);  // nothing but the origin
  EXPECT_EQ(table.OriginUpstream(looped), 3356u);
  EXPECT_EQ(table.Origin(feed::kEmptyPath), 0u);
  EXPECT_EQ(table.OriginUpstream(feed::kEmptyPath), 0u);
}

TEST(AsPathTable, PathHashIsTableIndependent) {
  feed::AsPathTable one;
  feed::AsPathTable two;
  (void)two.Intern(AsPath::MustParse("9 9 9"));  // skew the id spaces
  const feed::PathId a = one.Intern(AsPath::MustParse("1 2 3"));
  const feed::PathId b = two.Intern(AsPath::MustParse("1 2 3"));
  EXPECT_NE(a, b);
  EXPECT_EQ(one.PathHash(a), two.PathHash(b));
}

TEST(AsPathTable, PathsSharingAHashGetDistinctIds) {
  // Two paths with one FNV-1a hash: the index must confirm a hash match
  // against the hops and keep probing on a mismatch.
  const AsPath a{2, 1, 7};
  const AsPath b{1, 30321, 584332};
  ASSERT_EQ(std::hash<AsPath>{}(a), 0xea9ca11875dc4831ULL);
  ASSERT_EQ(std::hash<AsPath>{}(b), 0xea9ca11875dc4831ULL);
  for (const bool a_first : {true, false}) {
    feed::AsPathTable table;
    bool hit = true;
    const feed::PathId first = table.Intern(a_first ? a : b, &hit);
    EXPECT_FALSE(hit);
    const feed::PathId second = table.Intern(a_first ? b : a, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(first, second);
    EXPECT_EQ(table.PathHash(first), table.PathHash(second));
    const feed::PathId id_a = a_first ? first : second;
    const feed::PathId id_b = a_first ? second : first;
    EXPECT_EQ(table.Path(id_a), a);
    EXPECT_EQ(table.Path(id_b), b);
    EXPECT_EQ(table.Intern(a, &hit), id_a);
    EXPECT_TRUE(hit);
    EXPECT_EQ(table.Intern(b, &hit), id_b);
    EXPECT_TRUE(hit);
    EXPECT_EQ(table.size(), 3u);
  }
}

TEST(AsPathTable, MatchesMapReferenceThroughGrowthAndReserve) {
  // Seeded paths (short, over a small AS alphabet, so hits are common),
  // with the colliding pair above and a path longer than an arena block
  // dropped in, against an ordered-map reference. Tens of thousands of
  // distinct paths take the index through many doublings; odd seeds
  // Reserve mid-stream.
  const std::vector<AsNumber> collide_a{2, 1, 7};
  const std::vector<AsNumber> collide_b{1, 30321, 584332};
  std::vector<AsNumber> very_long(20000);
  for (std::size_t i = 0; i < very_long.size(); ++i) very_long[i] = static_cast<AsNumber>(i);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    netbase::Rng rng(seed);
    feed::AsPathTable table;
    std::map<std::vector<AsNumber>, feed::PathId> reference{{{}, feed::kEmptyPath}};
    std::vector<AsNumber> hops;
    for (std::size_t i = 0; i < 40000; ++i) {
      if (seed % 2 == 1 && i == 5000) table.Reserve(60000);
      if (i % 997 == 13) {
        hops = rng.Bernoulli(0.5) ? collide_a : collide_b;
      } else if (i % 9973 == 100) {
        hops = very_long;
      } else {
        hops.resize(rng.UniformInt(0, 6));
        for (AsNumber& as : hops) {
          as = rng.Bernoulli(0.05) ? static_cast<AsNumber>(rng.UniformInt(0, 0xFFFFFFFFULL))
                                   : static_cast<AsNumber>(rng.UniformInt(1, 12));
        }
      }
      bool hit = false;
      const feed::PathId id = table.Intern(std::span<const AsNumber>(hops), &hit);
      const auto [it, inserted] =
          reference.emplace(hops, static_cast<feed::PathId>(reference.size()));
      ASSERT_EQ(hit, !inserted) << "seed " << seed << " step " << i;
      ASSERT_EQ(id, it->second) << "seed " << seed << " step " << i;
    }
    EXPECT_GT(reference.size(), 20000u) << "seed " << seed;
    ASSERT_EQ(table.size(), reference.size());
    for (const auto& [path, id] : reference) {
      EXPECT_EQ(table.Path(id).hops(), path);
      EXPECT_EQ(table.PathHash(id), HashHops(path));
      std::vector<AsNumber> set = path;
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
      EXPECT_EQ(table.SortedSet(id), set);
    }
  }
}

// --- records and streams --------------------------------------------------

TEST(Feed, RecordRoundTrip) {
  feed::AsPathTable table;
  for (const BgpUpdate& update : SampleFeed()) {
    const feed::UpdateRec rec = feed::ToRecord(update, table);
    EXPECT_EQ(feed::ToBgpUpdate(rec, table), update);
  }
}

TEST(Feed, DefaultStreamIsExhausted) {
  feed::UpdateStream stream;
  std::vector<feed::UpdateRec> batch;
  EXPECT_FALSE(stream.Next(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(Feed, FromVectorRespectsBatchSize) {
  const std::vector<BgpUpdate> updates = SampleFeed();  // 6 records
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream stream = feed::FromVector(table, updates, /*batch_size=*/4);
  std::vector<feed::UpdateRec> batch;
  ASSERT_TRUE(stream.Next(batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(stream.Next(batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(stream.Next(batch));
}

TEST(Feed, MaterializeRoundTripsEveryBatchSize) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  for (std::size_t batch = 1; batch <= updates.size() + 1; ++batch) {
    auto table = std::make_shared<feed::AsPathTable>();
    EXPECT_EQ(feed::Materialize(feed::FromVector(table, updates, batch)), updates)
        << "batch size " << batch;
  }
}

TEST(Feed, DrainProducesCompactRecords) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream stream = feed::FromVector(table, updates, 3);
  const std::vector<feed::UpdateRec> records = feed::Drain(stream);
  ASSERT_EQ(records.size(), updates.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(feed::ToBgpUpdate(records[i], *table), updates[i]);
  }
}

// --- stream consumers vs record-by-record consumption ----------------------

std::vector<BgpUpdate> ResyncHeavyFeed() {
  // A feed with session resets, duplicates, and an out-of-order
  // adjacency, so the analyzer's drop path has work to do.
  std::vector<BgpUpdate> updates;
  for (std::int64_t t = 10; t < 200; t += 10) {
    updates.push_back(Announce(t, 0, "10.0.0.0/8", t % 40 == 10 ? "1 2 3" : "1 2 4"));
    updates.push_back(Announce(t + 1, 1, "192.168.0.0/16", "1 5"));
  }
  // A resync burst: session 0 re-announces its table at one instant.
  for (int i = 0; i < 6; ++i) {
    updates.push_back(Announce(300, 0, "10.0.0.0/8", "1 2 4"));
  }
  // One out-of-order adjacency: the analyzer drops it.
  updates.push_back(Announce(250, 0, "10.0.0.0/8", "1 2 3"));
  return updates;
}

TEST(Feed, AnalyzeChurnStreamMatchesSerialConsumption) {
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
      Announce(0, 1, "192.168.0.0/16", "1 5"),
  };
  const std::vector<BgpUpdate> updates = ResyncHeavyFeed();
  ChurnAnalyzer serial;
  test::RecordFixture fx;
  fx.Feed(serial, initial_rib);
  fx.Feed(serial, updates);
  serial.Finish();
  ASSERT_GT(serial.DroppedOutOfOrder(), 0u);
  for (bool shared_table : {true, false}) {
    for (std::size_t threads : {1u, 4u}) {
      for (std::size_t batch : {1u, 5u, 4096u}) {
        auto rib_table = std::make_shared<feed::AsPathTable>();
        auto update_table = rib_table;
        if (!shared_table) {
          update_table = std::make_shared<feed::AsPathTable>();
          (void)update_table->Intern(AsPath::MustParse("9 9 9"));  // skew the id spaces
        }
        const ChurnAnalyzer streamed = AnalyzeChurnStream(
            feed::FromVector(rib_table, initial_rib, batch),
            feed::FromVector(update_table, updates, batch), {}, threads);
        EXPECT_EQ(test::ChurnRows(streamed), test::ChurnRows(serial))
            << "shared table " << shared_table << ", threads " << threads
            << ", batch " << batch;
        EXPECT_EQ(streamed.DroppedOutOfOrder(), serial.DroppedOutOfOrder());
      }
    }
  }
}

TEST(Feed, MonitorConsumeStreamMatchesConsumeLoop) {
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
  };
  const std::vector<BgpUpdate> updates = {
      Announce(10, 0, "10.0.0.0/8", "1 2 3"),    // benign
      Announce(20, 0, "10.0.0.0/8", "1 2 666"),  // origin change
      Announce(30, 0, "10.0.0.0/9", "1 2 3"),    // more-specific
      Announce(40, 0, "10.0.0.0/8", "1 9 3"),    // new upstream
  };
  const std::unordered_set<Prefix> monitored = {Prefix::MustParse("10.0.0.0/8")};

  core::RelayMonitor looped(monitored);
  test::RecordFixture fx;
  fx.FeedBaseline(looped, initial_rib);
  std::size_t direct_raised = 0;
  for (const BgpUpdate& u : updates) direct_raised += fx.Feed(looped, u).size();

  core::RelayMonitor streamed(monitored);
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream rib_stream = feed::FromVector(table, initial_rib, 1);
  streamed.LearnBaselineStream(rib_stream);
  feed::UpdateStream update_stream = feed::FromVector(table, updates, 2);
  const std::size_t stream_raised = streamed.ConsumeStream(update_stream);

  EXPECT_GT(direct_raised, 0u);
  EXPECT_EQ(stream_raised, direct_raised);
  EXPECT_EQ(streamed.alerts(), looped.alerts());
  EXPECT_EQ(streamed.SuppressedDuplicates(), looped.SuppressedDuplicates());
}

TEST(AsPathTable, ReservePreSizesTheIndex) {
  feed::AsPathTable table;
  table.Reserve(10000);
  // A size hint makes room up front; interning under the hint must not
  // perturb dedup, and a smaller later hint must be a no-op.
  const feed::PathId a = table.Intern(AsPath{1, 2, 3});
  table.Reserve(1);
  EXPECT_EQ(table.Intern(AsPath{1, 2, 3}), a);
}

TEST(AsPathTable, ApproxBytesGrowsWithInternedPathsAndFeedsTheGauge) {
  feed::AsPathTable table;
  EXPECT_EQ(table.ApproxBytes(), 0u);
  (void)table.Intern(AsPath{701, 3356, 24940});
  const std::size_t one = table.ApproxBytes();
  EXPECT_GT(one, 0u);
  (void)table.Intern(AsPath{701, 3356, 24940});  // hit: no growth
  EXPECT_EQ(table.ApproxBytes(), one);
  (void)table.Intern(AsPath{7018, 701, 3356, 1299, 24940});
  EXPECT_GT(table.ApproxBytes(), one);
  // The last miss published this table's footprint to the gauge.
  EXPECT_EQ(static_cast<std::size_t>(obs::MetricsRegistry::Global()
                                         .GetGauge("feed.intern.bytes")
                                         .value()),
            table.ApproxBytes());
}

// --- The feed-order kernel ------------------------------------------------

/// A record key for the kernel's differential test. The payload is the
/// record's position in the input, so a tie resolved out of input order
/// shows as a different vector.
struct SortKey {
  SimTime time;
  SessionId session;
  Prefix prefix;
};

/// Input shapes the kernel must sort exactly as std::stable_sort does:
/// keys drawn from small sets, so most keys repeat many times.
std::vector<std::pair<const char*, std::vector<SortKey>>> KernelShapes() {
  netbase::Rng rng(2014);
  const std::vector<Prefix> prefixes = {
      Prefix::MustParse("10.0.0.0/8"), Prefix::MustParse("10.0.0.0/16"),
      Prefix::MustParse("78.46.0.0/15"), Prefix::MustParse("192.0.2.0/24")};
  const auto draw = [&](std::int64_t time) {
    return SortKey{SimTime{time}, static_cast<SessionId>(rng.UniformInt(0, 3)),
                   prefixes[rng.UniformInt(0, prefixes.size() - 1)]};
  };
  std::vector<std::pair<const char*, std::vector<SortKey>>> shapes;

  std::vector<SortKey> sorted;
  std::int64_t t = 1000;
  for (int i = 0; i < 3000; ++i) {
    t += static_cast<std::int64_t>(rng.UniformInt(0, 2));
    sorted.push_back(draw(t));
  }
  std::stable_sort(sorted.begin(), sorted.end(), FeedOrderLess{});
  shapes.emplace_back("sorted", sorted);
  shapes.emplace_back("reversed", std::vector<SortKey>(sorted.rbegin(), sorted.rend()));

  std::vector<SortKey> runs;  // one sorted run per prefix, concatenated
  for (const Prefix& prefix : prefixes) {
    for (int run = 0; run < 10; ++run) {
      std::int64_t at = 0;
      for (int i = 0; i < 80; ++i) {
        at += static_cast<std::int64_t>(rng.UniformInt(0, 40));
        runs.push_back({SimTime{at}, static_cast<SessionId>(run % 3), prefix});
      }
    }
  }
  shapes.emplace_back("per-prefix runs", runs);

  std::vector<SortKey> delayed = sorted;  // 0.5% of records arrive late
  for (SortKey& key : delayed) {
    if (rng.UniformInt(0, 199) == 0) {
      key.time.seconds += static_cast<std::int64_t>(rng.UniformInt(1, 600));
    }
  }
  shapes.emplace_back("delayed", delayed);

  std::vector<SortKey> one_time;
  for (int i = 0; i < 2000; ++i) one_time.push_back(draw(42));
  shapes.emplace_back("one timestamp", one_time);

  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> edges = {kMin, kMin + 1, -86400, -1, 0, 1, kMax - 1, kMax};
  std::vector<SortKey> extremes;
  for (int i = 0; i < 400; ++i) {
    extremes.push_back(draw(rng.Bernoulli(0.5)
                                ? edges[rng.UniformInt(0, edges.size() - 1)]
                                : -static_cast<std::int64_t>(rng.UniformInt(0, 5000))));
  }
  shapes.emplace_back("negative and extreme times", extremes);
  shapes.emplace_back("only the extremes",
                      std::vector<SortKey>{draw(kMax), draw(kMin), draw(kMax), draw(kMin)});

  std::vector<SortKey> shuffled = sorted;
  rng.Shuffle(shuffled);
  shapes.emplace_back("shuffled", shuffled);

  shapes.emplace_back("n = 0", std::vector<SortKey>{});
  shapes.emplace_back("n = 1", std::vector<SortKey>{draw(7)});
  shapes.emplace_back("n = 2, descending", std::vector<SortKey>{draw(9), draw(8)});
  shapes.emplace_back("n = 2, equal keys",
                      std::vector<SortKey>{{SimTime{5}, 1, prefixes[0]},
                                           {SimTime{5}, 1, prefixes[0]}});
  return shapes;
}

TEST(FeedOrder, SortUpdatesMatchesStableSort) {
  for (const auto& [name, keys] : KernelShapes()) {
    std::vector<BgpUpdate> updates;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      updates.push_back({keys[i].time, keys[i].session,
                         i % 5 == 4 ? UpdateType::kWithdraw : UpdateType::kAnnounce,
                         keys[i].prefix, AsPath{static_cast<AsNumber>(i)}});
    }
    std::vector<BgpUpdate> expected = updates;
    std::stable_sort(expected.begin(), expected.end(), FeedOrderLess{});
    SortUpdates(updates);
    EXPECT_EQ(updates, expected) << name;
  }
}

TEST(FeedOrder, SortRecordsMatchesStableSort) {
  for (const auto& [name, keys] : KernelShapes()) {
    std::vector<feed::UpdateRec> records;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      records.push_back({keys[i].time, keys[i].session,
                         i % 5 == 4 ? UpdateType::kWithdraw : UpdateType::kAnnounce,
                         keys[i].prefix, static_cast<feed::PathId>(i)});
    }
    std::vector<feed::UpdateRec> expected = records;
    std::stable_sort(expected.begin(), expected.end(), FeedOrderLess{});
    feed::SortRecords(records);
    EXPECT_EQ(records, expected) << name;
  }
}

}  // namespace
}  // namespace quicksand::bgp
