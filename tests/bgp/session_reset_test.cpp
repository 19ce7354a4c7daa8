#include "bgp/session_reset.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "bgp/feed_sanitizer.hpp"
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

/// The filter's output, materialized back for comparison with literals.
struct Filtered {
  std::vector<BgpUpdate> updates;
  ResetFilterStats stats;
};

/// Interns the RIB and the updates into one table (the filter compares
/// path ids) and filters.
Filtered Filter(const std::vector<BgpUpdate>& rib, const std::vector<BgpUpdate>& updates,
                const ResetFilterParams& params = {}) {
  test::RecordFixture fx;
  const std::vector<feed::UpdateRec> rib_recs = fx.Recs(rib);
  const FilteredRecords result = FilterSessionRecords(rib_recs, fx.Recs(updates), params);
  return {fx.Updates(result.updates), result.stats};
}

std::vector<BgpUpdate> SmallRib(SessionId s) {
  return {
      Announce(0, s, "10.0.0.0/8", "1 2 3"),
      Announce(0, s, "11.0.0.0/8", "1 2 4"),
      Announce(0, s, "12.0.0.0/8", "1 5"),
  };
}

TEST(SessionResetFilter, PassesRealChangesThrough) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 9 3"),   // real path change
      Withdraw(200, 0, "11.0.0.0/8"),            // real withdraw
      Announce(300, 0, "11.0.0.0/8", "1 2 4"),   // real re-announce
  };
  const auto result = Filter(rib, updates);
  EXPECT_EQ(result.updates, updates);
  EXPECT_EQ(result.stats.duplicates_removed, 0u);
  EXPECT_EQ(result.stats.burst_updates_removed, 0u);
}

TEST(SessionResetFilter, DropsDuplicateAnnouncements) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 2 3"),  // duplicate of RIB state
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),  // real change
      Announce(300, 0, "10.0.0.0/8", "1 9 3"),  // duplicate of new state
  };
  const auto result = Filter(rib, updates);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].time.seconds, 200);
  EXPECT_EQ(result.stats.duplicates_removed, 2u);
}

TEST(SessionResetFilter, DropsWithdrawalsOfUnknownPrefixes) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {Withdraw(50, 0, "99.0.0.0/8")};
  const auto result = Filter(rib, updates);
  EXPECT_TRUE(result.updates.empty());
  EXPECT_EQ(result.stats.duplicates_removed, 1u);
}

TEST(SessionResetFilter, CollapsesTableTransferBurst) {
  // Session 0 knows 3 prefixes; a burst re-announces all of them (with a
  // transient backup-path flap on one) within seconds — a table transfer.
  const auto rib = SmallRib(0);
  ResetFilterParams params;
  params.min_burst_updates = 4;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1001, 0, "11.0.0.0/8", "1 7 4"),  // transient backup
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
      Announce(1003, 0, "11.0.0.0/8", "1 2 4"),  // settles back
  };
  const auto result = Filter(rib, updates, params);
  EXPECT_TRUE(result.updates.empty());
  EXPECT_EQ(result.stats.burst_updates_removed, 4u);
  EXPECT_GE(result.stats.bursts_detected, 1u);
}

TEST(SessionResetFilter, BurstWithNetChangeKeepsFinalUpdate) {
  const auto rib = SmallRib(0);
  ResetFilterParams params;
  params.min_burst_updates = 4;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1001, 0, "11.0.0.0/8", "1 2 4"),
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
      Announce(1003, 0, "10.0.0.0/8", "1 9 3"),  // genuine new path survives
  };
  const auto result = Filter(rib, updates, params);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].path, AsPath::MustParse("1 9 3"));
  EXPECT_EQ(result.stats.burst_updates_removed, 3u);
}

TEST(SessionResetFilter, SessionsAreIndependent) {
  // A burst on session 0 must not swallow session 1's updates.
  auto rib = SmallRib(0);
  const auto rib1 = SmallRib(1);
  rib.insert(rib.end(), rib1.begin(), rib1.end());
  ResetFilterParams params;
  params.min_burst_updates = 3;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1000, 1, "10.0.0.0/8", "1 9 3"),  // real change on session 1
      Announce(1001, 0, "11.0.0.0/8", "1 2 4"),
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
  };
  const auto result = Filter(rib, updates, params);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].session, 1u);
}

TEST(SessionResetFilter, ThrowsOnUnorderedInput) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),
      Announce(100, 0, "11.0.0.0/8", "1 9 4"),
  };
  EXPECT_THROW((void)Filter(rib, updates), std::invalid_argument);
}

TEST(SessionResetFilter, MergesBurstSurvivorsIntoCanonicalOrder) {
  // Canonically sorted input. Session 0's burst leaves one survivor (its
  // last update, at t=1003), flushed only when session 0 moves past the
  // burst; session 1's pass-throughs straddle it. The survivor must be
  // merged between them, not appended.
  auto rib = SmallRib(0);
  const auto rib1 = SmallRib(1);
  rib.insert(rib.end(), rib1.begin(), rib1.end());
  ResetFilterParams params;
  params.min_burst_updates = 4;
  params.burst_table_fraction = 0.5;
  const std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),  // burst
      Announce(1000, 1, "10.0.0.0/8", "1 9 3"),  // pass-through
      Announce(1001, 0, "11.0.0.0/8", "1 2 4"),  // burst
      Announce(1002, 0, "12.0.0.0/8", "1 5"),    // burst
      Announce(1003, 0, "10.0.0.0/8", "1 9 3"),  // burst, net change: survives
      Announce(1004, 1, "11.0.0.0/8", "1 7 4"),  // pass-through
      Announce(1500, 0, "11.0.0.0/8", "1 7 4"),  // after the burst: flushes it
      Announce(2000, 1, "12.0.0.0/8", "1 6"),    // pass-through
  };
  const auto result = Filter(rib, updates, params);
  std::vector<BgpUpdate> expected = {updates[1], updates[4], updates[5], updates[6],
                                     updates[7]};
  SortUpdates(expected);
  ASSERT_EQ(expected[1], updates[4]);  // the survivor sorts between pass-throughs
  EXPECT_EQ(result.updates, expected);
  EXPECT_EQ(result.stats.bursts_detected, 1u);
  EXPECT_EQ(result.stats.burst_updates_removed, 3u);
  EXPECT_EQ(result.stats.output_updates, 5u);
}

TEST(SessionResetFilter, SortsTimeOrderedInputIntoCanonicalOrder) {
  // Time-ordered but not in (time, session, prefix) order: same-second
  // updates out of session and prefix order, as text archives deliver
  // them and the sanitizer's time-order repair leaves them. The filter
  // falls back to a full stable sort of the survivors.
  auto rib = SmallRib(0);
  const auto rib1 = SmallRib(1);
  rib.insert(rib.end(), rib1.begin(), rib1.end());
  const std::vector<BgpUpdate> updates = {
      Announce(100, 1, "10.0.0.0/8", "1 9 3"),
      Announce(100, 0, "11.0.0.0/8", "1 7 4"),
      Announce(100, 1, "11.0.0.0/8", "1 2 4"),  // duplicate: dropped
      Announce(100, 0, "10.0.0.0/8", "1 9 3"),
      Withdraw(200, 1, "12.0.0.0/8"),
      Announce(200, 0, "12.0.0.0/8", "1 6"),
  };
  const auto result = Filter(rib, updates);
  std::vector<BgpUpdate> expected = {updates[0], updates[1], updates[3], updates[4],
                                     updates[5]};
  SortUpdates(expected);
  ASSERT_EQ(expected[0], updates[3]);  // the input order was not canonical
  EXPECT_EQ(result.updates, expected);
  EXPECT_EQ(result.stats.duplicates_removed, 1u);
  EXPECT_EQ(result.stats.output_updates, 5u);
}

TEST(SessionResetFilter, StatsAreConsistent) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 2 3"),   // dup
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),   // change
  };
  const auto result = Filter(rib, updates);
  EXPECT_EQ(result.stats.input_updates, 2u);
  EXPECT_EQ(result.stats.output_updates, 1u);
  EXPECT_EQ(result.stats.input_updates,
            result.stats.output_updates + result.stats.duplicates_removed +
                result.stats.burst_updates_removed);
}

/// Three sessions over 60 prefixes: a t=0 table, duplicates, real changes
/// and withdrawals, and a table-transfer burst (every prefix re-announced
/// within a minute, most of them twice) on the second session.
std::pair<std::vector<BgpUpdate>, std::vector<BgpUpdate>> ThreeSessionFeed(
    const SessionId (&sessions)[3]) {
  std::vector<BgpUpdate> rib;
  std::vector<BgpUpdate> updates;
  const auto prefix = [](int i) {
    return Prefix(netbase::Ipv4Address((10u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24);
  };
  const auto path = [](int a, int b) { return AsPath{1, static_cast<AsNumber>(a), static_cast<AsNumber>(b)}; };
  for (const SessionId session : sessions) {
    for (int i = 0; i < 60; ++i) {
      rib.push_back({SimTime{0}, session, UpdateType::kAnnounce, prefix(i), path(2, i)});
    }
  }
  std::int64_t t = 100;
  for (int i = 0; i < 60; ++i, t += 7) {
    const SessionId session = sessions[i % 3];
    updates.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix(i), path(2, i)});
    updates.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix(i), path(3, i)});
    if (i % 4 == 0) {
      updates.push_back({SimTime{t + 1}, session, UpdateType::kWithdraw, prefix(i), {}});
      updates.push_back({SimTime{t + 2}, session, UpdateType::kWithdraw, prefix(i), {}});
    }
  }
  t += 1000;
  for (int i = 0; i < 60; ++i) {
    updates.push_back({SimTime{t + i / 2}, sessions[1], UpdateType::kAnnounce, prefix(i), path(4, i)});
    if (i % 3 != 0) {
      updates.push_back({SimTime{t + i / 2}, sessions[1], UpdateType::kAnnounce, prefix(i), path(3, i)});
    }
  }
  for (int i = 0; i < 60; i += 5) {
    updates.push_back({SimTime{t + 500}, sessions[2], UpdateType::kAnnounce, prefix(i), path(5, i)});
  }
  return {rib, updates};
}

// Session ids are labels: the filter must number them itself, so ids up
// to 2^32 - 1 cost what 0, 1, 2 cost and filter identically.
TEST(SessionResetFilter, SessionIdsAreLabels) {
  constexpr SessionId kWide[] = {0, (SessionId{1} << 22) - 1, ~SessionId{0}};
  constexpr SessionId kDense[] = {0, 1, 2};
  const auto [wide_rib, wide_updates] = ThreeSessionFeed(kWide);
  const auto [dense_rib, dense_updates] = ThreeSessionFeed(kDense);
  test::RecordFixture fx;
  const SanitizedRecords wide = SanitizeRecords(fx.Recs(wide_rib), fx.Recs(wide_updates));
  const SanitizedRecords dense = SanitizeRecords(fx.Recs(dense_rib), fx.Recs(dense_updates));
  EXPECT_GT(wide.reset_stats.bursts_detected, 0u);
  EXPECT_GT(wide.reset_stats.duplicates_removed, 0u);
  EXPECT_EQ(wide.reset_stats.bursts_detected, dense.reset_stats.bursts_detected);
  EXPECT_EQ(wide.reset_stats.duplicates_removed, dense.reset_stats.duplicates_removed);
  EXPECT_EQ(wide.reset_stats.burst_updates_removed, dense.reset_stats.burst_updates_removed);
  EXPECT_EQ(wide.reset_stats.input_updates, dense.reset_stats.input_updates);
  EXPECT_EQ(wide.reset_stats.output_updates, dense.reset_stats.output_updates);
  ASSERT_EQ(wide.updates.size(), dense.updates.size());
  for (std::size_t i = 0; i < wide.updates.size(); ++i) {
    feed::UpdateRec renumbered = wide.updates[i];
    renumbered.session = static_cast<SessionId>(
        std::find(std::begin(kWide), std::end(kWide), renumbered.session) - std::begin(kWide));
    EXPECT_EQ(renumbered, dense.updates[i]) << "record " << i;
  }
}

// A feed whose sessions x prefixes grid is far larger than the feed (each
// of 1,000 sessions touches two of 1,000 prefixes) filters exactly like a
// map of (session, prefix) -> current path: a duplicate announcement or a
// withdrawal of an absent prefix is dropped, everything else passes.
TEST(SessionResetFilter, SparseFeedMatchesMapReference) {
  constexpr int kKeys = 1000;
  const auto prefix = [](int i) {
    return Prefix(netbase::Ipv4Address((20u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24);
  };
  std::vector<BgpUpdate> rib;
  std::vector<BgpUpdate> updates;
  std::int64_t t = 1;
  for (int s = 0; s < kKeys; ++s) {
    const auto session = static_cast<SessionId>(s * 7919);
    if (s % 3 == 0) {
      rib.push_back({SimTime{0}, session, UpdateType::kAnnounce, prefix(s), AsPath{1, 2}});
    }
    for (const int p : {s, (s + 1) % kKeys}) {
      updates.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix(p), AsPath{1, 2}});
      updates.push_back({SimTime{t + 1}, session, UpdateType::kAnnounce, prefix(p), AsPath{1, 2}});
      updates.push_back({SimTime{t + 2}, session, UpdateType::kAnnounce, prefix(p), AsPath{1, 3}});
      updates.push_back({SimTime{t + 3}, session, UpdateType::kWithdraw, prefix(p), {}});
      updates.push_back({SimTime{t + 3}, session, UpdateType::kWithdraw, prefix(p), {}});
      t += 200;  // far apart: no session ever bursts
    }
  }
  std::map<std::pair<SessionId, Prefix>, AsPath> current;
  for (const BgpUpdate& u : rib) current[{u.session, u.prefix}] = u.path;
  std::vector<BgpUpdate> expected;
  for (const BgpUpdate& u : updates) {
    const auto it = current.find({u.session, u.prefix});
    if (u.type == UpdateType::kAnnounce) {
      if (it != current.end() && it->second == u.path) continue;
      current[{u.session, u.prefix}] = u.path;
    } else {
      if (it == current.end()) continue;
      current.erase(it);
    }
    expected.push_back(u);
  }
  const Filtered result = Filter(rib, updates);
  EXPECT_EQ(result.stats.bursts_detected, 0u);
  EXPECT_EQ(result.stats.duplicates_removed, updates.size() - expected.size());
  EXPECT_EQ(result.updates, expected);
}

}  // namespace
}  // namespace quicksand::bgp
