#include "bgp/feed_sanitizer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "record_fixture.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

std::vector<BgpUpdate> Rib() {
  return {Announce(0, 0, "10.0.0.0/8", "1 2"), Announce(0, 0, "11.0.0.0/8", "1 3")};
}

/// The sanitizer's output, materialized back for comparison with literals.
struct Sanitized {
  std::vector<BgpUpdate> updates;
  ResetFilterStats reset_stats;
  std::size_t out_of_order_repaired = 0;
};

/// Interns Rib() and the updates into one table (the filter compares
/// path ids) and sanitizes.
Sanitized Sanitize(const std::vector<BgpUpdate>& updates,
                   const SanitizerParams& params = {}) {
  test::RecordFixture fx;
  const std::vector<feed::UpdateRec> rib = fx.Recs(Rib());
  const SanitizedRecords result = SanitizeRecords(rib, fx.Recs(updates), params);
  return {fx.Updates(result.updates), result.reset_stats, result.out_of_order_repaired};
}

TEST(FeedSanitizer, CleanOrderedStreamPassesThrough) {
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 4"),
      Announce(200, 0, "11.0.0.0/8", "1 5"),
  };
  const Sanitized feed = Sanitize(updates);
  EXPECT_EQ(feed.updates, updates);
  EXPECT_EQ(feed.out_of_order_repaired, 0u);
  EXPECT_EQ(feed.reset_stats.duplicates_removed, 0u);
}

TEST(FeedSanitizer, RepairsOutOfOrderInputInsteadOfThrowing) {
  const std::vector<BgpUpdate> updates = {
      Announce(200, 0, "11.0.0.0/8", "1 5"),
      Announce(100, 0, "10.0.0.0/8", "1 4"),  // arrived late
  };
  // The strict filter underneath refuses this stream outright...
  test::RecordFixture fx;
  EXPECT_THROW((void)FilterSessionRecords(fx.Recs(Rib()), fx.Recs(updates)),
               std::invalid_argument);
  // ...the sanitizer repairs it.
  const Sanitized feed = Sanitize(updates);
  EXPECT_EQ(feed.out_of_order_repaired, 1u);
  ASSERT_EQ(feed.updates.size(), 2u);
  EXPECT_EQ(feed.updates[0].time.seconds, 100);
  EXPECT_EQ(feed.updates[1].time.seconds, 200);
}

TEST(FeedSanitizer, StrictModeStillThrows) {
  const std::vector<BgpUpdate> updates = {
      Announce(200, 0, "11.0.0.0/8", "1 5"),
      Announce(100, 0, "10.0.0.0/8", "1 4"),
  };
  SanitizerParams params;
  params.repair_ordering = false;
  EXPECT_THROW((void)Sanitize(updates, params), std::invalid_argument);
}

TEST(FeedSanitizer, RemovesDuplicateAnnouncements) {
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 4"),
      Announce(200, 0, "10.0.0.0/8", "1 4"),  // no path change: reset artifact
  };
  const Sanitized feed = Sanitize(updates);
  EXPECT_EQ(feed.reset_stats.duplicates_removed, 1u);
  EXPECT_EQ(feed.updates.size(), 1u);
}

TEST(FeedSanitizer, RepairComposesWithDuplicateRemoval) {
  // The duplicate is only recognizable once the stream is back in order.
  const std::vector<BgpUpdate> updates = {
      Announce(300, 0, "10.0.0.0/8", "1 4"),
      Announce(100, 0, "10.0.0.0/8", "1 4"),
      Announce(200, 0, "10.0.0.0/8", "1 5"),
  };
  const Sanitized feed = Sanitize(updates);
  EXPECT_EQ(feed.out_of_order_repaired, 1u);  // one adjacent inversion
  // In repaired order: 1 4 (change), 1 5 (change), 1 4 (change) — no dups.
  EXPECT_EQ(feed.updates.size(), 3u);
  EXPECT_EQ(feed.reset_stats.duplicates_removed, 0u);
}

}  // namespace
}  // namespace quicksand::bgp
