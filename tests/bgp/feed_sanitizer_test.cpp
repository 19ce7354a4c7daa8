#include "bgp/feed_sanitizer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "paper_feeds.hpp"
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
Sanitized Sanitize(const std::vector<BgpUpdate>& updates) {
  test::RecordFixture fx;
  const std::vector<feed::UpdateRec> rib = fx.Recs(Rib());
  const SanitizedRecords result = SanitizeRecords(rib, fx.Recs(updates));
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

/// Every output record (hops resolved through the table), every
/// ResetFilterStats field and the repair count, as one FNV-1a digest.
std::uint64_t SanitizedDigest(const feed::AsPathTable& table, const SanitizedRecords& clean) {
  test::Fnv64 digest;
  for (const feed::UpdateRec& rec : clean.updates) {
    digest.Add(static_cast<std::uint64_t>(rec.time.seconds)).Add(rec.session);
    digest.Add(static_cast<std::uint64_t>(rec.type)).Add(rec.prefix);
    const std::vector<AsNumber>& hops = table.Path(rec.path).hops();
    digest.Add(hops.size());
    for (const AsNumber as : hops) digest.Add(as);
  }
  const ResetFilterStats& stats = clean.reset_stats;
  for (const std::size_t field : {stats.input_updates, stats.duplicates_removed,
                                  stats.burst_updates_removed, stats.bursts_detected,
                                  stats.output_updates, clean.out_of_order_repaired}) {
    digest.Add(field);
  }
  return digest.value();
}

// The paper month and the faulted week (test::MakePaperFeed) through the
// sanitizer. The constants were computed by the build before the filter's
// per-session state became dense rows numbered by first sight.
TEST(FeedSanitizer, GoldenDigestOfThePaperMonth) {
  {
    test::PaperFeed month = test::MakePaperFeed(test::PaperFeedKind::kMonth);
    const SanitizedRecords clean = SanitizeRecords(month.rib, std::move(month.updates));
    EXPECT_EQ(clean.reset_stats.input_updates, 968'157u);
    EXPECT_EQ(clean.updates.size(), 814'327u);
    EXPECT_EQ(clean.out_of_order_repaired, 0u);
    EXPECT_EQ(SanitizedDigest(*month.table, clean), 0x2620FE28947D83CCULL);
  }
  {
    test::PaperFeed week = test::MakePaperFeed(test::PaperFeedKind::kFaultedWeek);
    const SanitizedRecords clean = SanitizeRecords(week.rib, std::move(week.updates));
    EXPECT_EQ(clean.reset_stats.input_updates, 696'711u);
    EXPECT_EQ(clean.updates.size(), 488'307u);
    EXPECT_EQ(clean.out_of_order_repaired, 2'889u);
    EXPECT_EQ(SanitizedDigest(*week.table, clean), 0x0CE75A220F16A8A9ULL);
  }
}

}  // namespace
}  // namespace quicksand::bgp
