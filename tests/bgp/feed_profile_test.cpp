// Tests for the flight-recorder adapters over the streaming feed data
// plane (bgp/feed_profile.hpp): identity when the recorder is disabled,
// exact batch/update/byte accounting when enabled, and unchanged stream
// content either way.

#include "bgp/feed_profile.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "bgp/update.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/stopwatch.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

std::vector<BgpUpdate> SampleFeed() {
  std::vector<BgpUpdate> updates;
  for (int i = 0; i < 10; ++i) {
    updates.push_back(Announce(i + 1, i % 2, "10.0.0.0/8", "65001 65002"));
  }
  return updates;
}

std::vector<feed::UpdateRec> Records(feed::UpdateStream stream) {
  std::vector<feed::UpdateRec> out;
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) out.insert(out.end(), batch.begin(), batch.end());
  return out;
}

class FeedProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::FlightRecorder::Global().Reset();
    obs::FlightRecorder::Global().Enable(true);
  }
  void TearDown() override {
    obs::FlightRecorder::Global().Enable(false);
    obs::FlightRecorder::Global().Reset();
  }
};

TEST(FeedProfileDisabled, WrappersAreIdentity) {
  // Recorder disabled (the default): no stage is registered and the
  // stream contents pass through untouched.
  obs::FlightRecorder::Global().Reset();
  const std::vector<BgpUpdate> updates = SampleFeed();
  auto table = std::make_shared<feed::AsPathTable>();
  const auto plain = Records(feed::FromVector(table, updates, 3));
  const auto wrapped =
      Records(feed::ProfiledStream("parse", feed::FromVector(table, updates, 3)));
  EXPECT_EQ(plain, wrapped);
  EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty());
}

TEST_F(FeedProfileTest, ProfiledStreamCountsBatches) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  auto table = std::make_shared<feed::AsPathTable>();
  const auto records =
      Records(feed::ProfiledStream("parse", feed::FromVector(table, updates, 4)));
  EXPECT_EQ(records.size(), 10u);
  const auto snapshot = obs::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "parse");
  const obs::StageStats& stats = snapshot[0].second;
  EXPECT_EQ(stats.batches, 3u);  // 4 + 4 + 2
  EXPECT_EQ(stats.items, 10u);
  EXPECT_EQ(stats.bytes, 10u * sizeof(feed::UpdateRec));
  EXPECT_EQ(stats.peak_resident, 4u);
  EXPECT_GE(stats.wall_us, 0);
}

TEST_F(FeedProfileTest, TalliedStreamAndSinkRecording) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  auto table = std::make_shared<feed::AsPathTable>();
  auto tally = std::make_shared<feed::StreamTally>();
  feed::UpdateStream tallied =
      feed::TalliedStream(feed::FromVector(table, updates, 4), tally);
  const obs::Stopwatch watch;
  const auto records = Records(std::move(tallied));
  EXPECT_EQ(records.size(), 10u);
  EXPECT_EQ(tally->batches.load(), 3u);
  EXPECT_EQ(tally->items.load(), 10u);
  EXPECT_EQ(tally->peak_batch.load(), 4u);

  feed::RecordSinkStage("churn", *tally, watch.ElapsedUs());
  const auto snapshot = obs::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "churn");
  const obs::StageStats& stats = snapshot[0].second;
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.items, 10u);
  EXPECT_EQ(stats.bytes, 10u * sizeof(feed::UpdateRec));
  EXPECT_EQ(stats.peak_resident, 4u);
  // Time spent pulling the input is the stage's upstream time: the
  // stage's wall bounds it, and self = wall - upstream.
  EXPECT_EQ(stats.upstream_us, tally->wall_us.load());
  EXPECT_GE(stats.wall_us, stats.upstream_us);
  EXPECT_LE(stats.self_us(), stats.wall_us);
}

TEST(FeedProfileDisabled, RecordSinkStageIsNoOp) {
  obs::FlightRecorder::Global().Reset();
  feed::StreamTally tally;
  feed::RecordSinkStage("churn", tally, 1000);
  EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty());
}

}  // namespace
}  // namespace quicksand::bgp
