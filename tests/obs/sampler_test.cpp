#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "obs/metrics.hpp"

namespace quicksand::obs {
namespace {

TEST(ResourceSampler, CurrentRssIsPositiveOnLinux) {
#ifdef __linux__
  EXPECT_GT(ResourceSampler::CurrentRssKb(), 0);
#else
  EXPECT_EQ(ResourceSampler::CurrentRssKb(), -1);
#endif
}

TEST(ResourceSampler, StartAndStopSample) {
  ResourceSampler::Options options;
  options.cadence = std::chrono::milliseconds(5);
  ResourceSampler sampler(std::move(options));
  EXPECT_FALSE(sampler.running());
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  // Start takes one sample immediately and Stop takes a final one, so
  // even an instant start/stop records the footprint.
  EXPECT_GE(sampler.samples(), 2u);
#ifdef __linux__
  EXPECT_GT(sampler.peak_rss_kb(), 0);
#endif
}

TEST(ResourceSampler, StopIsIdempotentAndRestartable) {
  ResourceSampler sampler;
  sampler.Start();
  sampler.Start();  // second Start is a no-op, not a second thread
  sampler.Stop();
  const std::uint64_t after_first = sampler.samples();
  sampler.Stop();
  EXPECT_EQ(sampler.samples(), after_first);
  sampler.Start();
  sampler.Stop();
  EXPECT_GT(sampler.samples(), after_first);
}

TEST(ResourceSampler, PublishesProfGauges) {
  ResourceSampler sampler;
  sampler.Start();
  sampler.Stop();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot(Stability::kRun);
  bool saw_peak = false;
  bool saw_samples = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "prof.rss_peak_kb") saw_peak = value == sampler.peak_rss_kb();
    if (name == "prof.samples") {
      saw_samples = value == static_cast<std::int64_t>(sampler.samples());
    }
  }
  EXPECT_TRUE(saw_peak);
  EXPECT_TRUE(saw_samples);
}

TEST(ResourceSampler, DestructorStopsRunningThread) {
  ResourceSampler sampler;
  sampler.Start();
  // Destruction without Stop must join cleanly (no terminate).
}

}  // namespace
}  // namespace quicksand::obs
