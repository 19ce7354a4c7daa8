#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace quicksand::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(5);
  EXPECT_EQ(gauge.value(), 12);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, BucketsObservationsByUpperBound) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket le=1
  hist.Observe(1.0);    // le=1 (inclusive upper bound)
  hist.Observe(5.0);    // le=10
  hist.Observe(100.0);  // le=100
  hist.Observe(1e6);    // overflow
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  const auto buckets = hist.Buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_EQ(buckets[3].count, 1u);  // +inf overflow
  EXPECT_TRUE(std::isinf(buckets[3].upper_bound));
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x.events");
  Counter& b = registry.GetCounter("x.events");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  Gauge& g1 = registry.GetGauge("x.level");
  Gauge& g2 = registry.GetGauge("x.level");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, HistogramBoundsFixedOnFirstRegistration) {
  MetricsRegistry registry;
  Histogram& first = registry.GetHistogram("x.size", {1.0, 2.0});
  // Later bounds are ignored; the same object comes back.
  Histogram& second = registry.GetHistogram("x.size", {100.0});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.Buckets().size(), 3u);  // two bounds + overflow
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("z.last").Increment(3);
  registry.GetCounter("a.first").Increment(1);
  registry.GetGauge("m.middle").Set(-7);
  registry.GetHistogram("h.hist", {1.0}).Observe(0.5);

  const MetricsSnapshot snap1 = registry.Snapshot(Stability::kSeeded);
  ASSERT_EQ(snap1.counters.size(), 2u);
  EXPECT_EQ(snap1.counters[0].first, "a.first");
  EXPECT_EQ(snap1.counters[1].first, "z.last");
  EXPECT_EQ(snap1.counters[1].second, 3u);
  ASSERT_EQ(snap1.gauges.size(), 1u);
  EXPECT_EQ(snap1.gauges[0].second, -7);

  // Identical state serializes byte-for-byte identically.
  const MetricsSnapshot snap2 = registry.Snapshot(Stability::kSeeded);
  EXPECT_EQ(snap1.ToJson().Dump(2), snap2.ToJson().Dump(2));
}

TEST(MetricsRegistry, ResetAllZeroesButKeepsReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("r.count");
  Histogram& hist = registry.GetHistogram("r.hist", {1.0});
  counter.Increment(9);
  hist.Observe(0.5);
  registry.ResetAll();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  // The reference obtained before ResetAll still updates the registry.
  counter.Increment();
  EXPECT_EQ(registry.Snapshot(Stability::kSeeded).counters[0].second, 1u);
}

TEST(MetricsRegistry, SnapshotTakesOneStabilityClass) {
  MetricsRegistry registry;
  registry.GetCounter("seeded.count").Increment(2);
  registry.GetCounter("run.count", Stability::kRun).Increment(5);
  registry.GetGauge("run.level", Stability::kRun).Set(9);
  registry.GetHistogram("run.hist", {1.0}, Stability::kRun).Observe(0.5);

  const MetricsSnapshot seeded = registry.Snapshot(Stability::kSeeded);
  ASSERT_EQ(seeded.counters.size(), 1u);
  EXPECT_EQ(seeded.counters[0].first, "seeded.count");
  EXPECT_TRUE(seeded.gauges.empty());
  EXPECT_TRUE(seeded.histograms.empty());

  const MetricsSnapshot run = registry.Snapshot(Stability::kRun);
  ASSERT_EQ(run.counters.size(), 1u);
  EXPECT_EQ(run.counters[0].first, "run.count");
  ASSERT_EQ(run.gauges.size(), 1u);
  EXPECT_EQ(run.gauges[0].second, 9);
  ASSERT_EQ(run.histograms.size(), 1u);
  EXPECT_EQ(run.histograms[0].name, "run.hist");
}

TEST(MetricsRegistry, RunClassSticksOnceDeclared) {
  // A lookup that declares nothing (a reader registering first, or reading
  // later) never changes a metric's class.
  MetricsRegistry registry;
  Counter& early = registry.GetCounter("x.read_first");
  Counter& declared = registry.GetCounter("x.read_first", Stability::kRun);
  Counter& late = registry.GetCounter("x.read_first");
  EXPECT_EQ(&early, &declared);
  EXPECT_EQ(&late, &declared);
  EXPECT_TRUE(registry.Snapshot(Stability::kSeeded).counters.empty());
  EXPECT_EQ(registry.Snapshot(Stability::kRun).counters.size(), 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("c.shared");
      Histogram& hist = registry.GetHistogram("c.hist_ms", {0.5});
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Observe(0.25);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("c.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Histogram& hist = registry.GetHistogram("c.hist_ms");
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.Buckets()[0].count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsSnapshot, JsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("j.count").Increment(2);
  registry.GetHistogram("j.hist", {1.0}).Observe(2.5);
  const std::string json = registry.Snapshot(Stability::kSeeded).ToJson().Dump();
  EXPECT_NE(json.find("\"counters\":{\"j.count\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"j.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\":2.5"), std::string::npos);
}

TEST(Histogram, AddReplaysBucketedObservations) {
  Histogram observed({1.0, 2.0});
  for (const double value : {0.5, 2.0, 2.0, 7.0}) observed.Observe(value);

  Histogram replayed({1.0, 2.0});
  replayed.Add(observed.Buckets(), observed.sum());
  EXPECT_EQ(replayed.count(), observed.count());
  EXPECT_EQ(replayed.sum(), observed.sum());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replayed.Buckets()[i].count, observed.Buckets()[i].count) << "bucket " << i;
  }
  // Other bounds, or a bucket missing, change nothing.
  EXPECT_THROW(replayed.Add(Histogram({1.0, 3.0}).Buckets(), 1.0), std::invalid_argument);
  EXPECT_THROW(replayed.Add(Histogram({1.0}).Buckets(), 1.0), std::invalid_argument);
  EXPECT_EQ(replayed.count(), observed.count());
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(EstimateQuantile, InterpolatesWithinBuckets) {
  Histogram hist({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) hist.Observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) hist.Observe(15.0);  // bucket (10, 20]
  // p50 = rank 10 of 20, the boundary between the two buckets.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 10.0);
  // p75 = rank 15: halfway through the second bucket.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.75), 15.0);
  // First bucket interpolates up from 0 for latency-shaped data.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.25), 5.0);
}

TEST(EstimateQuantile, OverflowClampsToLastFiniteBound) {
  Histogram hist({1.0, 2.0});
  hist.Observe(100.0);
  hist.Observe(200.0);
  // Every observation is in the overflow bucket; the estimator reports
  // the last finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 2.0);
}

TEST(EstimateQuantile, EmptyAndClampedInputs) {
  Histogram hist({1.0, 2.0});
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
  hist.Observe(0.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(-1.0), hist.Quantile(0.0));
  EXPECT_DOUBLE_EQ(hist.Quantile(2.0), hist.Quantile(1.0));
}

TEST(EstimateQuantile, DeterministicForIdenticalBuckets) {
  Histogram a({0.5, 1.0, 5.0});
  Histogram b({0.5, 1.0, 5.0});
  for (double v : {0.1, 0.7, 0.9, 3.0, 4.9, 0.2}) {
    a.Observe(v);
    b.Observe(v);
  }
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q));
  }
}

}  // namespace
}  // namespace quicksand::obs
