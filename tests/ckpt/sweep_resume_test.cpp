#include "ckpt/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "obs/metrics.hpp"

namespace quicksand::ckpt {
namespace {

/// Temp-file path helper; removes the file on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) {
    path = std::string(::testing::TempDir()) + name;
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

struct ShardResult {
  std::uint64_t shard = 0;
  double value = 0;
  bool operator==(const ShardResult&) const = default;
};

void Encode(const ShardResult& result, PayloadWriter& payload) {
  payload.U64(result.shard).Dbl(result.value);
}

ShardResult Decode(PayloadReader& payload) {
  ShardResult result;
  result.shard = payload.U64();
  result.value = payload.Dbl();
  return result;
}

/// The sweep body: deterministic per shard, counts invocations, and
/// touches a domain-style counter and histogram so replay is observable,
/// plus a run-class counter that resume must not replay.
struct CountingFn {
  std::atomic<std::size_t>* calls;
  ShardResult operator()(std::size_t i) const {
    calls->fetch_add(1);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("test.sweep.work_done").Increment(i + 1);
    registry.GetHistogram("test.sweep.attempts", {1, 2, 4})
        .Observe(static_cast<double>(i % 3 + 1));
    registry.GetCounter("test.sweep.run_only", obs::Stability::kRun).Increment();
    return {i, 0.5 * static_cast<double>(i) + 1.0 / 3.0};
  }
};

/// Count, sum and per-bucket counts of the sweep's seeded histogram.
struct HistogramTotals {
  std::uint64_t count = 0;
  double sum = 0;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] static HistogramTotals Now() {
    const obs::Histogram& histogram =
        obs::MetricsRegistry::Global().GetHistogram("test.sweep.attempts", {1, 2, 4});
    HistogramTotals totals{histogram.count(), histogram.sum(), {}};
    for (const auto& bucket : histogram.Buckets()) totals.buckets.push_back(bucket.count);
    return totals;
  }
  [[nodiscard]] HistogramTotals operator-(const HistogramTotals& base) const {
    HistogramTotals delta{count - base.count, sum - base.sum, buckets};
    for (std::size_t i = 0; i < buckets.size(); ++i) delta.buckets[i] -= base.buckets[i];
    return delta;
  }
};

[[nodiscard]] std::vector<ShardResult> Reference(std::size_t n) {
  std::atomic<std::size_t> calls{0};
  StageOptions disabled;
  return CheckpointedMap(disabled, /*threads=*/2, n, CountingFn{&calls},
                         Encode, Decode);
}

[[nodiscard]] std::uint64_t WorkCounter() {
  return obs::MetricsRegistry::Global().GetCounter("test.sweep.work_done").value();
}

[[nodiscard]] std::uint64_t RunOnlyCounter() {
  return obs::MetricsRegistry::Global().GetCounter("test.sweep.run_only").value();
}

TEST(CheckpointedMap, DisabledStageMatchesParallelMap) {
  std::atomic<std::size_t> calls{0};
  StageOptions disabled;
  const auto results =
      CheckpointedMap(disabled, /*threads=*/4, 9, CountingFn{&calls}, Encode,
                      Decode);
  EXPECT_EQ(calls.load(), 9u);
  const auto expected =
      exec::ParallelMap(1, std::size_t{9},
                        [](std::size_t i) {
                          return ShardResult{
                              i, 0.5 * static_cast<double>(i) + 1.0 / 3.0};
                        },
                        /*grain=*/1);
  EXPECT_EQ(results, expected);
}

TEST(CheckpointedMap, ResumeFromCompleteSnapshotRecomputesNothing) {
  TempPath tmp("sweep_complete.ckpt");
  StageOptions stage;
  stage.snapshot_path = tmp.path;
  stage.fingerprint = 77;

  std::atomic<std::size_t> calls{0};
  const HistogramTotals fresh_base = HistogramTotals::Now();
  const auto first =
      CheckpointedMap(stage, 2, 6, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 6u);
  const HistogramTotals fresh = HistogramTotals::Now() - fresh_base;
  ASSERT_EQ(fresh.count, 6u);

  stage.resume = true;
  calls = 0;
  const std::uint64_t before = WorkCounter();
  const std::uint64_t run_before = RunOnlyCounter();
  const HistogramTotals resume_base = HistogramTotals::Now();
  const auto second =
      CheckpointedMap(stage, 2, 6, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 0u) << "complete snapshot must skip every shard";
  EXPECT_EQ(second, first);
  // Work-performed telemetry is replayed from the checkpointed per-shard
  // deltas, so a resumed run reports the same seeded totals as a fresh
  // one: 1+2+...+6, and the same histogram buckets and sum.
  EXPECT_EQ(WorkCounter() - before, 21u);
  const HistogramTotals replayed = HistogramTotals::Now() - resume_base;
  EXPECT_EQ(replayed.count, fresh.count);
  EXPECT_EQ(replayed.sum, fresh.sum);
  EXPECT_EQ(replayed.buckets, fresh.buckets);
  // Run-class metrics record what this process did: no shard ran.
  EXPECT_EQ(RunOnlyCounter() - run_before, 0u);
}

TEST(CheckpointedMap, PartialSnapshotRecomputesOnlyMissingShards) {
  TempPath tmp("sweep_partial.ckpt");
  StageOptions stage;
  stage.snapshot_path = tmp.path;
  stage.fingerprint = 78;

  std::atomic<std::size_t> calls{0};
  const auto full =
      CheckpointedMap(stage, 2, 8, CountingFn{&calls}, Encode, Decode);

  // Drop shards 2 and 5 from the on-disk snapshot, as if the run had been
  // killed before recording them.
  SnapshotLoad load = LoadSnapshotFile(tmp.path);
  ASSERT_TRUE(load.ok) << load.error;
  load.snapshot.payloads.erase(2);
  load.snapshot.payloads.erase(5);
  WriteSnapshotFile(tmp.path, load.snapshot);

  stage.resume = true;
  calls = 0;
  const std::uint64_t before = WorkCounter();
  const auto resumed =
      CheckpointedMap(stage, 2, 8, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 2u) << "only the two missing shards recompute";
  EXPECT_EQ(resumed, full);
  // Replayed deltas (1..8 minus shards 2 and 5) plus recomputed work.
  EXPECT_EQ(WorkCounter() - before, 36u);

  // The final flush repaired the snapshot: resuming again computes nothing.
  calls = 0;
  const auto again =
      CheckpointedMap(stage, 2, 8, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(again, full);
}

TEST(CheckpointedMap, CorruptSnapshotFallsBackToFreshRun) {
  TempPath tmp("sweep_corrupt.ckpt");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "quicksand-ckpt-v1\nfp 0000000000000000\ngarbage follows\n";
  }
  StageOptions stage;
  stage.snapshot_path = tmp.path;
  stage.fingerprint = 79;
  stage.resume = true;

  std::atomic<std::size_t> calls{0};
  const auto results =
      CheckpointedMap(stage, 2, 5, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 5u) << "rejected snapshot means a fresh run";
  EXPECT_EQ(results, Reference(5));
}

TEST(CheckpointedMap, FingerprintMismatchFallsBackToFreshRun) {
  TempPath tmp("sweep_wrong_fp.ckpt");
  StageOptions stage;
  stage.snapshot_path = tmp.path;
  stage.fingerprint = 80;

  std::atomic<std::size_t> calls{0};
  (void)CheckpointedMap(stage, 2, 4, CountingFn{&calls}, Encode, Decode);

  stage.fingerprint = 81;  // different config+seed identity
  stage.resume = true;
  calls = 0;
  const auto results =
      CheckpointedMap(stage, 2, 4, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 4u) << "foreign snapshot must not be mixed in";
  EXPECT_EQ(results, Reference(4));
}

TEST(CheckpointedMap, UndecodablePayloadRecomputesThatShard) {
  TempPath tmp("sweep_drift.ckpt");
  StageOptions stage;
  stage.snapshot_path = tmp.path;
  stage.fingerprint = 82;

  std::atomic<std::size_t> calls{0};
  const auto full =
      CheckpointedMap(stage, 2, 4, CountingFn{&calls}, Encode, Decode);

  // Replace shard 1's payload with bytes the decoder can't parse (the
  // snapshot itself stays checksum-valid, as after an encode/decode drift).
  SnapshotLoad load = LoadSnapshotFile(tmp.path);
  ASSERT_TRUE(load.ok) << load.error;
  load.snapshot.payloads[1] = "u 0\nnot a valid shard payload";
  WriteSnapshotFile(tmp.path, load.snapshot);

  stage.resume = true;
  calls = 0;
  const auto resumed =
      CheckpointedMap(stage, 2, 4, CountingFn{&calls}, Encode, Decode);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(resumed, full);
}

}  // namespace
}  // namespace quicksand::ckpt
