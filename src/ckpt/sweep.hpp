#pragma once

// CheckpointedMap — exec::ParallelMap with crash-safe progress.
//
// The sweep is addressed exactly like the exec layer addresses work: shard
// i computes the same value no matter which thread runs it, when it runs,
// or whether the process died in between (index-keyed RNG substreams,
// index-ordered combination — see src/exec/parallel.hpp). That contract is
// what makes resume byte-exact: a snapshot only needs the *completed*
// shard payloads, and recomputing the missing ones reproduces an
// uninterrupted run bit-for-bit at any thread count.
//
// With no snapshot path configured the call is an exact pass-through to
// exec::ParallelMap — same scheduling, same exec.* telemetry, no ckpt.*
// metrics registered — so bench JSON with checkpointing disabled is
// byte-identical to a binary that never heard of quicksand::ckpt.
//
// Encode/decode use ckpt/payload.hpp so doubles round-trip bit-exactly;
// a shard whose stored payload fails to decode (format drift — checksum
// already rules out corruption) is simply recomputed.
//
// Telemetry parity: domain metrics (core.*, traffic.*, util.retry.*, ...)
// tally work *performed*, and a resumed process performs less of it — it
// skips the shards it loaded. To keep a resumed run's seeded metrics equal
// to an uninterrupted run's, each shard payload is prefixed with the
// deltas that shard produced in every obs::Stability::kSeeded counter and
// histogram (bounds, per-bucket counts, sum), and resume replays the
// deltas of every decoded shard. kRun metrics are neither captured nor
// replayed. Exact attribution requires that only one shard touch the
// global registry at a time, so a sweep with checkpointing ENABLED runs
// its shards serially; `fn` keeps whatever inner parallelism it has (the
// bench's --threads), and counter totals are order-independent sums, so
// output stays byte-identical either way. A histogram's replayed sum is
// exact only when its observations are integer-valued (as
// `util.retry.attempts`' are): otherwise the per-shard differences round
// differently from one running sum.

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/payload.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace quicksand::ckpt {

/// One checkpointable sweep inside a bench, as configured by the harness
/// (bench::BenchContext::Stage builds these from --checkpoint / --resume).
struct StageOptions {
  std::string snapshot_path;  ///< empty => checkpointing disabled
  std::uint64_t fingerprint = 0;
  bool resume = false;
};

namespace detail {

/// Leads every shard payload. Older payloads start with a counter count
/// instead, so they fail to decode and their shards are recomputed.
inline constexpr std::string_view kTelemetryTag = "telemetry-v2";

[[nodiscard]] inline obs::MetricsSnapshot SeededSnapshot() {
  return obs::MetricsRegistry::Global().Snapshot(obs::Stability::kSeeded);
}

/// What one shard did to the seeded metrics: after - before, keeping only
/// the counters and histograms it touched. `after` is name-sorted, so the
/// result is too — snapshot bytes stay deterministic.
[[nodiscard]] inline obs::MetricsSnapshot ShardDelta(const obs::MetricsSnapshot& before,
                                                     const obs::MetricsSnapshot& after) {
  obs::MetricsSnapshot delta;
  const std::map<std::string_view, std::uint64_t> counters(before.counters.begin(),
                                                           before.counters.end());
  for (const auto& [name, value] : after.counters) {
    const auto prior = counters.find(name);
    const std::uint64_t base = prior == counters.end() ? 0 : prior->second;
    if (value != base) delta.counters.emplace_back(name, value - base);
  }
  std::map<std::string_view, const obs::MetricsSnapshot::HistogramData*> histograms;
  for (const auto& histogram : before.histograms) {
    histograms.emplace(histogram.name, &histogram);
  }
  for (obs::MetricsSnapshot::HistogramData histogram : after.histograms) {
    if (const auto prior = histograms.find(histogram.name); prior != histograms.end()) {
      histogram.count -= prior->second->count;
      histogram.sum -= prior->second->sum;
      for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
        histogram.buckets[i].count -= prior->second->buckets[i].count;
      }
    }
    if (histogram.count > 0) delta.histograms.push_back(std::move(histogram));
  }
  return delta;
}

inline void EncodeShardDelta(const obs::MetricsSnapshot& delta, PayloadWriter& payload) {
  payload.Str(kTelemetryTag).U64(delta.counters.size());
  for (const auto& [name, value] : delta.counters) payload.Str(name).U64(value);
  payload.U64(delta.histograms.size());
  for (const auto& histogram : delta.histograms) {
    payload.Str(histogram.name).Dbl(histogram.sum).U64(histogram.buckets.size());
    for (const auto& bucket : histogram.buckets) {
      payload.Dbl(bucket.upper_bound).U64(bucket.count);
    }
  }
}

/// Reads field by field, never trusting a decoded length to pre-size a
/// vector. Throws std::runtime_error on any other format.
[[nodiscard]] inline obs::MetricsSnapshot DecodeShardDelta(PayloadReader& payload) {
  if (payload.Str() != kTelemetryTag) {
    throw std::runtime_error("shard telemetry: unknown format");
  }
  obs::MetricsSnapshot delta;
  for (std::uint64_t n = payload.U64(); n > 0; --n) {
    std::string name = payload.Str();
    delta.counters.emplace_back(std::move(name), payload.U64());
  }
  for (std::uint64_t n = payload.U64(); n > 0; --n) {
    obs::MetricsSnapshot::HistogramData histogram;
    histogram.name = payload.Str();
    histogram.sum = payload.Dbl();
    for (std::uint64_t buckets = payload.U64(); buckets > 0; --buckets) {
      const double upper_bound = payload.Dbl();
      histogram.buckets.push_back({upper_bound, payload.U64()});
      histogram.count += histogram.buckets.back().count;
    }
    delta.histograms.push_back(std::move(histogram));
  }
  return delta;
}

/// Replays a shard's delta into the global registry, all or nothing: every
/// histogram is checked against its own bounds and against the registered
/// seeded histogram of its name, if any, before anything is applied.
/// Throws std::exception when a check fails.
inline void ReplayShardDelta(const obs::MetricsSnapshot& delta) {
  const obs::MetricsSnapshot seeded = SeededSnapshot();
  const auto same_bound = [](const obs::Histogram::Bucket& a,
                             const obs::Histogram::Bucket& b) {
    return a.upper_bound == b.upper_bound;
  };
  std::vector<std::vector<double>> bounds;
  for (const auto& histogram : delta.histograms) {
    bounds.emplace_back();
    for (std::size_t i = 0; i + 1 < histogram.buckets.size(); ++i) {
      bounds.back().push_back(histogram.buckets[i].upper_bound);
    }
    obs::Histogram(bounds.back()).Add(histogram.buckets, histogram.sum);  // layout check
    for (const auto& registered : seeded.histograms) {
      if (registered.name == histogram.name &&
          !std::equal(registered.buckets.begin(), registered.buckets.end(),
                      histogram.buckets.begin(), histogram.buckets.end(), same_bound)) {
        throw std::runtime_error("shard telemetry: bounds changed for " +
                                 histogram.name);
      }
    }
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const auto& [name, value] : delta.counters) {
    registry.GetCounter(name).Increment(value);
  }
  for (std::size_t i = 0; i < delta.histograms.size(); ++i) {
    const auto& histogram = delta.histograms[i];
    registry.GetHistogram(histogram.name, bounds[i]).Add(histogram.buckets, histogram.sum);
  }
}

}  // namespace detail

/// Maps `fn(i)` over [0, n) with per-shard checkpointing. `encode` is
/// `void(const R&, PayloadWriter&)`, `decode` is `R(PayloadReader&)` and
/// must be exact inverses. Returns results in index order, exactly like
/// exec::ParallelMap.
template <typename Fn, typename Encode, typename Decode,
          typename R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>>
[[nodiscard]] std::vector<R> CheckpointedMap(const StageOptions& stage,
                                             std::size_t threads, std::size_t n,
                                             Fn&& fn, Encode&& encode,
                                             Decode&& decode) {
  if (stage.snapshot_path.empty()) {
    // Pass-through: identical to the un-checkpointed bench, including the
    // exec.* counters it increments.
    return exec::ParallelMap(threads, n, fn, /*grain=*/1);
  }

  std::vector<std::optional<R>> slots(n);
  CheckpointWriter::Options writer_options;
  writer_options.path = stage.snapshot_path;
  writer_options.fingerprint = stage.fingerprint;
  writer_options.total_shards = n;
  CheckpointWriter writer(std::move(writer_options));

  if (stage.resume) {
    ResumeResult loaded = ResumeLoader::Load(stage.snapshot_path,
                                             stage.fingerprint, n);
    if (loaded.resumed) {
      for (const auto& [shard, payload] : loaded.payloads) {
        try {
          PayloadReader reader(payload);
          const obs::MetricsSnapshot delta = detail::DecodeShardDelta(reader);
          slots[shard].emplace(decode(reader));
          if (!reader.AtEnd()) {
            throw std::runtime_error("trailing bytes after shard payload");
          }
          detail::ReplayShardDelta(delta);
        } catch (const std::exception&) {
          slots[shard].reset();  // format drift: recompute this shard
        }
      }
      writer.Seed(std::move(loaded.payloads));
    }
  }

  std::vector<std::size_t> missing;
  missing.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i].has_value()) missing.push_back(i);
  }

  // Serial on purpose: per-shard telemetry attribution diffs the global
  // registry around fn(shard), which is only exact when no sibling shard
  // runs concurrently. `fn` still uses its inner --threads parallelism,
  // and shard results/counter totals are scheduling-independent, so output
  // matches the parallel pass-through byte for byte.
  (void)threads;
  for (const std::size_t shard : missing) {
    const obs::MetricsSnapshot before = detail::SeededSnapshot();
    R value = fn(shard);
    PayloadWriter payload;
    detail::EncodeShardDelta(detail::ShardDelta(before, detail::SeededSnapshot()), payload);
    encode(static_cast<const R&>(value), payload);
    slots[shard].emplace(std::move(value));
    writer.Record(shard, payload.Take());
  }
  writer.Flush();

  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace quicksand::ckpt
