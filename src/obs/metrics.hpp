#pragma once

// Process-wide metrics: named counters, gauges, and fixed-bucket
// histograms backed by per-metric atomics.
//
// The registry is designed for hot paths (Rib::Apply, churn analysis,
// circuit construction): callers resolve a metric once — typically into a
// function-local static reference — and afterwards every update is a
// single relaxed atomic RMW, with no lock and no map lookup. Metric
// objects are never destroyed or moved while the registry lives, so
// cached references stay valid across ResetAll().
//
// Every metric declares, where it is registered, whether two runs of one
// seed must agree on it (Stability). Snapshots take one class at a time,
// are name-sorted and contain only what instrumentation wrote, so a seeded
// run snapshots its kSeeded metrics identically every time (see
// docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace quicksand::obs {

/// Whether two runs of one seed must agree on a metric. Bench JSON keeps
/// kSeeded metrics in its top-level maps and kRun metrics in its "run"
/// section; the determinism checker, the matrix merge and checkpoint
/// resume read only the seeded ones.
enum class Stability : std::uint8_t {
  kSeeded,  ///< a pure function of the seed and the experiment's inputs
  kRun,     ///< may vary with threads, scheduling, kill points, batch size,
            ///< wire format, sampler cadence or wall time
};

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (table sizes, pool sizes); last write wins.
class Gauge {
 public:
  void Set(std::int64_t value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void Add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket bounds are inclusive upper bounds in
/// ascending order; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  struct Bucket {
    double upper_bound;   ///< +inf for the overflow bucket
    std::uint64_t count;  ///< observations in (previous_bound, upper_bound]
  };

  /// Throws std::invalid_argument if bounds are empty or not ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value) noexcept;
  /// Adds pre-bucketed observations (each bucket's count into the bucket
  /// with the same bound) and `sum` to the running sum. Throws
  /// std::invalid_argument, changing nothing, unless `buckets` has exactly
  /// this histogram's bounds, overflow last.
  void Add(const std::vector<Bucket>& buckets, double sum);

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of observed values (CAS-accumulated; exact for deterministic
  /// single-threaded runs, last-writer-resolved under contention).
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket (non-cumulative) counts, overflow bucket last.
  [[nodiscard]] std::vector<Bucket> Buckets() const;

  /// Estimated q-quantile of the observations; see EstimateQuantile.
  [[nodiscard]] double Quantile(double q) const;

  void Reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Estimates the q-quantile (q in [0, 1]) of a bucketed distribution by
/// linear interpolation inside the bucket holding the target rank. The
/// first bucket interpolates up from 0 when its bound is positive
/// (latency-shaped data), else from the bound itself; a rank landing in
/// the overflow bucket clamps to the last finite bound (the estimator
/// never invents a value beyond what the buckets can support). Returns 0
/// for an empty distribution. Pure
/// arithmetic over the bucket counts, so deterministic inputs give
/// deterministic quantiles — `--profile` surfaces p50/p95/p99 through
/// this instead of dumping raw buckets.
[[nodiscard]] double EstimateQuantile(const std::vector<Histogram::Bucket>& buckets,
                                      double q);

/// A name-sorted, point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0;
    std::vector<Histogram::Bucket> buckets;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramData> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] JsonValue ToJson() const;
};

/// Owner of all named metrics. Get* registers on first use and returns a
/// stable reference; concurrent registration is mutex-protected, updates
/// through the returned references are lock-free. A metric is kRun once any
/// Get* call has declared it so; a kSeeded lookup never changes its class.
class MetricsRegistry {
 public:
  /// The process-wide registry used by library instrumentation.
  [[nodiscard]] static MetricsRegistry& Global();

  /// Default bounds for wall-time histograms, in milliseconds.
  [[nodiscard]] static std::vector<double> DefaultLatencyBucketsMs();

  [[nodiscard]] Counter& GetCounter(std::string_view name,
                                    Stability stability = Stability::kSeeded);
  [[nodiscard]] Gauge& GetGauge(std::string_view name,
                                Stability stability = Stability::kSeeded);
  /// `upper_bounds` is used only on first registration of `name`.
  [[nodiscard]] Histogram& GetHistogram(std::string_view name,
                                        std::vector<double> upper_bounds = {},
                                        Stability stability = Stability::kSeeded);

  /// The metrics of one class.
  [[nodiscard]] MetricsSnapshot Snapshot(Stability stability) const;

  /// Zeroes every metric (references stay valid). For tests and repeated
  /// in-process experiment runs.
  void ResetAll();

 private:
  template <typename Metric>
  struct Entry {
    std::unique_ptr<Metric> metric;
    Stability stability = Stability::kSeeded;
  };
  template <typename Metric>
  using Map = std::map<std::string, Entry<Metric>, std::less<>>;

  mutable std::mutex mutex_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace quicksand::obs
