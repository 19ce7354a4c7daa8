#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace quicksand::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound required");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::Observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Add(const std::vector<Bucket>& buckets, double sum) {
  const auto same_bound = [](double bound, const Bucket& bucket) {
    return bound == bucket.upper_bound;
  };
  if (buckets.size() != bounds_.size() + 1 || !std::isinf(buckets.back().upper_bound) ||
      !std::equal(bounds_.begin(), bounds_.end(), buckets.begin(), same_bound)) {
    throw std::invalid_argument("Histogram::Add: buckets do not match the bounds");
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    counts_[i].fetch_add(buckets[i].count, std::memory_order_relaxed);
    total += buckets[i].count;
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + sum,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<Histogram::Bucket> Histogram::Buckets() const {
  std::vector<Bucket> out;
  out.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    out.push_back({bounds_[i], counts_[i].load(std::memory_order_relaxed)});
  }
  out.push_back({std::numeric_limits<double>::infinity(),
                 counts_[bounds_.size()].load(std::memory_order_relaxed)});
  return out;
}

void Histogram::Reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double EstimateQuantile(const std::vector<Histogram::Bucket>& buckets, double q) {
  std::uint64_t total = 0;
  for (const Histogram::Bucket& bucket : buckets) total += bucket.count;
  if (total == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double last_finite_bound = 0.0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Histogram::Bucket& bucket = buckets[i];
    const bool overflow = std::isinf(bucket.upper_bound);
    if (!overflow) last_finite_bound = bucket.upper_bound;
    const std::uint64_t next = cumulative + bucket.count;
    if (static_cast<double>(next) >= target && bucket.count > 0) {
      if (overflow) return last_finite_bound;
      double lower;
      if (i == 0) {
        lower = bucket.upper_bound > 0.0 ? 0.0 : bucket.upper_bound;
      } else {
        lower = buckets[i - 1].upper_bound;
      }
      const double fraction =
          (target - static_cast<double>(cumulative)) / static_cast<double>(bucket.count);
      return lower + (bucket.upper_bound - lower) * fraction;
    }
    cumulative = next;
  }
  return last_finite_bound;
}

double Histogram::Quantile(double q) const { return EstimateQuantile(Buckets(), q); }

JsonValue MetricsSnapshot::ToJson() const {
  JsonValue root = JsonValue::Object();
  JsonValue counters_json = JsonValue::Object();
  for (const auto& [name, value] : counters) counters_json.Set(name, value);
  JsonValue gauges_json = JsonValue::Object();
  for (const auto& [name, value] : gauges) gauges_json.Set(name, value);
  JsonValue histograms_json = JsonValue::Object();
  for (const HistogramData& histogram : histograms) {
    JsonValue h = JsonValue::Object();
    h.Set("count", histogram.count);
    h.Set("sum", histogram.sum);
    JsonValue buckets = JsonValue::Array();
    for (const Histogram::Bucket& bucket : histogram.buckets) {
      JsonValue b = JsonValue::Object();
      b.Set("le", bucket.upper_bound);  // +inf serializes as null
      b.Set("count", bucket.count);
      buckets.Append(std::move(b));
    }
    h.Set("buckets", std::move(buckets));
    histograms_json.Set(histogram.name, std::move(h));
  }
  root.Set("counters", std::move(counters_json));
  root.Set("gauges", std::move(gauges_json));
  root.Set("histograms", std::move(histograms_json));
  return root;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked, like exec::ThreadPool::Shared(): the shared
  // pool's workers (also leaked) may still touch counters after main
  // returns, so the registry must outlive every static destructor —
  // destroying it at exit is a use-after-free TSan rightly flags.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::vector<double> MetricsRegistry::DefaultLatencyBucketsMs() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
          1000, 2500, 5000, 10000, 30000, 60000};
}

namespace {

/// Finds or registers `name` in `map`; kRun, once declared, sticks.
template <typename Map, typename Make>
auto& FindOrRegister(Map& map, std::string_view name, Stability stability, Make make) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{make(), stability})
             .first;
  }
  if (stability == Stability::kRun) it->second.stability = Stability::kRun;
  return *it->second.metric;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(std::string_view name, Stability stability) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return FindOrRegister(counters_, name, stability,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Stability stability) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return FindOrRegister(gauges_, name, stability,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds,
                                         Stability stability) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return FindOrRegister(histograms_, name, stability, [&] {
    if (upper_bounds.empty()) upper_bounds = DefaultLatencyBucketsMs();
    return std::make_unique<Histogram>(std::move(upper_bounds));
  });
}

MetricsSnapshot MetricsRegistry::Snapshot(Stability stability) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, entry] : counters_) {
    if (entry.stability != stability) continue;
    snapshot.counters.emplace_back(name, entry.metric->value());
  }
  for (const auto& [name, entry] : gauges_) {
    if (entry.stability != stability) continue;
    snapshot.gauges.emplace_back(name, entry.metric->value());
  }
  for (const auto& [name, entry] : histograms_) {
    if (entry.stability != stability) continue;
    const Histogram& histogram = *entry.metric;
    snapshot.histograms.push_back(
        {name, histogram.count(), histogram.sum(), histogram.Buckets()});
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) entry.second.metric->Reset();
  for (const auto& entry : gauges_) entry.second.metric->Reset();
  for (const auto& entry : histograms_) entry.second.metric->Reset();
}

}  // namespace quicksand::obs
