#include "bgp/route_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace quicksand::bgp {

namespace {

// splitmix64 finalizer — the same mix netbase::Rng seeds with; good
// avalanche for combining hash words.
constexpr std::uint64_t Mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t Combine(std::uint64_t seed, std::uint64_t value) noexcept {
  return Mix(seed ^ Mix(value));
}

}  // namespace

std::uint64_t RouteCache::SaltEpochOf(std::span<const std::uint64_t> salts) noexcept {
  if (salts.empty()) return 0;
  std::uint64_t h = 0x51CA7E5A175ULL;  // non-zero: a registered vector is never epoch 0
  for (std::uint64_t salt : salts) h = Combine(h, salt);
  return h == 0 ? 1 : h;
}

std::size_t RouteCache::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = key.salts.epoch;
  for (const OriginSpec& spec : key.origins) {
    h = Combine(h, spec.origin);
    h = Combine(h, static_cast<std::uint64_t>(spec.prepend) << 32 |
                       static_cast<std::uint32_t>(spec.propagation_radius));
  }
  for (std::uint64_t link : key.disabled) h = Combine(h, link);
  for (const auto& [index, salt] : key.salts.overrides) {
    h = Combine(h, (static_cast<std::uint64_t>(index) << 1) ^ salt);
  }
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const RoutingState> RouteCache::GetOrCompute(
    const AsGraph& graph, std::span<const OriginSpec> origins,
    const ComputationOptions& options, const SaltKey& salts) {
  static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "exec.route_cache.hits", obs::Stability::kRun);
  static obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "exec.route_cache.misses", obs::Stability::kRun);

  Key key;
  key.origins.assign(origins.begin(), origins.end());
  std::sort(key.origins.begin(), key.origins.end(),
            [](const OriginSpec& a, const OriginSpec& b) { return a.origin < b.origin; });
  if (options.disabled_links != nullptr) {
    key.disabled.assign(options.disabled_links->begin(), options.disabled_links->end());
    std::sort(key.disabled.begin(), key.disabled.end());
  }
  key.salts = salts;

  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits.Increment();
      return it->second;
    }
  }
  misses.Increment();
  auto state = std::make_shared<const RoutingState>(
      ComputeRoutes(graph, origins, options));
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (entries_.size() >= max_entries_) return state;  // full: serve uncached
    const auto [it, inserted] = entries_.emplace(std::move(key), std::move(state));
    return it->second;  // a racing insert may have won; return the cached one
  }
}

std::shared_ptr<const RoutingState> RouteCache::GetOrCompute(
    const AsGraph& graph, AsNumber origin, const ComputationOptions& options,
    const SaltKey& salts) {
  const OriginSpec spec{origin, 1, 0};
  return GetOrCompute(graph, std::span<const OriginSpec>(&spec, 1), options, salts);
}

std::size_t RouteCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

void RouteCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace quicksand::bgp
