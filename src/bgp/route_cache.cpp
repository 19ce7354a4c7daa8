#include "bgp/route_cache.hpp"

#include <algorithm>
#include <functional>
#include <optional>

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

/// `base` with `links` failed in turn (bgp::FailLink), or nullopt as soon
/// as a link would re-route more than `cap` ASes, where a solve is cheaper.
std::optional<RoutingState> FailLinks(const RoutingState& base,
                                      std::span<const std::uint64_t> links,
                                      std::span<const std::uint64_t> salts, std::size_t cap) {
  std::optional<RoutingState> state;
  for (const std::uint64_t link : links) {
    if ((state ? *state : base).CountCrossing(link, cap + 1) > cap) return std::nullopt;
    state = FailLink(state ? std::move(*state) : RoutingState(base), link, salts);
  }
  return state;
}

}  // namespace

std::uint64_t RouteCache::SaltEpochOf(std::span<const std::uint64_t> salts) noexcept {
  if (salts.empty()) return 0;
  std::uint64_t h = 0x51CA7E5A175ULL;  // non-zero: a registered vector is never epoch 0
  for (std::uint64_t salt : salts) h = Combine(h, salt);
  return h == 0 ? 1 : h;
}

std::size_t RouteCache::KeyHash::operator()(const KeyView& key) const noexcept {
  std::uint64_t h = key.salt_epoch;
  for (const OriginSpec& spec : key.origins) {
    h = Combine(h, spec.origin);
    h = Combine(h, static_cast<std::uint64_t>(spec.prepend) << 32 |
                       static_cast<std::uint32_t>(spec.propagation_radius));
  }
  for (std::uint64_t link : key.disabled) h = Combine(h, link);
  for (const auto& [index, salt] : key.salt_overrides) {
    h = Combine(h, (static_cast<std::uint64_t>(index) << 1) ^ salt);
  }
  return static_cast<std::size_t>(h);
}

bool RouteCache::KeyEqual::operator()(const KeyView& a, const KeyView& b) const noexcept {
  return a.salt_epoch == b.salt_epoch && std::ranges::equal(a.origins, b.origins) &&
         std::ranges::equal(a.disabled, b.disabled) &&
         std::ranges::equal(a.salt_overrides, b.salt_overrides);
}

std::shared_ptr<const RoutingState> RouteCache::Find(const KeyView& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const RoutingState> RouteCache::GetOrCompute(
    const AsGraph& graph, std::span<const OriginSpec> origins,
    const ComputationOptions& options, const SaltKey& salts) {
  static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "exec.route_cache.hits", obs::Stability::kRun);
  static obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "exec.route_cache.misses", obs::Stability::kRun);
  static obs::Counter& derived = obs::MetricsRegistry::Global().GetCounter(
      "exec.route_cache.derived", obs::Stability::kRun);

  // The key views the caller's inputs when they are already canonical
  // (origins sorted by ASN, links strictly increasing, as every
  // single-origin, single-link lookup is), so such a lookup allocates
  // nothing; other inputs are sorted into a copy.
  std::vector<OriginSpec> origin_copy;
  std::span<const OriginSpec> sorted_origins = origins;
  if (!std::ranges::is_sorted(origins, {}, &OriginSpec::origin)) {
    origin_copy.assign(origins.begin(), origins.end());
    std::ranges::sort(origin_copy, {}, &OriginSpec::origin);
    sorted_origins = origin_copy;
  }
  std::vector<std::uint64_t> link_copy;
  std::span<const std::uint64_t> sorted_links = options.disabled_links;
  if (std::ranges::adjacent_find(sorted_links, std::greater_equal<>()) != sorted_links.end()) {
    link_copy.assign(sorted_links.begin(), sorted_links.end());
    std::ranges::sort(link_copy);
    link_copy.erase(std::unique(link_copy.begin(), link_copy.end()), link_copy.end());
    sorted_links = link_copy;
  }
  const KeyView view{sorted_origins, sorted_links, salts.epoch, salts.overrides};

  if (auto state = Find(view)) {
    hits.Increment();
    return state;
  }
  misses.Increment();
  std::shared_ptr<const RoutingState> state;
  if (sorted_origins.size() == 1 && sorted_origins.front().propagation_radius == 0 &&
      !sorted_links.empty()) {
    KeyView base_view = view;
    base_view.disabled = {};
    if (const auto base = Find(base_view)) {
      const auto cap = static_cast<std::size_t>(kDeriveCrossover *
                                                static_cast<double>(graph.AsCount()));
      if (auto failed = FailLinks(*base, sorted_links, options.tie_break_salts, cap)) {
        derived.Increment();
        state = std::make_shared<const RoutingState>(std::move(*failed));
      }
    }
  }
  if (!state) state = std::make_shared<const RoutingState>(ComputeRoutes(graph, origins, options));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (entries_.size() >= max_entries_) return state;  // full: serve uncached
  Key key{std::vector<OriginSpec>(view.origins.begin(), view.origins.end()),
          std::vector<std::uint64_t>(view.disabled.begin(), view.disabled.end()), salts};
  const auto [it, inserted] = entries_.emplace(std::move(key), std::move(state));
  return it->second;  // a racing insert may have won; return the cached one
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
