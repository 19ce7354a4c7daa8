#pragma once

// Memoizing cache for route computations.
//
// The sweep workloads recompute the same stable routing state over and
// over: the dynamics generator derives per-prefix alternates whose
// perturbations (fail the origin's access link, re-salt an on-path AS)
// repeat across attempts, prefixes of the same origin, and events; the
// exposure analyzer replays near-identical variants across circuits. This
// cache keys a computation by what actually determines its output —
//
//   * the canonical origin set (ASN, prepend, propagation radius),
//   * the disabled-link set,
//   * the tie-break-salt configuration, expressed as a registered *epoch*
//     for a dense base vector plus a sparse list of per-AS overrides —
//
// and returns a shared immutable RoutingState. Any mutation of the inputs
// (failing a different link, a new salt epoch, an extra override) forms a
// different key, so "invalidation" is structural: stale entries can never
// be returned, they just stop being looked up.
//
// A miss on a single-origin, radius-free key with failed links derives
// its state rather than solving it, when the key's no-failure state (same
// origin, same salts) is cached: bgp::FailLink applies the key's links to
// that base in turn (the intermediate states are not cached). It solves
// instead when the base is not cached, or once a link re-routes more than
// kDeriveCrossover of the ASes, where a solve is cheaper.
//
// Thread-safe: lookups take a shared lock, inserts an exclusive one; no
// lock is held while a state is solved or derived. Under a concurrent miss
// on the same key both threads compute and one insert wins — values are
// deterministic either way, only the telemetry (`exec.route_cache.hits`,
// `.misses` and `.derived`, registered obs::Stability::kRun) depends on
// scheduling. A lookup that hits allocates nothing. The cache stops
// inserting above `max_entries` (lookups still hit): the workloads' hot
// keys recur early, so a simple insertion cap beats eviction bookkeeping
// on these sweeps.

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/as_graph.hpp"
#include "bgp/route_computation.hpp"

namespace quicksand::bgp {

/// Sparse description of a tie-break-salt configuration: a registered
/// epoch for the dense base vector (0 = all-zero salts) plus per-AS
/// overrides applied on top, sorted by AS index.
struct SaltKey {
  std::uint64_t epoch = 0;
  std::vector<std::pair<AsIndex, std::uint64_t>> overrides;

  friend bool operator==(const SaltKey&, const SaltKey&) = default;
};

class RouteCache {
 public:
  /// The share of ASes a failed link may re-route for a miss to derive its
  /// state (FailLink) rather than solve it. FailLink's cost grows with the
  /// re-routed subtree; a solve's does not. Measured on the paper topology
  /// (608 ASes, policy salts, RelWithDebInfo, gcc 12, 4-core container),
  /// FailLink against a solve of the same key: 0.5–0.6 vs 7.3–8.9 µs under
  /// 1% of the ASes, 4.7–5.4 vs 8.7–10.2 µs at 5–20%, 14.3–16.6 vs
  /// 9.5–11.4 µs at 20–50%; in 5-point buckets it still won at 15–20%
  /// (8.7 vs 10.1 µs) and lost from 20–25% (11.1 vs 10.5 µs) on.
  static constexpr double kDeriveCrossover = 0.20;

  explicit RouteCache(std::size_t max_entries = 4096) : max_entries_(max_entries) {}

  RouteCache(const RouteCache&) = delete;
  RouteCache& operator=(const RouteCache&) = delete;

  /// Registers a dense base-salt vector and returns its epoch token — a
  /// content hash, so the same vector always maps to the same epoch (runs
  /// are comparable across processes). An empty vector is epoch 0.
  [[nodiscard]] static std::uint64_t SaltEpochOf(
      std::span<const std::uint64_t> salts) noexcept;

  /// Returns the routing state for (origins, options), computing (or
  /// deriving) and caching it on first use. `salts` must faithfully
  /// describe `options.tie_break_salts` (epoch of the base vector + the
  /// overrides applied to it); the disabled-link part of the key is read
  /// from `options.disabled_links` directly. Propagates ComputeRoutes'
  /// std::invalid_argument on bad origins.
  [[nodiscard]] std::shared_ptr<const RoutingState> GetOrCompute(
      const AsGraph& graph, std::span<const OriginSpec> origins,
      const ComputationOptions& options = {}, const SaltKey& salts = {});

  /// Single-origin convenience.
  [[nodiscard]] std::shared_ptr<const RoutingState> GetOrCompute(
      const AsGraph& graph, AsNumber origin, const ComputationOptions& options = {},
      const SaltKey& salts = {});

  [[nodiscard]] std::size_t size() const;
  void Clear();

 private:
  /// A key as lookups see it: views of canonical (sorted) inputs.
  struct KeyView {
    std::span<const OriginSpec> origins;    // sorted by ASN
    std::span<const std::uint64_t> disabled;  // sorted, distinct LinkKeys
    std::uint64_t salt_epoch = 0;
    std::span<const std::pair<AsIndex, std::uint64_t>> salt_overrides;
  };
  /// A stored key: owns what its view points at, and converts to it.
  struct Key {
    std::vector<OriginSpec> origins;
    std::vector<std::uint64_t> disabled;
    SaltKey salts;

    operator KeyView() const noexcept {  // NOLINT
      return {origins, disabled, salts.epoch, salts.overrides};
    }
  };
  /// Hash and equality over views, which stored keys convert to, so a
  /// lookup builds no Key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyView& key) const noexcept;
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const noexcept;
  };

  [[nodiscard]] std::shared_ptr<const RoutingState> Find(const KeyView& key) const;

  std::size_t max_entries_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const RoutingState>, KeyHash, KeyEqual> entries_;
};

}  // namespace quicksand::bgp
