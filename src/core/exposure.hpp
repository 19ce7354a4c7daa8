#pragma once

// Computing which ASes see a circuit's end segments, now and over time.
//
// Forward and reverse AS-level paths come from the policy-routing engine;
// they differ in general (asymmetric routing). Temporal exposure unions
// the paths across routing variants — single-link failures and policy
// shifts, the same variant mechanism the dynamics generator uses — which
// is how "the set of ASes on the paths between the client and the guard
// relays does change" even while the guard stays fixed.

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bgp/as_graph.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/route_computation.hpp"
#include "core/adversary.hpp"
#include "netbase/rng.hpp"

namespace quicksand::core {

/// Computes AS-level directional paths and segment exposures over a fixed
/// topology, caching routing states (per destination, and per recurring
/// link-failure variant) in a thread-safe bgp::RouteCache — concurrent
/// queries from parallel sweeps are safe. A link-failure variant the cache
/// misses is derived from the cached per-destination state
/// (bgp::FailLink), not solved, unless it re-routes much of the graph. A
/// policy-shift variant is not a state at all: its path is read off the
/// cached per-destination state with the one next hop bgp::ShiftSalt would
/// re-choose. A variant lookup that hits the cache allocates nothing; each
/// returned path is one vector. The graph must outlive the analyzer.
class ExposureAnalyzer {
 public:
  /// `base_salts` are per-AS tie-break salts applied to every computation
  /// (e.g. Topology::policy_salts); idiosyncratic per-AS preferences are
  /// what makes forward and reverse routes diverge. Empty means none.
  explicit ExposureAnalyzer(const bgp::AsGraph& graph,
                            std::vector<std::uint64_t> base_salts = {})
      : graph_(&graph),
        base_salts_(std::move(base_salts)),
        salt_epoch_(bgp::RouteCache::SaltEpochOf(base_salts_)) {}

  /// Distinct ASes on the forward data-plane path src -> dst (endpoints
  /// included). Empty if src has no route to dst.
  [[nodiscard]] std::vector<bgp::AsNumber> ForwardPathAses(bgp::AsNumber src,
                                                           bgp::AsNumber dst);

  /// Hop count of the forward path src -> dst (0 if unrouted) — the
  /// AS-PATH length input to the short-path guard preference.
  [[nodiscard]] int ForwardPathLength(bgp::AsNumber src, bgp::AsNumber dst);

  /// The four directional AS sets of one instance: client<->guard and
  /// exit<->destination, both directions each.
  [[nodiscard]] SegmentExposure InstantExposure(bgp::AsNumber client_as,
                                                bgp::AsNumber guard_as,
                                                bgp::AsNumber exit_as,
                                                bgp::AsNumber dest_as);

  /// Exposure unioned over `variants` routing perturbations (random
  /// single-link failures on the involved paths and per-AS policy-shift
  /// salts), modeling a month of routing dynamics under a fixed circuit.
  /// Deterministic for a given seed.
  [[nodiscard]] SegmentExposure TemporalExposure(bgp::AsNumber client_as,
                                                 bgp::AsNumber guard_as,
                                                 bgp::AsNumber exit_as,
                                                 bgp::AsNumber dest_as,
                                                 std::size_t variants,
                                                 std::uint64_t seed);

  /// Distinct-AS count on the client->guard paths across variants — the
  /// model's x. Deterministic for a given seed.
  [[nodiscard]] std::size_t DistinctEntryAses(bgp::AsNumber client_as,
                                              bgp::AsNumber guard_as,
                                              std::size_t variants, std::uint64_t seed);

  /// Drops the routing-state cache (e.g. after simulating a failure).
  void ClearCache() { cache_.Clear(); }

 private:
  /// No AS of a path takes a detour (see PathFrom).
  static constexpr bgp::AsIndex kNoDetour = std::numeric_limits<bgp::AsIndex>::max();

  /// The routing state toward `dst`, with `failed_link` (a LinkKey; 0 for
  /// none) down.
  [[nodiscard]] std::shared_ptr<const bgp::RoutingState> StateFor(bgp::AsNumber dst,
                                                                  std::uint64_t failed_link = 0);
  /// The ASNs of `src`'s forwarding path in `state`, where AS `detour`
  /// forwards to `detour_hop` instead of its own next hop.
  [[nodiscard]] std::vector<bgp::AsNumber> PathFrom(const bgp::RoutingState& state,
                                                    bgp::AsIndex src,
                                                    bgp::AsIndex detour = kNoDetour,
                                                    bgp::AsIndex detour_hop = 0) const;
  [[nodiscard]] std::vector<bgp::AsNumber> PathUnderVariant(bgp::AsNumber src,
                                                            bgp::AsNumber dst,
                                                            netbase::Rng& rng);

  const bgp::AsGraph* graph_;
  std::vector<std::uint64_t> base_salts_;
  std::uint64_t salt_epoch_;
  bgp::RouteCache cache_;
};

}  // namespace quicksand::core
