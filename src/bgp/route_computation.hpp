#pragma once

// Per-prefix interdomain route computation under Gao–Rexford policies.
//
// Computes the stable routing state toward a destination prefix announced
// by one or more origin ASes (several origins model MOAS conflicts and
// hijack/interception attacks). The algorithm is the classical three-stage
// propagation used in routing-security studies:
//
//   stage 1  customer routes ripple *up* provider links from the origins,
//            in breadth-first (shortest-path) order;
//   stage 2  ASes with customer/self routes offer them across peer links;
//   stage 3  routes ripple *down* customer links, again breadth-first.
//
// Preference at every AS: customer > peer > provider class, then shortest
// AS-PATH, then a deterministic tie-break (optionally salted per AS to
// model policy shifts). The result is the unique stable valley-free state.
//
// Failed links are passed as LinkKeys; announcements may carry a
// propagation radius (BGP-community-scoped attacks, Section 3.2) and
// origin-side path prepending.
//
// Which ASes hold a route, of which class and length, does not depend on
// the tie-break salts; only the choice among equally good exporters does.
// So re-salting one AS of a single-origin state changes that AS's next hop
// and nothing else, and ShiftSalt computes exactly that in O(degree)
// instead of a new solve.
//
// Failing one more link of a single-origin state re-routes the ASes whose
// forwarding path crosses it (the subtree behind the link) and, less
// obviously, some ASes outside that subtree: a subtree member that loses a
// long customer route can fall back to a shorter peer route, and its
// customers then get shorter provider routes through it. FailLink
// re-solves the subtree in stage order and then runs that improvement wave
// over provider routes, so it equals a solve while touching only the
// re-routed region.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bgp/as_graph.hpp"
#include "bgp/path.hpp"
#include "bgp/policy.hpp"

namespace quicksand::bgp {

/// One origin announcement of the destination prefix.
struct OriginSpec {
  AsNumber origin = 0;
  /// How many times the origin appears in the announced path (prepending).
  /// Must be >= 1.
  int prepend = 1;
  /// If positive, the announcement is dropped once the AS-PATH would grow
  /// beyond this many hops — models community-scoped, limited-propagation
  /// announcements ("stealth" hijacks). 0 means unlimited.
  int propagation_radius = 0;

  friend bool operator==(const OriginSpec&, const OriginSpec&) = default;
};

/// Options shared by a route computation.
struct ComputationOptions {
  /// Links to treat as failed: LinkKeys of dense indices, in any order.
  std::span<const std::uint64_t> disabled_links = {};
  /// Per-AS tie-break salt (dense-indexed). Empty span means all zeros,
  /// i.e. prefer the lowest neighbor ASN among equally good routes.
  std::span<const std::uint64_t> tie_break_salts = {};
};

/// An AS's best route in the computed state.
struct RouteEntry {
  RouteClass cls = RouteClass::kNone;
  AsIndex next_hop = 0;  ///< meaningful unless cls is kSelf or kNone
  AsIndex origin = 0;    ///< dense index of the origin this route reaches
  /// AS-PATH length including prepending (an origin's own entry holds
  /// its prepend count).
  std::uint16_t length = 0;

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// The longest AS-PATH a RouteEntry can hold. ComputeRoutes rejects an
/// origin whose longest possible route (prepend + AsCount - 1) exceeds it.
inline constexpr std::size_t kMaxRouteLength = std::numeric_limits<std::uint16_t>::max();

class RoutingState;

/// Computes the stable routing state for a prefix announced by `origins`.
/// Throws std::invalid_argument on an unknown origin ASN, duplicate
/// origins, a prepend below 1 or one whose longest route would exceed
/// kMaxRouteLength, or a negative propagation radius.
[[nodiscard]] RoutingState ComputeRoutes(const AsGraph& graph,
                                         std::span<const OriginSpec> origins,
                                         const ComputationOptions& options = {});

/// The state ComputeRoutes would return for `base`'s inputs with AS `as`'s
/// tie-break salt replaced by `salt`: `base` with `as`'s next hop re-chosen
/// among the exporters that offered it the same class and length. Chains:
/// shifting several ASes in turn equals one solve with all their salts.
/// Throws std::invalid_argument if `base` has several origins or a
/// propagation radius (a re-chosen exporter could then change the origin
/// or the reach of the routes behind it), or if `as` is out of range.
[[nodiscard]] RoutingState ShiftSalt(RoutingState base, AsIndex as, std::uint64_t salt);

/// The state ComputeRoutes would return for `base`'s inputs with `link` (a
/// LinkKey) failed as well; `salts` must be the tie-break salts `base` was
/// computed with. Re-solves only the ASes whose forwarding path crosses the
/// link and the provider routes their new routes improve. A link that is
/// already failed, is not in the graph, or carries no forwarding path
/// changes only the failed-link list. Chains: failing links in turn equals
/// one solve with all of them. Throws std::invalid_argument if `base` has
/// several origins or a propagation radius, or if `salts` is neither empty
/// nor one per AS.
[[nodiscard]] RoutingState FailLink(RoutingState base, std::uint64_t link,
                                    std::span<const std::uint64_t> salts);

/// The stable routing state toward one destination prefix.
class RoutingState {
 public:
  [[nodiscard]] const AsGraph& graph() const noexcept { return *graph_; }

  [[nodiscard]] bool HasRoute(AsIndex as) const { return routes_.at(as).cls != RouteClass::kNone; }

  /// Best-route entry of an AS (cls == kNone when unrouted).
  [[nodiscard]] const RouteEntry& RouteOf(AsIndex as) const { return routes_.at(as); }

  /// Number of ASes holding a route.
  [[nodiscard]] std::size_t RoutedCount() const noexcept;

  /// The AS-PATH this AS would advertise: [self, ..., origin×prepend].
  /// Empty path if the AS has no route.
  [[nodiscard]] AsPath PathOf(AsIndex as) const;

  /// Data-plane AS-level path from `src` to the origin its route reaches,
  /// inclusive of both ends, without prepend repetition. Empty if unrouted.
  [[nodiscard]] std::vector<AsIndex> ForwardingPath(AsIndex src) const;

  /// All ASes whose forwarding path terminates at `origin` — e.g. the
  /// capture set of a hijacking origin.
  [[nodiscard]] std::vector<AsIndex> AsesRoutedTo(AsIndex origin) const;

  /// The links this state was computed with as failed: sorted, distinct
  /// LinkKeys.
  [[nodiscard]] std::span<const std::uint64_t> FailedLinks() const noexcept {
    return disabled_links_;
  }

  /// How many ASes' forwarding paths cross `link` (the subtree FailLink
  /// re-solves), counted up to `cap`: a larger subtree returns `cap`.
  [[nodiscard]] std::size_t CountCrossing(std::uint64_t link, std::size_t cap) const;

  /// The next hop `as` would choose with its tie-break salt replaced by
  /// `salt` — the one entry ShiftSalt changes. Throws like ShiftSalt.
  [[nodiscard]] AsIndex NextHopWithSalt(AsIndex as, std::uint64_t salt) const;

 private:
  friend RoutingState ComputeRoutes(const AsGraph&, std::span<const OriginSpec>,
                                    const ComputationOptions&);
  friend RoutingState ShiftSalt(RoutingState, AsIndex, std::uint64_t);
  friend RoutingState FailLink(RoutingState, std::uint64_t, std::span<const std::uint64_t>);

  RoutingState(const AsGraph& graph, std::vector<RouteEntry> routes)
      : graph_(&graph), routes_(std::move(routes)) {}

  const AsGraph* graph_;
  std::vector<RouteEntry> routes_;
  /// What ShiftSalt and FailLink need of the inputs: the failed links
  /// (sorted, distinct LinkKeys) and whether the state has one origin and
  /// no radius.
  std::vector<std::uint64_t> disabled_links_;
  bool salt_shiftable_ = false;
};

/// Convenience overload: single origin, default options.
[[nodiscard]] RoutingState ComputeRoutes(const AsGraph& graph, AsNumber origin,
                                         const ComputationOptions& options = {});

}  // namespace quicksand::bgp
