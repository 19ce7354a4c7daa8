#pragma once

// Route collectors in the RIPE RIS mold.
//
// A collector (rrc00, rrc01, ...) maintains eBGP sessions with peer ASes.
// Each session observes the peer's best route to every prefix — but only
// if the peer's export policy lets the route out: full-feed peers export
// everything, customer-feed peers export only customer and self routes
// (exactly the Gao–Rexford peer export rule). This reproduces the paper's
// observation that each Tor prefix was visible on only ~40% of sessions.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/as_graph.hpp"
#include "bgp/route_computation.hpp"
#include "bgp/topology_gen.hpp"
#include "bgp/update.hpp"
#include "netbase/rng.hpp"

namespace quicksand::bgp {

/// One collector-peer eBGP session.
struct PeerSession {
  SessionId id = 0;
  std::string collector;  ///< e.g. "rrc00"
  AsNumber peer_as = 0;
  bool full_feed = false;  ///< exports the full table, not just customer routes
  /// For non-full feeds: fraction of non-customer routes the peer's export
  /// policy additionally leaks (regional tables, partial transit feeds).
  /// Sampled deterministically per (session, prefix).
  double partial_visibility = 0;
};

/// Parameters for building a collector deployment.
struct CollectorParams {
  std::size_t collector_count = 4;           ///< the paper used rrc00/01/03/04
  std::size_t sessions_per_collector = 18;   ///< "more than 70 eBGP sessions"
  double full_feed_prob = 0.24;              ///< calibrated to ~40% visibility
  std::uint64_t seed = 7;
};

/// A set of collectors and their peer sessions over a fixed topology.
class CollectorSet {
 public:
  /// Builds a deployment: peers are drawn from transit ASes (weighted by
  /// degree, as RIS peers are typically well-connected networks) plus a
  /// few tier-1s. Throws std::invalid_argument if the topology has no
  /// transit ASes or a session count of zero is requested.
  [[nodiscard]] static CollectorSet Create(const Topology& topology,
                                           const CollectorParams& params);

  [[nodiscard]] std::span<const PeerSession> sessions() const noexcept {
    return sessions_;
  }

  [[nodiscard]] std::size_t SessionCount() const noexcept { return sessions_.size(); }

  /// Session lookup by id; throws std::out_of_range for unknown ids.
  [[nodiscard]] const PeerSession& SessionById(SessionId id) const {
    return sessions_.at(id);
  }

  /// The AS-PATH session `s` observes for the routing state of one prefix,
  /// or nullopt if the peer has no route or its export policy hides it.
  /// The path is as announced by the peer: [peer, ..., origin].
  [[nodiscard]] static std::optional<AsPath> Observe(const PeerSession& session,
                                                     const AsGraph& graph,
                                                     const RoutingState& state);

 private:
  std::vector<PeerSession> sessions_;
};

}  // namespace quicksand::bgp
