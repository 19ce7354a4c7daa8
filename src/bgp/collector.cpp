#include "bgp/collector.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace quicksand::bgp {

namespace {

/// Range of partial_visibility for non-full feeds.
constexpr double kPartialVisibilityMin = 0.10;
constexpr double kPartialVisibilityMax = 0.40;

}  // namespace

CollectorSet CollectorSet::Create(const Topology& topology, const CollectorParams& params) {
  if (params.collector_count == 0 || params.sessions_per_collector == 0) {
    throw std::invalid_argument("CollectorSet: need at least one collector and session");
  }
  if (topology.transits.empty()) {
    throw std::invalid_argument("CollectorSet: topology has no transit ASes");
  }
  netbase::Rng rng(params.seed);

  // Candidate peers: all transit + tier-1 ASes, weighted by degree.
  std::vector<AsNumber> candidates = topology.transits;
  candidates.insert(candidates.end(), topology.tier1.begin(), topology.tier1.end());
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (AsNumber asn : candidates) {
    const auto idx = topology.graph.IndexOf(asn);
    weights.push_back(1.0 + static_cast<double>(idx ? topology.graph.Degree(*idx) : 0));
  }

  CollectorSet set;
  std::unordered_set<AsNumber> used;  // one session per (collector, peer)
  for (std::size_t c = 0; c < params.collector_count; ++c) {
    const std::string name = "rrc" + std::string(c < 10 ? "0" : "") + std::to_string(c);
    used.clear();
    for (std::size_t s = 0; s < params.sessions_per_collector; ++s) {
      // Rejection-sample an unused peer; fall back to linear scan if the
      // candidate pool is nearly exhausted.
      AsNumber peer = 0;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const AsNumber pick = candidates[rng.WeightedIndex(weights)];
        if (!used.contains(pick)) {
          peer = pick;
          break;
        }
      }
      if (peer == 0) {
        for (AsNumber asn : candidates) {
          if (!used.contains(asn)) {
            peer = asn;
            break;
          }
        }
      }
      if (peer == 0) break;  // pool exhausted for this collector
      used.insert(peer);
      const bool full = rng.Bernoulli(params.full_feed_prob);
      set.sessions_.push_back(
          PeerSession{static_cast<SessionId>(set.sessions_.size()), name, peer, full,
                      full ? 1.0
                           : rng.UniformDouble(kPartialVisibilityMin, kPartialVisibilityMax)});
    }
  }
  obs::MetricsRegistry::Global()
      .GetGauge("bgp.collector.session_count")
      .Set(static_cast<std::int64_t>(set.sessions_.size()));
  return set;
}

std::optional<AsPath> CollectorSet::Observe(const PeerSession& session, const AsGraph& graph,
                                            const RoutingState& state) {
  const auto peer_index = graph.IndexOf(session.peer_as);
  if (!peer_index || !state.HasRoute(*peer_index)) return std::nullopt;
  const RouteEntry& route = state.RouteOf(*peer_index);
  // The collector is, economically, a peer of the peer AS: non-full feeds
  // always reveal what the Gao–Rexford peer export rule allows (customer
  // and self routes) plus a deterministic per-prefix sample of the rest
  // (regional/partial transit tables differ per peer policy).
  if (!session.full_feed && !MayExport(route.cls, Relationship::kPeer)) {
    // Deterministic hash of (session, route origin) -> [0, 1).
    std::uint64_t z = (std::uint64_t{session.id} << 32) ^
                      (graph.AsnOf(route.origin) * 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;
    if (unit >= session.partial_visibility) return std::nullopt;
  }
  return state.PathOf(*peer_index);
}

}  // namespace quicksand::bgp
