#pragma once

// Synthetic Internet-scale AS topology generation.
//
// Produces a tiered AS graph in the style the measurement literature uses:
// a clique of tier-1 transit providers, a preferential-attachment layer of
// regional transit ASes, and a large population of stub ASes (eyeball and
// hosting networks). Hosting ASes — the Hetzner/OVH analogues where Tor
// relays concentrate — are tagged so the Tor consensus generator and the
// churn model can find them. Every AS originates one or more prefixes
// carved out of disjoint /8 pools.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/as_graph.hpp"
#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"

namespace quicksand::bgp {

/// What kind of network an AS is (coarse role used by downstream models).
enum class AsRole : std::uint8_t {
  kTier1,    ///< default-free transit core
  kTransit,  ///< regional/national transit provider
  kEyeball,  ///< access/broadband stub (where Tor clients live)
  kHosting,  ///< datacenter/hosting stub (where Tor relays concentrate)
  kContent,  ///< content/enterprise stub (where destinations live)
};

[[nodiscard]] std::string_view ToString(AsRole role) noexcept;

/// Sizes and seed of the generator. Defaults give ~600 ASes / ~1900 links,
/// which keeps a month of routing dynamics tractable while preserving the
/// multi-hop path diversity the attacks depend on. Provider, peering and
/// prefix-count calibration is fixed: named constants in topology_gen.cpp.
struct TopologyParams {
  std::size_t tier1_count = 8;
  std::size_t transit_count = 90;
  std::size_t eyeball_count = 260;
  std::size_t hosting_count = 70;
  std::size_t content_count = 180;
  std::uint64_t seed = 42;
};

/// One originated prefix.
struct PrefixOrigin {
  netbase::Prefix prefix;
  AsNumber origin;
};

/// A generated topology plus the metadata downstream components need.
struct Topology {
  AsGraph graph;
  std::unordered_map<AsNumber, AsRole> roles;
  std::vector<AsNumber> tier1;
  std::vector<AsNumber> transits;
  std::vector<AsNumber> eyeballs;
  std::vector<AsNumber> hostings;
  std::vector<AsNumber> contents;
  /// Per-AS tie-break salts (dense-indexed): each AS gets idiosyncratic
  /// preferences among equally good routes, the source of real-world
  /// routing asymmetry. Pass to ComputationOptions::tie_break_salts.
  std::vector<std::uint64_t> policy_salts;
  /// Every originated prefix; disjoint across ASes.
  std::vector<PrefixOrigin> prefix_origins;
  /// Prefixes per AS (values index into prefix_origins).
  std::unordered_map<AsNumber, std::vector<std::size_t>> prefixes_of_as;

  /// Role lookup; throws std::invalid_argument for an unknown AS.
  [[nodiscard]] AsRole RoleOf(AsNumber asn) const;
  /// All prefixes originated by `asn` (may be empty).
  [[nodiscard]] std::vector<netbase::Prefix> PrefixesOf(AsNumber asn) const;
};

/// Generates a topology. Deterministic for a given parameter set.
/// Throws std::invalid_argument if tier1_count == 0 or all stub counts are 0.
[[nodiscard]] Topology GenerateTopology(const TopologyParams& params);

}  // namespace quicksand::bgp
