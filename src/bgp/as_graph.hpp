#pragma once

// AS-level topology with business relationships.
//
// Edges are either customer-provider (directed economics, bidirectional
// connectivity) or peer-peer. The graph hands out dense indices and dense
// link ids so the routing algorithms can use flat arrays.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/path.hpp"

namespace quicksand::bgp {

/// The role of a neighbor relative to the local AS.
enum class Relationship : std::uint8_t {
  kCustomer,  ///< neighbor pays us (we are its provider)
  kPeer,      ///< settlement-free peer
  kProvider,  ///< we pay the neighbor (it is our provider)
};

/// Human-readable name of a relationship.
[[nodiscard]] std::string_view ToString(Relationship rel) noexcept;

/// Dense AS index inside an AsGraph.
using AsIndex = std::uint32_t;

/// One adjacency entry: the neighbor and its role relative to the local AS.
struct Neighbor {
  AsIndex index;
  AsNumber asn;
  Relationship rel;
};

/// One entry of the relationship-split adjacency: the neighbor's dense
/// index and the dense id of the link to it (0..LinkCount()-1, in the
/// order the links were added).
struct Edge {
  AsIndex to;
  std::uint32_t link;
};

/// Canonical undirected link key: (min index, max index) packed in 64 bits.
[[nodiscard]] constexpr std::uint64_t LinkKey(AsIndex a, AsIndex b) noexcept {
  const AsIndex lo = a < b ? a : b;
  const AsIndex hi = a < b ? b : a;
  return (std::uint64_t{lo} << 32) | hi;
}

/// AS-level topology with customer/provider/peer relationships.
///
/// Invariants: each AS appears once; at most one link between two ASes;
/// no self-links. Violations throw std::invalid_argument.
class AsGraph {
 public:
  /// Registers an AS and returns its dense index. Registering the same ASN
  /// twice returns the existing index.
  AsIndex AddAs(AsNumber asn);

  /// Adds a customer-provider link (provider sells transit to customer).
  /// Both ASes must already exist. Throws on duplicate or self link.
  void AddCustomerLink(AsNumber provider, AsNumber customer);

  /// Adds a settlement-free peering link. Throws on duplicate or self link.
  void AddPeerLink(AsNumber a, AsNumber b);

  [[nodiscard]] std::size_t AsCount() const noexcept { return neighbors_.size(); }
  [[nodiscard]] std::size_t LinkCount() const noexcept { return link_ids_.size(); }

  [[nodiscard]] bool HasAs(AsNumber asn) const noexcept {
    return index_of_.contains(asn);
  }

  /// Dense index of an ASN, or nullopt if unknown.
  [[nodiscard]] std::optional<AsIndex> IndexOf(AsNumber asn) const noexcept;

  /// Dense index of an ASN; throws std::invalid_argument if unknown.
  [[nodiscard]] AsIndex MustIndexOf(AsNumber asn) const;

  /// ASN of a dense index. Index must be < AsCount().
  [[nodiscard]] AsNumber AsnOf(AsIndex index) const { return asns_.at(index); }

  /// Adjacency of an AS by dense index, in the order links were added.
  [[nodiscard]] std::span<const Neighbor> NeighborsOf(AsIndex index) const {
    return neighbors_.at(index);
  }

  /// The same adjacency split by relationship (each list in the order its
  /// links were added): the AS's customers, peers and providers.
  [[nodiscard]] std::span<const Edge> CustomersOf(AsIndex index) const {
    return customers_.at(index);
  }
  [[nodiscard]] std::span<const Edge> PeersOf(AsIndex index) const {
    return peers_.at(index);
  }
  [[nodiscard]] std::span<const Edge> ProvidersOf(AsIndex index) const {
    return providers_.at(index);
  }

  /// Dense id of the link with this LinkKey, or nullopt if there is none.
  [[nodiscard]] std::optional<std::uint32_t> LinkIdOf(std::uint64_t link_key) const noexcept;

  /// Relationship of `b` as seen from `a`, or nullopt if not adjacent.
  [[nodiscard]] std::optional<Relationship> RelationshipBetween(AsNumber a,
                                                                AsNumber b) const;

  /// All registered ASNs in registration order.
  [[nodiscard]] const std::vector<AsNumber>& AllAses() const noexcept { return asns_; }

  /// Number of customers / peers / providers of an AS.
  [[nodiscard]] std::size_t CustomerCount(AsIndex index) const {
    return customers_.at(index).size();
  }
  [[nodiscard]] std::size_t PeerCount(AsIndex index) const { return peers_.at(index).size(); }
  [[nodiscard]] std::size_t ProviderCount(AsIndex index) const {
    return providers_.at(index).size();
  }

  /// Total degree of an AS.
  [[nodiscard]] std::size_t Degree(AsIndex index) const {
    return neighbors_.at(index).size();
  }

 private:
  void AddLink(AsNumber a, AsNumber b, Relationship rel_of_b_seen_from_a);
  std::vector<Edge>& SplitListOf(AsIndex index, Relationship rel);

  std::unordered_map<AsNumber, AsIndex> index_of_;
  std::vector<AsNumber> asns_;
  std::vector<std::vector<Neighbor>> neighbors_;
  std::vector<std::vector<Edge>> customers_;
  std::vector<std::vector<Edge>> peers_;
  std::vector<std::vector<Edge>> providers_;
  std::unordered_map<std::uint64_t, std::uint32_t> link_ids_;  // LinkKey -> link id
};

}  // namespace quicksand::bgp
