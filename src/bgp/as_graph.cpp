#include "bgp/as_graph.hpp"

#include <stdexcept>

namespace quicksand::bgp {

std::string_view ToString(Relationship rel) noexcept {
  switch (rel) {
    case Relationship::kCustomer: return "customer";
    case Relationship::kPeer: return "peer";
    case Relationship::kProvider: return "provider";
  }
  return "?";
}

AsIndex AsGraph::AddAs(AsNumber asn) {
  if (auto it = index_of_.find(asn); it != index_of_.end()) return it->second;
  const auto index = static_cast<AsIndex>(asns_.size());
  index_of_.emplace(asn, index);
  asns_.push_back(asn);
  neighbors_.emplace_back();
  customers_.emplace_back();
  peers_.emplace_back();
  providers_.emplace_back();
  return index;
}

std::optional<AsIndex> AsGraph::IndexOf(AsNumber asn) const noexcept {
  auto it = index_of_.find(asn);
  if (it == index_of_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> AsGraph::LinkIdOf(std::uint64_t link_key) const noexcept {
  auto it = link_ids_.find(link_key);
  if (it == link_ids_.end()) return std::nullopt;
  return it->second;
}

AsIndex AsGraph::MustIndexOf(AsNumber asn) const {
  auto index = IndexOf(asn);
  if (!index) throw std::invalid_argument("unknown AS" + std::to_string(asn));
  return *index;
}

void AsGraph::AddLink(AsNumber a, AsNumber b, Relationship rel_of_b_seen_from_a) {
  if (a == b) throw std::invalid_argument("self link on AS" + std::to_string(a));
  const AsIndex ia = MustIndexOf(a);
  const AsIndex ib = MustIndexOf(b);
  const auto link = static_cast<std::uint32_t>(link_ids_.size());
  if (!link_ids_.emplace(LinkKey(ia, ib), link).second) {
    throw std::invalid_argument("duplicate link AS" + std::to_string(a) + " - AS" +
                                std::to_string(b));
  }
  const Relationship rel_of_a_seen_from_b =
      rel_of_b_seen_from_a == Relationship::kPeer
          ? Relationship::kPeer
          : (rel_of_b_seen_from_a == Relationship::kCustomer ? Relationship::kProvider
                                                             : Relationship::kCustomer);
  neighbors_[ia].push_back({ib, b, rel_of_b_seen_from_a});
  neighbors_[ib].push_back({ia, a, rel_of_a_seen_from_b});
  SplitListOf(ia, rel_of_b_seen_from_a).push_back({ib, link});
  SplitListOf(ib, rel_of_a_seen_from_b).push_back({ia, link});
}

std::vector<Edge>& AsGraph::SplitListOf(AsIndex index, Relationship rel) {
  switch (rel) {
    case Relationship::kCustomer: return customers_[index];
    case Relationship::kPeer: return peers_[index];
    case Relationship::kProvider: break;
  }
  return providers_[index];
}

void AsGraph::AddCustomerLink(AsNumber provider, AsNumber customer) {
  // Seen from the provider, the neighbor is a customer.
  AddLink(provider, customer, Relationship::kCustomer);
}

void AsGraph::AddPeerLink(AsNumber a, AsNumber b) {
  AddLink(a, b, Relationship::kPeer);
}

std::optional<Relationship> AsGraph::RelationshipBetween(AsNumber a, AsNumber b) const {
  const auto ia = IndexOf(a);
  const auto ib = IndexOf(b);
  if (!ia || !ib) return std::nullopt;
  for (const Neighbor& n : neighbors_[*ia]) {
    if (n.index == *ib) return n.rel;
  }
  return std::nullopt;
}

}  // namespace quicksand::bgp
