#include "bgp/topology_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::bgp {

using netbase::Ipv4Address;
using netbase::Prefix;
using netbase::Rng;

std::string_view ToString(AsRole role) noexcept {
  switch (role) {
    case AsRole::kTier1: return "tier1";
    case AsRole::kTransit: return "transit";
    case AsRole::kEyeball: return "eyeball";
    case AsRole::kHosting: return "hosting";
    case AsRole::kContent: return "content";
  }
  return "?";
}

AsRole Topology::RoleOf(AsNumber asn) const {
  auto it = roles.find(asn);
  if (it == roles.end()) {
    throw std::invalid_argument("unknown AS" + std::to_string(asn));
  }
  return it->second;
}

std::vector<Prefix> Topology::PrefixesOf(AsNumber asn) const {
  std::vector<Prefix> out;
  auto it = prefixes_of_as.find(asn);
  if (it == prefixes_of_as.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(prefix_origins[idx].prefix);
  return out;
}

namespace {

/// Mean number of providers per multi-homed AS (min 1).
constexpr double kMeanProviders = 1.9;
/// Probability that two transit ASes of similar degree peer.
constexpr double kTransitPeeringProb = 0.12;
/// Probability a hosting AS peers with a transit AS (hosting networks
/// peer aggressively at IXPs).
constexpr double kHostingPeeringProb = 0.08;
/// Mean prefixes originated per stub AS (transit ASes originate more).
constexpr double kMeanStubPrefixes = 1.6;

/// Picks `count` distinct providers from `pool`, weighted by current degree
/// (preferential attachment), excluding `self`.
std::vector<AsNumber> PickProviders(const AsGraph& graph, const std::vector<AsNumber>& pool,
                                    std::size_t count, AsNumber self, Rng& rng) {
  std::vector<AsNumber> chosen;
  std::vector<double> weights;
  std::vector<AsNumber> candidates;
  for (AsNumber asn : pool) {
    if (asn == self) continue;
    candidates.push_back(asn);
    const auto idx = graph.IndexOf(asn);
    weights.push_back(1.0 + static_cast<double>(idx ? graph.Degree(*idx) : 0));
  }
  count = std::min(count, candidates.size());
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t pick = rng.WeightedIndex(weights);
    chosen.push_back(candidates[pick]);
    weights[pick] = 0;  // without replacement
    bool any_left = false;
    for (double w : weights) any_left |= (w > 0);
    if (!any_left) break;
  }
  return chosen;
}

/// Number of providers for a multi-homed AS: 1 + Poisson-ish tail.
std::size_t ProviderCountDraw(Rng& rng) {
  std::size_t count = 1;
  double extra = kMeanProviders - 1.0;
  while (extra > 0 && rng.Bernoulli(std::min(extra, 0.85))) {
    ++count;
    extra -= 1.0;
    if (count >= 4) break;
  }
  return count;
}

/// Allocates prefixes for one AS out of a per-role /8 pool, advancing the
/// pool cursor. Lengths are drawn from a realistic mix.
std::vector<Prefix> AllocatePrefixes(std::uint32_t& cursor, std::size_t count, Rng& rng) {
  std::vector<Prefix> out;
  for (std::size_t i = 0; i < count; ++i) {
    // Mix of common announcement sizes; /24 and /20-22 dominate real tables.
    static constexpr int kLengths[] = {16, 19, 20, 21, 22, 23, 24, 24, 24, 22};
    const int length = kLengths[rng.UniformInt(0, std::size(kLengths) - 1)];
    const std::uint32_t block = 1u << (32 - length);
    // Align the cursor up to the block size.
    cursor = (cursor + block - 1) & ~(block - 1);
    out.emplace_back(Ipv4Address(cursor), length);
    cursor += block;
  }
  return out;
}

}  // namespace

Topology GenerateTopology(const TopologyParams& params) {
  const obs::ScopedSpan span("bgp.generate_topology");
  if (params.tier1_count == 0) {
    throw std::invalid_argument("GenerateTopology: need at least one tier-1 AS");
  }
  if (params.eyeball_count + params.hosting_count + params.content_count == 0) {
    throw std::invalid_argument("GenerateTopology: need at least one stub AS");
  }
  Rng rng(params.seed);
  Topology topo;
  AsNumber next_asn = 100;

  auto register_as = [&](AsRole role) {
    const AsNumber asn = next_asn;
    // Leave irregular gaps so ASNs look like real allocations.
    next_asn += 1 + static_cast<AsNumber>(rng.UniformInt(0, 37));
    topo.graph.AddAs(asn);
    topo.roles.emplace(asn, role);
    switch (role) {
      case AsRole::kTier1: topo.tier1.push_back(asn); break;
      case AsRole::kTransit: topo.transits.push_back(asn); break;
      case AsRole::kEyeball: topo.eyeballs.push_back(asn); break;
      case AsRole::kHosting: topo.hostings.push_back(asn); break;
      case AsRole::kContent: topo.contents.push_back(asn); break;
    }
    return asn;
  };

  // --- Tier-1 clique.
  for (std::size_t i = 0; i < params.tier1_count; ++i) register_as(AsRole::kTier1);
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      topo.graph.AddPeerLink(topo.tier1[i], topo.tier1[j]);
    }
  }

  // --- Transit layer: providers from tier-1 and earlier transits.
  for (std::size_t i = 0; i < params.transit_count; ++i) {
    const AsNumber asn = register_as(AsRole::kTransit);
    std::vector<AsNumber> provider_pool = topo.tier1;
    // Earlier transits can also serve as providers (builds depth).
    for (std::size_t j = 0; j + 1 < topo.transits.size(); ++j) {
      provider_pool.push_back(topo.transits[j]);
    }
    const auto providers =
        PickProviders(topo.graph, provider_pool, ProviderCountDraw(rng), asn, rng);
    for (AsNumber p : providers) topo.graph.AddCustomerLink(p, asn);
  }
  // Transit-transit peering among similar-size ASes.
  for (std::size_t i = 0; i < topo.transits.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.transits.size(); ++j) {
      if (!rng.Bernoulli(kTransitPeeringProb)) continue;
      const AsNumber a = topo.transits[i];
      const AsNumber b = topo.transits[j];
      if (topo.graph.RelationshipBetween(a, b)) continue;  // already linked
      topo.graph.AddPeerLink(a, b);
    }
  }

  // --- Stubs. Eyeballs and content attach to transit; hosting ASes attach
  // to transit and sometimes peer directly (IXP-style).
  auto attach_stub = [&](AsRole role) {
    const AsNumber asn = register_as(role);
    const auto providers =
        PickProviders(topo.graph, topo.transits, ProviderCountDraw(rng), asn, rng);
    for (AsNumber p : providers) topo.graph.AddCustomerLink(p, asn);
    if (providers.empty() && !topo.tier1.empty()) {
      topo.graph.AddCustomerLink(topo.tier1[rng.UniformInt(0, topo.tier1.size() - 1)], asn);
    }
    return asn;
  };
  for (std::size_t i = 0; i < params.eyeball_count; ++i) attach_stub(AsRole::kEyeball);
  for (std::size_t i = 0; i < params.content_count; ++i) attach_stub(AsRole::kContent);
  for (std::size_t i = 0; i < params.hosting_count; ++i) {
    const AsNumber asn = attach_stub(AsRole::kHosting);
    for (AsNumber t : topo.transits) {
      if (!rng.Bernoulli(kHostingPeeringProb)) continue;
      if (topo.graph.RelationshipBetween(asn, t)) continue;
      topo.graph.AddPeerLink(asn, t);
    }
  }

  // --- Prefix origination. Separate /8 pools per broad role keep blocks
  // disjoint by construction.
  std::uint32_t core_cursor = Ipv4Address(10, 0, 0, 0).value();
  std::uint32_t eyeball_cursor = Ipv4Address(24, 0, 0, 0).value();
  std::uint32_t hosting_cursor = Ipv4Address(78, 0, 0, 0).value();
  std::uint32_t content_cursor = Ipv4Address(93, 0, 0, 0).value();

  auto originate = [&](AsNumber asn, std::uint32_t& cursor, std::size_t count) {
    for (const Prefix& p : AllocatePrefixes(cursor, count, rng)) {
      topo.prefixes_of_as[asn].push_back(topo.prefix_origins.size());
      topo.prefix_origins.push_back({p, asn});
    }
  };
  auto stub_prefix_count = [&] {
    std::size_t count = 1;
    double extra = kMeanStubPrefixes - 1.0;
    while (extra > 0 && rng.Bernoulli(std::min(extra, 0.75))) {
      ++count;
      extra -= 1.0;
      if (count >= 6) break;
    }
    return count;
  };

  for (AsNumber asn : topo.tier1) originate(asn, core_cursor, 4 + rng.UniformInt(0, 8));
  for (AsNumber asn : topo.transits) originate(asn, core_cursor, 2 + rng.UniformInt(0, 4));
  for (AsNumber asn : topo.eyeballs) originate(asn, eyeball_cursor, stub_prefix_count());
  for (AsNumber asn : topo.contents) originate(asn, content_cursor, stub_prefix_count());
  // Hosting ASes announce many blocks (datacenter address space is carved
  // into lots of separately announced allocations).
  for (AsNumber asn : topo.hostings) {
    originate(asn, hosting_cursor, 3 + stub_prefix_count() + rng.UniformInt(0, 4));
  }

  // Idiosyncratic per-AS routing preferences.
  topo.policy_salts.resize(topo.graph.AsCount());
  for (AsIndex i = 0; i < topo.policy_salts.size(); ++i) {
    topo.policy_salts[i] = rng() | 1;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("bgp.topology.generated").Increment();
  registry.GetGauge("bgp.topology.as_count")
      .Set(static_cast<std::int64_t>(topo.graph.AsCount()));
  registry.GetGauge("bgp.topology.link_count")
      .Set(static_cast<std::int64_t>(topo.graph.LinkCount()));
  registry.GetGauge("bgp.topology.prefix_count")
      .Set(static_cast<std::int64_t>(topo.prefix_origins.size()));
  return topo;
}

}  // namespace quicksand::bgp
