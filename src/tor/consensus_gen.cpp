#include "tor/consensus_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::tor {

using bgp::AsNumber;
using netbase::Ipv4Address;
using netbase::Prefix;
using netbase::Rng;
using netbase::ZipfSampler;

namespace {

/// Zipf exponent of the relay count across hosting ASes; higher is more
/// concentrated. 0.7 reproduces "5 ASes host ~20%" at our topology scale.
constexpr double kHostingZipfExponent = 0.7;
/// Fraction of relays placed in hosting ASes; the rest are volunteers in
/// eyeball/content/transit networks.
constexpr double kHostingFraction = 0.72;
/// Fraction of non-hosting ASes that have any relay volunteers at all
/// (most access networks host none).
constexpr double kVolunteerAsFraction = 0.35;
/// Pareto bandwidth-weight distribution (KB/s). The paper gives none; the
/// tail is uncapped, so one draw can hold much of all bandwidth (a known
/// gap, DESIGN.md section 1).
constexpr double kBandwidthParetoXmin = 120;
constexpr double kBandwidthParetoAlpha = 1.15;
/// Multiplier applied to guard bandwidth (guards must be fast).
constexpr double kGuardBandwidthBoost = 1.6;

}  // namespace

GeneratedConsensus GenerateConsensus(const bgp::Topology& topology,
                                     const ConsensusGenParams& params) {
  const obs::ScopedSpan span("tor.generate_consensus");
  if (params.guard_only + params.exit_only + params.guard_exit > params.total_relays) {
    throw std::invalid_argument("GenerateConsensus: flag counts exceed total relays");
  }
  if (topology.prefix_origins.empty()) {
    throw std::invalid_argument("GenerateConsensus: topology has no prefixes");
  }
  Rng rng(params.seed);

  // Host-AS pools. Hosting ASes get Zipf ranks in list order (the list is
  // already in generation order, which is arbitrary — i.e. rank is not
  // correlated with topology position).
  const std::vector<AsNumber>& hostings = topology.hostings;
  std::vector<AsNumber> volunteer_pool;
  volunteer_pool.insert(volunteer_pool.end(), topology.eyeballs.begin(),
                        topology.eyeballs.end());
  volunteer_pool.insert(volunteer_pool.end(), topology.contents.begin(),
                        topology.contents.end());
  volunteer_pool.insert(volunteer_pool.end(), topology.transits.begin(),
                        topology.transits.end());
  // Only a fraction of non-hosting networks have relay volunteers at all.
  rng.Shuffle(volunteer_pool);
  volunteer_pool.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(volunteer_pool.size()) *
                                  kVolunteerAsFraction)));
  if (hostings.empty() && volunteer_pool.empty()) {
    throw std::invalid_argument("GenerateConsensus: topology has no candidate host ASes");
  }

  ZipfSampler hosting_zipf(std::max<std::size_t>(hostings.size(), 1), kHostingZipfExponent);

  auto pick_host_as = [&]() -> AsNumber {
    if (!hostings.empty() &&
        (volunteer_pool.empty() || rng.Bernoulli(kHostingFraction))) {
      return hostings[hosting_zipf.Sample(rng)];
    }
    return volunteer_pool[rng.UniformInt(0, volunteer_pool.size() - 1)];
  };

  std::unordered_set<Ipv4Address> used_addresses;
  auto place_relay = [&](AsNumber host) -> Ipv4Address {
    const auto prefixes = topology.PrefixesOf(host);
    if (prefixes.empty()) return Ipv4Address{};  // host has no address space
    // Within an AS, relays crowd into a favourite block (the cheap VM
    // range) with a Zipf skew — most announced prefixes end up hosting a
    // single relay while one block accumulates dozens (the paper's /15
    // with 33 guard/exit relays).
    const ZipfSampler within_as(prefixes.size(), 0.9);
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Prefix& prefix = prefixes[within_as.Sample(rng)];
      // Skip network and broadcast addresses of the block.
      const std::uint64_t count = prefix.AddressCount();
      if (count <= 2) continue;
      const Ipv4Address address(
          prefix.network().value() +
          static_cast<std::uint32_t>(rng.UniformInt(1, count - 2)));
      if (used_addresses.insert(address).second) return address;
    }
    return Ipv4Address{};
  };

  GeneratedConsensus out;
  std::vector<Relay> relays;
  relays.reserve(params.total_relays);
  out.host_as.reserve(params.total_relays);

  for (std::size_t i = 0; i < params.total_relays; ++i) {
    AsNumber host = 0;
    Ipv4Address address;
    for (int attempt = 0; attempt < 16 && address == Ipv4Address{}; ++attempt) {
      host = pick_host_as();
      address = place_relay(host);
    }
    if (address == Ipv4Address{}) {
      throw std::runtime_error("GenerateConsensus: address space exhausted");
    }
    Relay relay;
    relay.nickname = "relay" + std::to_string(i);
    relay.address = address;
    relay.or_port = static_cast<std::uint16_t>(9001 + rng.UniformInt(0, 99));
    relay.bandwidth_kbs = static_cast<std::uint32_t>(
        rng.Pareto(kBandwidthParetoXmin, kBandwidthParetoAlpha));
    relay.flags = RelayFlag::kRunning | RelayFlag::kValid;
    if (rng.Bernoulli(0.9)) relay.flags |= RelayFlag::kFast;
    if (rng.Bernoulli(0.7)) relay.flags |= RelayFlag::kStable;
    relays.push_back(std::move(relay));
    out.host_as.push_back(host);
  }

  // Assign Guard/Exit flags to a random permutation so flag counts are
  // exact and independent of placement order.
  std::vector<std::size_t> order(relays.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < params.guard_exit; ++i) {
    relays[order[cursor++]].flags |= RelayFlag::kGuard | RelayFlag::kExit;
  }
  for (std::size_t i = 0; i < params.guard_only; ++i) {
    relays[order[cursor++]].flags |= RelayFlag::kGuard;
  }
  for (std::size_t i = 0; i < params.exit_only; ++i) {
    relays[order[cursor++]].flags |= RelayFlag::kExit;
  }

  // Guards carry more bandwidth (directory authorities require it).
  for (Relay& relay : relays) {
    if (relay.IsGuard()) {
      relay.bandwidth_kbs = static_cast<std::uint32_t>(
          static_cast<double>(relay.bandwidth_kbs) * kGuardBandwidthBoost);
    }
  }

  out.consensus = Consensus(netbase::SimTime{0}, std::move(relays));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("tor.consensus.generated").Increment();
  registry.GetGauge("tor.consensus.relay_count")
      .Set(static_cast<std::int64_t>(out.consensus.size()));
  registry.GetGauge("tor.consensus.guard_count")
      .Set(static_cast<std::int64_t>(out.consensus.Guards().size()));
  registry.GetGauge("tor.consensus.exit_count")
      .Set(static_cast<std::int64_t>(out.consensus.Exits().size()));
  return out;
}

}  // namespace quicksand::tor
