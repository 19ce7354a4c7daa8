#pragma once

// The two record-plane feeds the golden-digest tests pin: the paper month
// (paper topology, collector and dynamics seeds, t=0 table plus 968,157
// updates) and a faulted week of the same world (FaultPlan::Scaled(0.05)
// perturbation, written as MRT text, corrupted, then parsed leniently).
// Each feed's t=0 table and updates are interned into one table, as the
// session-reset filter requires; `tor_prefixes` are the relay prefixes of
// the paper consensus, the relay monitor's watch list.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/topology_gen.hpp"
#include "fault/injector.hpp"
#include "netbase/sim_time.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/prefix_map.hpp"

namespace quicksand::test {

struct PaperFeed {
  std::shared_ptr<bgp::feed::AsPathTable> table =
      std::make_shared<bgp::feed::AsPathTable>();
  std::vector<bgp::feed::UpdateRec> rib;
  std::vector<bgp::feed::UpdateRec> updates;
  std::unordered_set<netbase::Prefix> tor_prefixes;
};

enum class PaperFeedKind { kMonth, kFaultedWeek };

inline PaperFeed MakePaperFeed(PaperFeedKind kind) {
  bgp::TopologyParams tp;
  tp.seed = 20140501;
  const bgp::Topology topology = bgp::GenerateTopology(tp);
  bgp::CollectorParams cp;
  cp.seed = 20140502;
  const bgp::CollectorSet collectors = bgp::CollectorSet::Create(topology, cp);
  tor::ConsensusGenParams gp;
  gp.seed = 20140503;
  const tor::GeneratedConsensus consensus = tor::GenerateConsensus(topology, gp);
  const tor::TorPrefixMap prefix_map =
      tor::TorPrefixMap::Build(consensus.consensus, topology.prefix_origins);

  PaperFeed feed;
  feed.tor_prefixes = prefix_map.TorPrefixes(consensus.consensus);
  bgp::DynamicsParams dp;
  dp.seed = 20140502;
  dp.threads = 4;
  if (kind == PaperFeedKind::kMonth) {
    const bgp::GeneratedDynamics month = bgp::GenerateDynamics(topology, collectors, dp);
    feed.rib = bgp::feed::InternRecords(*feed.table, month.initial_rib);
    feed.updates = bgp::feed::InternRecords(*feed.table, month.updates);
    return feed;
  }
  dp.window = 7 * netbase::duration::kDay;
  const bgp::GeneratedDynamics week = bgp::GenerateDynamics(topology, collectors, dp);
  const fault::FaultInjector injector(fault::FaultPlan::Scaled(0.05, 20140601, dp.window));
  const fault::FaultedStream perturbed =
      injector.PerturbStream(week.initial_rib, week.updates);
  const std::string rib_text = bgp::mrt::ToText(week.initial_rib);
  const fault::FaultedText rotted = injector.CorruptText(bgp::mrt::ToText(perturbed.updates));
  bgp::mrt::ParseStreamOptions lenient;
  lenient.lenient = true;
  bgp::feed::UpdateStream parsed = bgp::mrt::ParseStream(feed.table, rotted.text, lenient);
  feed.updates = bgp::feed::Drain(parsed);
  bgp::feed::UpdateStream t0 = bgp::mrt::ParseStream(feed.table, rib_text);
  feed.rib = bgp::feed::Drain(t0);
  return feed;
}

/// FNV-1a over little-endian 64-bit fields.
class Fnv64 {
 public:
  Fnv64& Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Fnv64& Add(const netbase::Prefix& prefix) {
    return Add(prefix.network().value()).Add(static_cast<std::uint64_t>(prefix.length()));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace quicksand::test
