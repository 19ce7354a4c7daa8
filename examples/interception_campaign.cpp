// Interception campaign (Section 3.2 narrative): a malicious transit AS
// wants to deanonymize the client behind an observed connection. It
// (1) hijacks the guard's prefix to enumerate the anonymity set, then
// (2) upgrades to an interception to keep connections alive, and
// (3) runs the byte-count correlation attack on the captured traffic.

#include <iostream>

#include "bgp/hijack.hpp"
#include "bgp/topology_gen.hpp"
#include "core/attack_analysis.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/prefix_map.hpp"
#include "util/table.hpp"

int main() {
  using namespace quicksand;

  bgp::TopologyParams topology_params;
  topology_params.seed = 11;
  const bgp::Topology topo = bgp::GenerateTopology(topology_params);
  tor::ConsensusGenParams consensus_params;
  consensus_params.seed = 12;
  const tor::GeneratedConsensus generated =
      tor::GenerateConsensus(topo, consensus_params);
  const tor::TorPrefixMap prefix_map =
      tor::TorPrefixMap::Build(generated.consensus, topo.prefix_origins);

  // Pick the busiest guard prefix — the most attractive target.
  const auto per_prefix = prefix_map.GuardExitRelaysPerPrefix(generated.consensus);
  netbase::Prefix target_prefix;
  bgp::AsNumber victim_as = 0;
  std::size_t best = 0;
  for (const tor::RelayPrefixEntry& entry : prefix_map.entries()) {
    if (!generated.consensus.relays()[entry.relay_index].IsGuard()) continue;
    const std::size_t count = per_prefix.at(entry.prefix);
    if (count > best) {
      best = count;
      target_prefix = entry.prefix;
      victim_as = entry.origin;
    }
  }
  const bgp::AsNumber attacker =
      topo.transits[3] == victim_as ? topo.transits[4] : topo.transits[3];

  std::cout << "Target: " << target_prefix << " (AS" << victim_as << ", " << best
            << " guard/exit relays)\nAttacker: transit AS" << attacker << "\n\n";

  // Step 1: plain hijack -> anonymity set.
  bgp::AttackSpec hijack;
  hijack.attacker = attacker;
  hijack.victim = victim_as;
  hijack.victim_prefix = target_prefix;
  hijack.more_specific = true;
  const auto hijack_result = core::AnalyzeHijack(topo.graph, hijack, topo.eyeballs);
  std::cout << "Step 1 — " << hijack.Label() << ":\n  captures "
            << util::FormatPercent(hijack_result.outcome.capture_fraction, 1)
            << " of ASes; observes " << hijack_result.clients_observed << "/"
            << hijack_result.clients_total
            << " candidate client ASes (the anonymity set)\n  connections survive: "
            << (hijack_result.connection_survives ? "yes" : "no — blackholed")
            << "\n\n";

  // Step 2: interception (tunnel-capable attacker) keeps traffic flowing.
  bgp::AttackSpec interception = hijack;
  interception.keep_alive = true;
  interception.forwarding = bgp::ForwardingMode::kTunnel;
  const auto interception_result =
      core::AnalyzeHijack(topo.graph, interception, topo.eyeballs);
  std::cout << "Step 2 — " << interception.Label() << ":\n  connections survive: "
            << (interception_result.connection_survives ? "yes" : "no");
  if (interception_result.connection_survives) {
    std::cout << " (delivery path: ";
    for (std::size_t i = 0; i < interception_result.outcome.delivery_path.size(); ++i) {
      if (i > 0) std::cout << " -> ";
      std::cout << "AS"
                << topo.graph.AsnOf(interception_result.outcome.delivery_path[i]);
    }
    std::cout << ")";
  }
  std::cout << "\n\n";

  // Step 3: correlate the intercepted guard-side traffic with the target
  // flow observed at the destination side.
  core::DeanonExperimentParams deanon;
  deanon.candidate_clients = 8;
  deanon.base_flow.file_bytes = 12 << 20;
  deanon.correlation.bin_s = 0.5;
  deanon.correlation.duration_s = 16.0;
  deanon.seed = 13;
  // The interceptor sees only the ACKs at the entry, the data at the exit.
  const core::DeanonResult verdict = core::RunCorrelationDeanonymization(deanon).At(
      core::SegmentView::kAckedBytes, core::SegmentView::kDataBytes);

  util::Table table({"candidate client", "correlation with target flow"});
  for (std::size_t i = 0; i < verdict.correlations.size(); ++i) {
    std::string label = "client " + std::to_string(i);
    if (i == verdict.target) label += " (true target)";
    if (i == verdict.matched) label += " <= attacker's pick";
    table.AddRow({label, util::FormatDouble(verdict.correlations[i], 4)});
  }
  std::cout << "Step 3 — asymmetric correlation over the captured traffic:\n"
            << table.Render() << "\nDeanonymization "
            << (verdict.success ? "SUCCEEDED" : "failed") << ".\n";
  return verdict.success ? 0 : 1;
}
