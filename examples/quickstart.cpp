// Quickstart: build a synthetic Internet, stand up a Tor network on it,
// connect a client, and ask the core question of the paper — which ASes
// can deanonymize this circuit today, and how does a month of BGP
// dynamics change the answer?

#include <iostream>
#include <vector>

#include "bgp/topology_gen.hpp"
#include "core/adversary.hpp"
#include "core/anonymity.hpp"
#include "core/exposure.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/path_selection.hpp"
#include "tor/prefix_map.hpp"
#include "util/table.hpp"

int main() {
  using namespace quicksand;

  // 1. A synthetic AS-level Internet (tiered, policy-routed).
  bgp::TopologyParams topology_params;
  topology_params.seed = 1;
  const bgp::Topology topo = bgp::GenerateTopology(topology_params);
  std::cout << "Internet: " << topo.graph.AsCount() << " ASes, "
            << topo.graph.LinkCount() << " links, " << topo.prefix_origins.size()
            << " announced prefixes\n";

  // 2. A Tor network hosted inside it (paper-calibrated consensus).
  tor::ConsensusGenParams consensus_params;
  consensus_params.seed = 2;
  const tor::GeneratedConsensus generated = tor::GenerateConsensus(topo, consensus_params);
  const tor::Consensus& consensus = generated.consensus;
  const tor::TorPrefixMap prefix_map =
      tor::TorPrefixMap::Build(consensus, topo.prefix_origins);
  std::cout << "Tor: " << consensus.size() << " relays ("
            << consensus.Guards().size() << " guards, " << consensus.Exits().size()
            << " exits) in " << prefix_map.TorPrefixes(consensus).size()
            << " BGP prefixes\n";

  // 3. A client in an eyeball AS builds a circuit to a destination.
  const bgp::AsNumber client_as = topo.eyeballs.front();
  const bgp::AsNumber dest_as = topo.contents.front();
  const tor::PathSelector selector(consensus);
  netbase::Rng rng(3);
  const std::vector<std::size_t> guards = selector.PickGuardSet(rng);
  const tor::Circuit circuit = selector.BuildCircuit(guards, rng);
  std::cout << "\nCircuit: " << tor::CircuitToString(circuit, consensus) << "\n";

  const bgp::AsNumber guard_as = prefix_map.OriginOfRelay(circuit.guard);
  const bgp::AsNumber exit_as = prefix_map.OriginOfRelay(circuit.exit);
  std::cout << "client AS" << client_as << " -> guard AS" << guard_as
            << " ... exit AS" << exit_as << " -> destination AS" << dest_as << "\n";

  // 4. Who can watch both ends?
  core::ExposureAnalyzer analyzer(topo.graph, topo.policy_salts);
  const core::SegmentExposure today =
      analyzer.InstantExposure(client_as, guard_as, exit_as, dest_as);
  const core::SegmentExposure month =
      analyzer.TemporalExposure(client_as, guard_as, exit_as, dest_as, 12, 4);

  util::Table table({"threat model", "ASes able to deanonymize"});
  table.AddRow({"today, conventional (same direction both ends)",
                std::to_string(
                    CompromisingAses(today, core::ObservationModel::kSymmetric).size())});
  table.AddRow({"today, asymmetric (any direction, Sec 3.3)",
                std::to_string(
                    CompromisingAses(today, core::ObservationModel::kAnyDirection).size())});
  table.AddRow({"a month of BGP dynamics (Sec 3.1)",
                std::to_string(
                    CompromisingAses(month, core::ObservationModel::kAnyDirection).size())});
  std::cout << "\n" << table.Render();

  // 5. The analytical bottom line.
  const auto x = static_cast<double>(
      analyzer.DistinctEntryAses(client_as, guard_as, 12, 4));
  std::cout << "\nWith x = " << x << " distinct ASes on the entry segment over a month"
            << " and f = 1% malicious ASes,\nP(compromise) with 3 guards = "
            << util::FormatPercent(core::MultiGuardCompromiseProbability(0.01, 3, x), 2)
            << " per the Section 3.1 model.\n";
  return 0;
}
