// Churn monitor (Section 5 narrative): run the defender's side. Generate
// a week of BGP updates, archive and re-read them in the MRT-like text
// format, clean session-reset artifacts, measure which Tor prefixes churn,
// and run the real-time relay monitor over the stream — ending with the
// relay-selection advice a Tor client would consume.

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/mrt.hpp"
#include "bgp/session_reset.hpp"
#include "bgp/topology_gen.hpp"
#include "core/advisor.hpp"
#include "core/monitor.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/prefix_map.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace quicksand;

  bgp::TopologyParams topology_params;
  topology_params.seed = 21;
  const bgp::Topology topo = bgp::GenerateTopology(topology_params);
  bgp::CollectorParams collector_params;
  collector_params.seed = 22;
  const bgp::CollectorSet collectors = bgp::CollectorSet::Create(topo, collector_params);
  tor::ConsensusGenParams consensus_params;
  consensus_params.seed = 23;
  const tor::GeneratedConsensus generated =
      tor::GenerateConsensus(topo, consensus_params);
  const tor::TorPrefixMap prefix_map =
      tor::TorPrefixMap::Build(generated.consensus, topo.prefix_origins);
  const auto tor_prefixes = prefix_map.TorPrefixes(generated.consensus);

  bgp::DynamicsParams dynamics_params;
  dynamics_params.window = 7 * netbase::duration::kDay;
  dynamics_params.seed = 24;
  const bgp::GeneratedDynamics dynamics =
      bgp::GenerateDynamics(topo, collectors, dynamics_params);

  // Archive to the textual MRT format and read it back as compact records
  // (what a real deployment ingesting RIS dumps would do).
  const std::string archive = "churn_monitor_updates.mrt";
  bgp::mrt::WriteFile(archive, dynamics.updates);
  auto paths = std::make_shared<bgp::feed::AsPathTable>();
  bgp::feed::UpdateStream archived = bgp::mrt::ParseFileStream(paths, archive);
  std::vector<bgp::feed::UpdateRec> replayed = bgp::feed::Drain(archived);
  std::remove(archive.c_str());
  std::cout << "Replayed " << replayed.size() << " updates from " << archive
            << " (one simulated week, " << collectors.SessionCount()
            << " sessions)\n";

  // Clean and measure. The t=0 tables join the archive's path table: the
  // filter compares path ids, which only means path equality within one
  // table.
  std::vector<bgp::feed::UpdateRec> rib;
  for (const bgp::BgpUpdate& update : dynamics.initial_rib) {
    rib.push_back(bgp::feed::ToRecord(update, *paths));
  }
  const auto filtered = bgp::FilterSessionRecords(rib, std::move(replayed));
  std::cout << "Session-reset filter removed "
            << filtered.stats.burst_updates_removed + filtered.stats.duplicates_removed
            << " artifact updates (" << filtered.stats.bursts_detected << " bursts)\n";

  // Run the churn analyzer and the attack monitor over the same stream,
  // record by record.
  bgp::ChurnParams churn_params;
  churn_params.window_end_s = dynamics_params.window;
  bgp::ChurnAnalyzer churn(churn_params);
  core::RelayMonitor monitor(tor_prefixes);
  for (const bgp::feed::UpdateRec& rec : rib) {
    churn.ConsumeRecord(rec, *paths);
    monitor.LearnRecord(rec, *paths);
  }
  for (const bgp::feed::UpdateRec& rec : filtered.updates) {
    churn.ConsumeRecord(rec, *paths);
    (void)monitor.ConsumeRecord(rec, *paths);
  }
  churn.Finish();

  // Fuse everything through the advisory service the paper proposes and
  // print what a Tor client would consume.
  core::RelayAdvisor advisor;
  advisor.IngestChurn(churn);
  advisor.IngestAlerts(monitor.alerts());
  const auto advice = advisor.Advise(generated.consensus, prefix_map);

  std::map<core::RelayVerdict, std::size_t> verdicts;
  for (const core::RelayAdvice& a : advice) ++verdicts[a.verdict];
  std::cout << "\nRelay advisory summary: "
            << verdicts[core::RelayVerdict::kOk] << " ok, "
            << verdicts[core::RelayVerdict::kElevated] << " elevated, "
            << verdicts[core::RelayVerdict::kAvoid] << " avoid\n";

  // Show the most concerning guards.
  util::Table table({"relay", "verdict", "reason"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < advice.size() && shown < 10; ++i) {
    if (!generated.consensus.relays()[i].IsGuard()) continue;
    if (advice[i].verdict == core::RelayVerdict::kOk) continue;
    table.AddRow({generated.consensus.relays()[i].nickname,
                  std::string(ToString(advice[i].verdict)), advice[i].reason});
    ++shown;
  }
  std::cout << "\nGuards a client should treat carefully:\n" << table.Render();
  std::cout << "\nMonitor raised " << monitor.alerts().size()
            << " alerts on the benign stream (aggressive policy: false "
               "positives preferred over misses).\n";
  return 0;
}
