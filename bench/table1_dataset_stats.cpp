// Section 4 "Methodology and datasets" statistics (the paper reports them
// in prose; we render them as a table): relay counts, Tor prefixes and
// their origin ASes, the relays-per-prefix skew, and per-session prefix
// visibility. Absolute counts scale with our ~600-AS topology (vs the real
// ~47k-AS Internet); the distributional shape is the reproduction target.

#include <fstream>
#include <iostream>
#include <memory>

#include "bgp/churn.hpp"
#include "common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace quicksand;

  bench::BenchContext ctx(
      argc, argv, "Section 4 dataset statistics (Table 1 equivalent)",
      "4586 relays; 1251 Tor prefixes from 650 ASes; relays/prefix "
      "median 1, p75 2, max 33; prefixes seen on ~40% of sessions");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const tor::Consensus& consensus = scenario.consensus.consensus;
  const auto tor_prefixes = scenario.prefix_map.TorPrefixes(consensus);
  const auto per_prefix = scenario.prefix_map.GuardExitRelaysPerPrefix(consensus);
  const auto per_as = scenario.prefix_map.GuardExitRelaysPerAs(consensus);

  std::vector<double> relays_per_prefix;
  std::size_t max_relays = 0;
  netbase::Prefix max_prefix;
  for (const auto& [prefix, count] : per_prefix) {
    relays_per_prefix.push_back(static_cast<double>(count));
    if (count > max_relays) {
      max_relays = count;
      max_prefix = prefix;
    }
  }
  const util::Summary skew = util::Summarize(relays_per_prefix);

  // Visibility: for each Tor prefix, the fraction of sessions observing it
  // at t=0; and per session, the number of Tor prefixes learned.
  const bgp::GeneratedDynamics dynamics =
      ctx.Timed("dynamics", [&] { return bench::MakeMonthOfDynamics(scenario, ctx.threads()); });
  bgp::ChurnAnalyzer analyzer;
  bgp::feed::UpdateStream rib = bgp::feed::FromVector(
      std::make_shared<bgp::feed::AsPathTable>(), dynamics.initial_rib);
  analyzer.ConsumeStream(rib);
  analyzer.Finish();
  std::vector<double> sessions_per_tor_prefix;
  for (const auto& [prefix, sessions] : analyzer.SessionsPerPrefix()) {
    if (tor_prefixes.contains(prefix)) {
      sessions_per_tor_prefix.push_back(
          static_cast<double>(sessions) /
          static_cast<double>(scenario.collectors.SessionCount()));
    }
  }
  std::map<bgp::SessionId, std::size_t> tor_prefixes_per_session;
  for (const auto& [key, churn] : analyzer.entries()) {
    (void)churn;
    if (tor_prefixes.contains(key.prefix)) ++tor_prefixes_per_session[key.session];
  }
  std::vector<double> learned;
  for (const auto& [session, count] : tor_prefixes_per_session) {
    (void)session;
    learned.push_back(static_cast<double>(count));
  }
  const double tor_prefix_total = static_cast<double>(tor_prefixes.size());

  util::PrintBanner(std::cout, "paper vs measured");
  util::Table t({"metric", "paper (May/July 2014)", "measured (synthetic)"});
  ctx.Comparison(t, "relays", "4586", std::to_string(consensus.size()));
  ctx.Comparison(t, "guards", "1918", std::to_string(consensus.Guards().size()));
  ctx.Comparison(t, "exits", "891", std::to_string(consensus.Exits().size()));
  ctx.Comparison(t, "guard+exit", "442", std::to_string(consensus.GuardExits().size()));
  ctx.Comparison(t, "Tor prefixes", "1251", std::to_string(tor_prefixes.size()));
  ctx.Comparison(t, "origin ASes of Tor prefixes", "650", std::to_string(per_as.size()));
  ctx.Comparison(t, "relays/prefix median", "1", util::FormatDouble(skew.median, 0));
  ctx.Comparison(t, "relays/prefix p75", "2", util::FormatDouble(skew.p75, 0));
  ctx.Comparison(t, "relays/prefix max", "33 (78.46.0.0/15)",
                 std::to_string(max_relays) + " (" + max_prefix.ToString() + ")");
  ctx.Comparison(t, "avg sessions seeing a Tor prefix", "40%",
                 util::FormatPercent(util::Mean(sessions_per_tor_prefix), 1));
  ctx.Comparison(t, "max sessions seeing a Tor prefix", "60%",
                 util::FormatPercent(*std::max_element(sessions_per_tor_prefix.begin(),
                                                       sessions_per_tor_prefix.end()),
                                     1));
  ctx.Comparison(t, "median Tor prefixes learned per session", "438 (35%)",
                 util::FormatDouble(util::Median(learned), 0) + " (" +
                     util::FormatPercent(util::Median(learned) / tor_prefix_total, 0) +
                     ")");
  ctx.Comparison(
      t, "max Tor prefixes learned per session", "1242 (99%)",
      util::FormatDouble(*std::max_element(learned.begin(), learned.end()), 0) + " (" +
          util::FormatPercent(
              *std::max_element(learned.begin(), learned.end()) / tor_prefix_total, 0) +
          ")");
  ctx.Comparison(t, "collector sessions", "70+ (4 collectors)",
                 std::to_string(scenario.collectors.SessionCount()) + " (4 collectors)");
  std::cout << t.Render();

  // Machine-readable copy of the comparison table itself.
  {
    std::ofstream table_csv("table1_dataset_stats.csv");
    table_csv << t.ToCsv();
  }
  std::cout << "\nwrote table1_dataset_stats.csv (" << t.RowCount() << " rows)\n";

  util::CsvWriter csv("table1_relays_per_prefix.csv", {"relays_per_prefix", "count"});
  std::map<std::size_t, std::size_t> histogram;
  for (double v : relays_per_prefix) ++histogram[static_cast<std::size_t>(v)];
  for (const auto& [relays, count] : histogram) {
    csv.WriteRow({static_cast<double>(relays), static_cast<double>(count)});
  }
  std::cout << "\nwrote table1_relays_per_prefix.csv\n";

  ctx.Result("relays", static_cast<std::uint64_t>(consensus.size()));
  ctx.Result("tor_prefixes", static_cast<std::uint64_t>(tor_prefixes.size()));
  ctx.Result("origin_ases", static_cast<std::uint64_t>(per_as.size()));
  ctx.Result("avg_sessions_seeing_tor_prefix", util::Mean(sessions_per_tor_prefix));
  ctx.Finish();
  return 0;
}
