// Figure 3 (left): CCDF of per-session path changes of Tor prefixes,
// normalized by the session's median over all BGP prefixes — "more than
// 50% of the time Tor prefixes saw more changes than any BGP prefix
// (ratio greater than one) on a session", with a heavy tail (one prefix
// at >2000x the median).
//
// Pipeline: month of synthetic updates -> wire round trip in the
// --format codec (MRT text or binary QMRT) -> feed sanitizing (ordering
// repair + session-reset filtering; the ablation reports unfiltered
// numbers too) -> churn analysis -> ratio CCDF. Writes fig3_left.csv.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <unordered_set>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "ckpt/sweep.hpp"
#include "common.hpp"
#include "core/report.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace quicksand;

/// What one churn pass yields: the Fig. 3 left ratio series and the share
/// of Tor prefixes that change more than their session's median on at
/// least one session.
struct ChurnShard {
  std::vector<double> ratios;
  double tor_prefixes_above_median = 0;
};

/// Runs the churn analysis on the streaming data plane over records that
/// already index `table`. Results are identical for every batch size —
/// the --feed-batch smoke in CI holds the default batch and 512 to that.
ChurnShard AnalyzeShard(const std::unordered_set<netbase::Prefix>& tor_prefixes,
                        const std::shared_ptr<bgp::feed::AsPathTable>& table,
                        const std::vector<bgp::BgpUpdate>& initial_rib,
                        const std::vector<bgp::feed::UpdateRec>& updates,
                        std::size_t threads, std::size_t feed_batch) {
  const std::size_t batch =
      feed_batch != 0 ? feed_batch : bgp::feed::kDefaultBatchSize;
  const bgp::ChurnAnalyzer analyzer =
      bgp::AnalyzeChurnStream(bgp::feed::FromVector(table, initial_rib, batch),
                              bgp::feed::FromRecords(table, updates, batch), {}, threads);
  ChurnShard shard;
  shard.ratios = analyzer.RatioToSessionMedian(tor_prefixes);
  const std::map<bgp::SessionId, double> medians = analyzer.MedianPathChangesPerSession();
  std::map<netbase::Prefix, bool> above;
  for (const auto& [key, churn] : analyzer.entries()) {
    if (!tor_prefixes.contains(key.prefix)) continue;
    above[key.prefix] = above[key.prefix] ||
                        static_cast<double>(churn.path_changes) > medians.at(key.session);
  }
  const auto count = std::count_if(above.begin(), above.end(),
                                   [](const auto& entry) { return entry.second; });
  shard.tor_prefixes_above_median =
      above.empty() ? 0.0
                    : static_cast<double>(count) / static_cast<double>(above.size());
  return shard;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(
      argc, argv,
      "Figure 3 (left) — Tor-prefix path changes relative to the session median",
      ">50% of Tor prefixes see more changes than the per-session median; "
      "heavy tail up to ~2000x");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const bgp::GeneratedDynamics dynamics =
      ctx.Timed("dynamics", [&] { return bench::MakeMonthOfDynamics(scenario, ctx.threads()); });
  std::cout << "  dataset: " << dynamics.updates.size() << " updates on "
            << scenario.collectors.SessionCount() << " sessions over one month\n";

  // The month of updates round-trips through the selected wire format —
  // the shape of a real collector pipeline (dump -> parse -> analyze).
  // Wire size is format-dependent and so stays out of the deterministic
  // JSON; the parsed feed is asserted identical to the generated one, so
  // everything downstream is format-independent by construction.
  const std::string wire = ctx.Timed("serialize", [&] {
    return bench::SerializeWire(ctx.format(), dynamics.updates);
  });
  std::cout << "  wire: " << wire.size() << " bytes as "
            << bench::ToString(ctx.format()) << "\n";
  // Parse and everything downstream stay on the record plane: one shared
  // AsPathTable, updates as 24-byte records, hop vectors touched only
  // where a path is first interned.
  auto table = std::make_shared<bgp::feed::AsPathTable>();
  const std::vector<bgp::feed::UpdateRec> parsed = ctx.Timed("parse", [&] {
    return bench::ParseWireRecords(ctx.format(), table, wire, ctx.feed_batch());
  });
  if (!bench::RecordsMatchUpdates(*table, parsed, dynamics.updates)) {
    std::cerr << "wire round trip diverged from the generated feed\n";
    return 1;
  }

  // The t=0 tables, interned after the parse so the wire source keeps the
  // ids it assigned. The copy of `parsed` exists only because the
  // ablation below also analyzes the unfiltered feed.
  const std::vector<bgp::feed::UpdateRec> rib_recs =
      bgp::feed::InternRecords(*table, dynamics.initial_rib);
  std::vector<bgp::feed::UpdateRec> to_sanitize = parsed;
  const auto filtered = ctx.Timed("sanitize", [&] {
    return bgp::SanitizeRecords(rib_recs, std::move(to_sanitize));
  });
  std::cout << "  sanitizer: " << filtered.reset_stats.bursts_detected << " bursts, "
            << filtered.reset_stats.burst_updates_removed << " burst updates and "
            << filtered.reset_stats.duplicates_removed << " duplicates removed, "
            << filtered.out_of_order_repaired << " orderings repaired\n";

  // The two heavy churn passes (filtered / unfiltered) are checkpoint
  // shards: a killed run resumes past whichever pass already completed.
  // The inputs (dynamics, sanitized feed) are regenerated deterministically
  // above, so decoded shards splice back in byte-identically. Config key 1:
  // a payload carries the above-median share next to the ratios (older
  // snapshots held ratios only and are recomputed).
  const std::unordered_set<netbase::Prefix> tor_prefixes =
      scenario.prefix_map.TorPrefixes(scenario.consensus.consensus);
  const ckpt::StageOptions churn_stage = ctx.Stage("churn", 2, /*config_key=*/1);
  const auto shards = ctx.Timed("churn", [&] {
    return ckpt::CheckpointedMap(
        churn_stage, /*threads=*/1, 2,
        [&](std::size_t shard) {
          return AnalyzeShard(tor_prefixes, table, dynamics.initial_rib,
                              shard == 0 ? filtered.updates : parsed, ctx.threads(),
                              ctx.feed_batch());
        },
        [](const ChurnShard& shard, ckpt::PayloadWriter& payload) {
          payload.U64(shard.ratios.size());
          for (const double r : shard.ratios) payload.Dbl(r);
          payload.Dbl(shard.tor_prefixes_above_median);
        },
        [](ckpt::PayloadReader& payload) {
          ChurnShard shard;
          shard.ratios.resize(payload.U64());
          for (double& r : shard.ratios) r = payload.Dbl();
          shard.tor_prefixes_above_median = payload.Dbl();
          return shard;
        });
  });
  const std::vector<double>& ratios = shards[0].ratios;
  const std::vector<double>& raw_ratios = shards[1].ratios;

  util::PrintBanner(std::cout, "CCDF of ratio (filtered stream)");
  core::PrintCcdf(std::cout, util::Ccdf(ratios), "changes / session median", 18);

  util::PrintBanner(std::cout, "session-reset filter ablation");
  util::Table ablation({"stream", "P(ratio > 1)", "median ratio", "max ratio"});
  for (const auto& [label, series] :
       {std::pair{"filtered (paper methodology)", &ratios},
        std::pair{"unfiltered (naive)", &raw_ratios}}) {
    ablation.AddRow({label,
                     util::FormatPercent(util::FractionAtLeast(*series, 1.0 + 1e-9), 1),
                     util::FormatDouble(util::Median(*series), 2),
                     util::FormatDouble(*std::max_element(series->begin(), series->end()), 1)});
  }
  std::cout << ablation.Render();

  const double fraction_above_one = util::FractionAtLeast(ratios, 1.0 + 1e-9);
  const double max_ratio = *std::max_element(ratios.begin(), ratios.end());

  util::PrintBanner(std::cout, "paper vs measured (filtered)");
  util::Table comparison({"metric", "paper", "measured"});
  ctx.Comparison(comparison, "Tor (session,prefix) pairs with ratio > 1", ">50%",
                 util::FormatPercent(fraction_above_one, 1));
  ctx.Comparison(comparison, "worst Tor prefix vs median",
                 "~2000x (178.239.176.0/20)",
                 util::FormatDouble(max_ratio, 0) + "x");
  ctx.Comparison(comparison, "Tor prefixes above median on >=1 session", "90%",
                 util::FormatPercent(shards[0].tor_prefixes_above_median, 1));
  std::cout << comparison.Render();

  util::CsvWriter csv("fig3_left.csv", {"ratio", "ccdf_fraction"});
  for (const util::CcdfPoint& point : util::Ccdf(ratios)) {
    csv.WriteRow({point.value, point.fraction});
  }
  std::cout << "\nwrote fig3_left.csv\n";

  ctx.Result("updates_generated", static_cast<std::uint64_t>(dynamics.updates.size()));
  ctx.Result("fraction_ratio_above_one", fraction_above_one);
  ctx.Result("max_ratio", max_ratio);
  ctx.Result("median_ratio_filtered", util::Median(ratios));
  ctx.Finish();
  return 0;
}
