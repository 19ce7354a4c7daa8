// Section 3.3 — asymmetric traffic analysis: (a) structurally, observing
// *any* direction at each end enlarges the set of compromising ASes
// relative to the conventional same-direction model; (b) operationally,
// the byte-count correlation attack deanonymizes the client under every
// observation combination, including ACKs-only at both ends.

#include <iostream>

#include "ckpt/sweep.hpp"
#include "common.hpp"
#include "core/attack_analysis.hpp"
#include "core/population_exposure.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace quicksand;

  bench::BenchContext ctx(
      argc, argv, "Section 3.3 — asymmetric traffic analysis",
      "asymmetric routing increases the fraction of ASes able to analyze "
      "traffic; correlation works on any direction at each end");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  core::ExposureAnalyzer analyzer(scenario.topology.graph, scenario.topology.policy_salts);

  // Guard/exit AS pools from the actual consensus placement.
  std::vector<bgp::AsNumber> guard_ases, exit_ases;
  for (const tor::RelayPrefixEntry& entry : scenario.prefix_map.entries()) {
    const auto& relay = scenario.consensus.consensus.relays()[entry.relay_index];
    if (relay.IsGuard()) guard_ases.push_back(entry.origin);
    if (relay.IsExit()) exit_ases.push_back(entry.origin);
  }

  const auto gain = ctx.Timed("structural_gain", [&] {
    return core::ComputeAsymmetricGain(
        analyzer, scenario.topology.graph.AsCount(), scenario.topology.eyeballs,
        guard_ases, exit_ases, scenario.topology.contents, 400, 20140627,
        ctx.threads());
  });

  util::PrintBanner(std::cout, "observation-model comparison (400 sampled circuits)");
  util::Table structural({"observation model", "mean observers/circuit",
                          "circuits with >=1 observer"});
  structural.AddRow({"symmetric (conventional end-to-end)",
                     util::FormatDouble(gain.mean_count_symmetric, 3),
                     util::FormatPercent(gain.circuits_observed_symmetric, 1)});
  structural.AddRow({"any direction (this paper)",
                     util::FormatDouble(gain.mean_count_any_direction, 3),
                     util::FormatPercent(gain.circuits_observed_any_direction, 1)});
  structural.AddRow({"mean gain (any / symmetric)",
                     util::FormatDouble(gain.mean_gain, 2) + "x", ""});
  std::cout << structural.Render();

  // Operational attack across the four observation combinations.
  util::PrintBanner(std::cout,
                    "correlation deanonymization, 10 candidate clients, 12 trials");
  util::Table attack({"entry view", "exit view", "success rate", "mean target r",
                      "mean runner-up r"});
  util::CsvWriter csv("sec33_deanon.csv",
                      {"entry_view", "exit_view", "trial", "success", "target_r",
                       "runner_up_r"});
  // One trial simulates its candidate flows once and reads all four
  // (entry view, exit view) cells off the same taps; the report keeps the
  // (entry, exit, trial) order.
  const core::SegmentView views[] = {core::SegmentView::kDataBytes,
                                     core::SegmentView::kAckedBytes};
  const std::size_t trials = 12;
  // Each trial is one checkpoint shard: a killed run resumes from the
  // first incomplete trial and reproduces the uninterrupted output
  // byte-for-byte (the trial's seed is keyed by its index).
  const ckpt::StageOptions trials_stage =
      ctx.Stage("correlation_trials", trials, /*config_key=*/5000);
  const std::vector<core::DeanonViews> trial_results =
      ctx.Timed("correlation_trials", [&] {
        return ckpt::CheckpointedMap(
            trials_stage, ctx.threads(), trials,
            [&](std::size_t trial) {
              core::DeanonExperimentParams params;
              params.candidate_clients = 10;
              params.base_flow.file_bytes = 12 << 20;
              params.correlation.bin_s = 0.5;
              params.correlation.duration_s = 16.0;
              params.seed = 5000 + static_cast<std::uint64_t>(trial) * 37;
              return core::RunCorrelationDeanonymization(params);
            },
            [](const core::DeanonViews& trial_views, ckpt::PayloadWriter& payload) {
              for (const core::DeanonResult& result : trial_views.cells) {
                payload.U64(result.target).U64(result.matched).Bool(result.success);
                payload.Dbl(result.target_correlation).Dbl(result.runner_up_correlation);
                payload.U64(result.correlations.size());
                for (const double r : result.correlations) payload.Dbl(r);
              }
            },
            [](ckpt::PayloadReader& payload) {
              core::DeanonViews trial_views;
              for (core::DeanonResult& result : trial_views.cells) {
                result.target = payload.U64();
                result.matched = payload.U64();
                result.success = payload.Bool();
                result.target_correlation = payload.Dbl();
                result.runner_up_correlation = payload.Dbl();
                result.correlations.resize(payload.U64());
                for (double& r : result.correlations) r = payload.Dbl();
              }
              return trial_views;
            });
      });
  for (const core::SegmentView entry : views) {
    for (const core::SegmentView exit : views) {
      std::size_t successes = 0;
      std::vector<double> target_r, runner_r;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        const core::DeanonResult& result = trial_results[trial].At(entry, exit);
        if (result.success) ++successes;
        target_r.push_back(result.target_correlation);
        runner_r.push_back(result.runner_up_correlation);
        csv.WriteRow({std::string(ToString(entry)), std::string(ToString(exit)),
                      std::to_string(trial), result.success ? "1" : "0",
                      util::FormatDouble(result.target_correlation, 4),
                      util::FormatDouble(result.runner_up_correlation, 4)});
      }
      attack.AddRow({std::string(ToString(entry)), std::string(ToString(exit)),
                     util::FormatPercent(static_cast<double>(successes) / trials, 0),
                     util::FormatDouble(util::Mean(target_r), 3),
                     util::FormatDouble(util::Mean(runner_r), 3)});
      ctx.Result("success_rate[" + std::string(ToString(entry)) + "/" +
                     std::string(ToString(exit)) + "]",
                 static_cast<double>(successes) / trials);
    }
  }
  std::cout << attack.Render();

  util::PrintBanner(std::cout, "paper vs measured");
  util::Table comparison({"claim", "paper", "measured"});
  ctx.Comparison(comparison, "asymmetry increases observer set",
                 "\"only increases the security risk\"",
                 util::FormatDouble(gain.mean_gain, 2) + "x more observers");
  ctx.Comparison(comparison, "acks-only observation suffices",
                 "\"suffices ... in any direction\"",
                 "acks/acks row above");
  std::cout << comparison.Render();
  std::cout << "\nwrote sec33_deanon.csv\n";

  ctx.Result("mean_gain", gain.mean_gain);
  ctx.Result("mean_observers_symmetric", gain.mean_count_symmetric);
  ctx.Result("mean_observers_any_direction", gain.mean_count_any_direction);

  // --- Population distribution of the asymmetric gain: the 400-circuit
  // point estimate above averages over the whole eyeball pool; this phase
  // scores every client AS separately (its own RNG substream, its own
  // circuit samples) so the per-AS spread of the gain is visible. Point
  // estimates above are untouched.
  const core::PopulationGainResult population_gain =
      ctx.Timed("population_gain", [&] {
        return core::ComputePopulationAsymmetricGain(
            analyzer, scenario.topology.graph.AsCount(), scenario.topology.eyeballs,
            guard_ases, exit_ases, scenario.topology.contents,
            /*samples_per_as=*/8, /*seed=*/20140628, ctx.threads());
      });

  std::vector<double> as_gains;
  as_gains.reserve(population_gain.per_as.size());
  for (const core::PopulationGainEntry& entry : population_gain.per_as) {
    as_gains.push_back(entry.mean_gain);
  }
  const util::Summary gain_spread = util::Summarize(as_gains);

  util::PrintBanner(std::cout,
                    "per-client-AS asymmetric gain (8 circuits per AS)");
  util::Table pop_table({"metric", "value"});
  pop_table.AddRow({"client ASes scored",
                    std::to_string(population_gain.per_as.size())});
  pop_table.AddRow({"mean gain", util::FormatDouble(population_gain.mean_gain, 2) + "x"});
  pop_table.AddRow({"median per-AS gain", util::FormatDouble(gain_spread.median, 2) + "x"});
  pop_table.AddRow({"p75 per-AS gain", util::FormatDouble(gain_spread.p75, 2) + "x"});
  pop_table.AddRow({"max per-AS gain", util::FormatDouble(population_gain.max_gain, 2) + "x"});
  std::cout << pop_table.Render();

  util::CsvWriter pop_csv("sec33_population.csv",
                          {"client_as", "mean_fraction_symmetric",
                           "mean_fraction_any_direction", "mean_gain"});
  for (const core::PopulationGainEntry& entry : population_gain.per_as) {
    pop_csv.WriteRow({static_cast<double>(entry.client_as),
                      entry.mean_fraction_symmetric,
                      entry.mean_fraction_any_direction, entry.mean_gain});
  }
  std::cout << "\nwrote sec33_population.csv (" << population_gain.per_as.size()
            << " ASes)\n";

  ctx.Result("population_mean_gain", population_gain.mean_gain);
  ctx.Result("population_max_gain", population_gain.max_gain);
  ctx.Result("population_gain_median", gain_spread.median);
  ctx.Result("population_gain_p75", gain_spread.p75);
  ctx.Result("population_client_ases",
             static_cast<std::int64_t>(population_gain.per_as.size()));
  ctx.Result("population_samples_per_as",
             static_cast<std::int64_t>(population_gain.samples_per_as));
  ctx.Finish();
  return 0;
}
