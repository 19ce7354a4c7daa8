#include "core/attack_analysis.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::core {

using bgp::AsIndex;
using bgp::AsNumber;

namespace {

/// Spread of per-client file sizes (uniform multiplier around 1).
constexpr double kFileSizeSpread = 0.5;
/// Spread of per-client link delays.
constexpr double kDelaySpread = 0.3;
/// Spread of per-client access-link rates (different clients live behind
/// different last miles; this shapes each flow's ramp distinctly).
constexpr double kRateSpread = 0.4;
/// Client flows begin at uniform offsets in [0, kStartSpreadS); real
/// candidate flows are not synchronized.
constexpr double kStartSpreadS = 4.0;

}  // namespace

HijackAnalysisResult AnalyzeHijack(const bgp::AsGraph& graph, const bgp::AttackSpec& spec,
                                   std::span<const AsNumber> client_ases) {
  static obs::Counter& hijacks =
      obs::MetricsRegistry::Global().GetCounter("core.attack.hijacks_analyzed");
  static obs::Counter& clients =
      obs::MetricsRegistry::Global().GetCounter("core.attack.clients_evaluated");
  hijacks.Increment();
  clients.Increment(client_ases.size());
  const bgp::HijackSimulator simulator(graph);
  HijackAnalysisResult result{0, 0, 0, false, simulator.Execute(spec)};
  result.connection_survives = result.outcome.traffic_delivered;
  result.clients_total = client_ases.size();

  const bgp::RoutingState baseline = simulator.Baseline(spec.victim);
  const AsIndex attacker = graph.MustIndexOf(spec.attacker);
  for (AsNumber client : client_ases) {
    const auto client_index = graph.IndexOf(client);
    if (!client_index) continue;
    const auto path =
        bgp::LpmForwardingPath(result.outcome.attacked, baseline, *client_index);
    if (std::find(path.begin(), path.end(), attacker) != path.end()) {
      ++result.clients_observed;
    }
  }
  result.observed_fraction =
      result.clients_total == 0
          ? 0
          : static_cast<double>(result.clients_observed) /
                static_cast<double>(result.clients_total);
  return result;
}

DeanonViews RunCorrelationDeanonymization(const DeanonExperimentParams& params) {
  const obs::ScopedSpan span("core.correlation_deanon");
  static obs::Counter& experiments =
      obs::MetricsRegistry::Global().GetCounter("core.attack.deanon_experiments");
  experiments.Increment();
  if (params.candidate_clients == 0) {
    throw std::invalid_argument("RunCorrelationDeanonymization: no candidates");
  }
  netbase::Rng rng(params.seed);

  // Draw every candidate's flow parameters, then the target, from `rng`.
  // SimulateTransfer never touches it (flows carry their own seed), so
  // these draws are the whole of the experiment's shared randomness.
  std::vector<traffic::FlowSimParams> flows;
  flows.reserve(params.candidate_clients);
  for (std::size_t i = 0; i < params.candidate_clients; ++i) {
    traffic::FlowSimParams flow = params.base_flow;
    flow.seed = rng();
    const double size_mult =
        rng.UniformDouble(1.0 - kFileSizeSpread, 1.0 + kFileSizeSpread);
    flow.file_bytes = std::max<std::uint64_t>(
        1 << 20, static_cast<std::uint64_t>(static_cast<double>(flow.file_bytes) * size_mult));
    flow.start_time_s = rng.UniformDouble(0.0, kStartSpreadS);
    const double rate_mult = rng.UniformDouble(1.0 - kRateSpread, 1.0 + kRateSpread);
    for (auto& link : flow.links) {
      const double delay_mult = rng.UniformDouble(1.0 - kDelaySpread, 1.0 + kDelaySpread);
      link.delay_fwd_s *= delay_mult;
      link.delay_rev_s *= delay_mult;
      link.rate_bytes_per_s *= rate_mult;
    }
    flows.push_back(std::move(flow));
  }
  const std::size_t target = rng.UniformInt(0, flows.size() - 1);

  const bool data_b_to_a = params.base_flow.direction ==
                           traffic::TransferDirection::kDownload;

  // Simulate each candidate once and bin its entry tap under both views,
  // and the target's exit tap too; every cell below reads these series.
  constexpr SegmentView kViews[] = {SegmentView::kDataBytes, SegmentView::kAckedBytes};
  std::array<std::vector<std::vector<double>>, 2> entry_series;
  std::array<std::vector<double>, 2> target_series;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const traffic::FlowTraces traces = traffic::SimulateTransfer(flows[i]);
    for (std::size_t v = 0; v < 2; ++v) {
      entry_series[v].push_back(
          ExtractSeries(traces.client_guard, data_b_to_a, kViews[v], params.correlation));
      if (i == target) {
        target_series[v] =
            ExtractSeries(traces.exit_server, data_b_to_a, kViews[v], params.correlation);
      }
    }
  }

  DeanonViews views;
  std::size_t cell = 0;  // entry-major, the order of DeanonViews::cells
  for (const std::vector<std::vector<double>>& candidates : entry_series) {
    for (const std::vector<double>& target_view : target_series) {
      MatchResult match = MatchFlows(candidates, target_view, params.correlation);
      DeanonResult& result = views.cells[cell++];
      result.target = target;
      result.matched = match.best_candidate;
      result.success = result.matched == result.target;
      result.target_correlation = match.correlations[result.target];
      result.runner_up_correlation = match.runner_up_correlation;
      result.correlations = std::move(match.correlations);
    }
  }
  return views;
}

AsymmetricGainResult ComputeAsymmetricGain(
    ExposureAnalyzer& analyzer, std::size_t total_as_count,
    std::span<const AsNumber> client_ases, std::span<const AsNumber> guard_ases,
    std::span<const AsNumber> exit_ases, std::span<const AsNumber> dest_ases,
    std::size_t samples, std::uint64_t seed, std::size_t threads) {
  if (client_ases.empty() || guard_ases.empty() || exit_ases.empty() ||
      dest_ases.empty()) {
    throw std::invalid_argument("ComputeAsymmetricGain: empty AS pools");
  }
  netbase::Rng rng(seed);

  // Draw the sampled tuples serially, then score them in parallel (the
  // analyzer's route cache is thread-safe); the per-sample counts are
  // accumulated in sample order below, so the floating-point sums are
  // byte-identical for every thread count.
  struct SampleTuple {
    AsNumber client, guard, exit, dest;
  };
  std::vector<SampleTuple> tuples;
  tuples.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    tuples.push_back({client_ases[rng.UniformInt(0, client_ases.size() - 1)],
                      guard_ases[rng.UniformInt(0, guard_ases.size() - 1)],
                      exit_ases[rng.UniformInt(0, exit_ases.size() - 1)],
                      dest_ases[rng.UniformInt(0, dest_ases.size() - 1)]});
  }
  struct SampleCounts {
    std::size_t symmetric = 0, any = 0;
  };
  const std::vector<SampleCounts> counts = exec::ParallelMap(
      threads, samples, [&](std::size_t s) {
        const SampleTuple& t = tuples[s];
        const SegmentExposure exposure =
            analyzer.InstantExposure(t.client, t.guard, t.exit, t.dest);
        return SampleCounts{
            CompromisingAses(exposure, ObservationModel::kSymmetric).size(),
            CompromisingAses(exposure, ObservationModel::kAnyDirection).size()};
      });

  AsymmetricGainResult result;
  double sum_sym = 0, sum_any = 0, sum_gain = 0;
  double count_sym = 0, count_any = 0;
  std::size_t observed_sym = 0, observed_any = 0;
  std::size_t gain_samples = 0;
  for (const SampleCounts& c : counts) {
    sum_sym += static_cast<double>(c.symmetric) / static_cast<double>(total_as_count);
    sum_any += static_cast<double>(c.any) / static_cast<double>(total_as_count);
    count_sym += static_cast<double>(c.symmetric);
    count_any += static_cast<double>(c.any);
    if (c.symmetric != 0) ++observed_sym;
    if (c.any != 0) ++observed_any;
    // Gain is only meaningful where someone can observe at all; samples
    // where even the broad model finds nobody are excluded.
    if (c.any != 0) {
      sum_gain += static_cast<double>(c.any) /
                  std::max<double>(1.0, static_cast<double>(c.symmetric));
      ++gain_samples;
    }
  }
  result.samples = samples;
  if (samples > 0) {
    const auto n = static_cast<double>(samples);
    result.mean_fraction_symmetric = sum_sym / n;
    result.mean_fraction_any_direction = sum_any / n;
    result.mean_count_symmetric = count_sym / n;
    result.mean_count_any_direction = count_any / n;
    result.circuits_observed_symmetric = static_cast<double>(observed_sym) / n;
    result.circuits_observed_any_direction = static_cast<double>(observed_any) / n;
    result.mean_gain =
        gain_samples == 0 ? 1.0 : sum_gain / static_cast<double>(gain_samples);
  }
  return result;
}

}  // namespace quicksand::core
