#pragma once

// End-to-end attack analyses combining the BGP, Tor, and traffic
// substrates (Sections 3.2 and 3.3).
//
//  * AnalyzeHijack — a prefix hijack against a guard's prefix blackholes
//    connections but lets the attacker enumerate the clients of that guard
//    (the anonymity set); an interception keeps connections alive for
//    exact correlation. Clients are "observed" when their data-plane path
//    toward the victim prefix crosses the attacker under
//    longest-prefix-match semantics.
//
//  * RunCorrelationDeanonymization — the traffic side: one target flow is
//    watched at the destination end; the attacker correlates it against
//    the entry-side flows of a population of candidate clients, under
//    every observation mode at each end (data vs acked bytes) at once.
//
//  * ComputeAsymmetricGain — how much larger the set of compromising ASes
//    is under the any-direction observation model than under the
//    conventional symmetric model (Section 3.3's structural claim).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/hijack.hpp"
#include "core/adversary.hpp"
#include "core/correlation_attack.hpp"
#include "core/exposure.hpp"
#include "traffic/flow_sim.hpp"

namespace quicksand::core {

/// Result of a hijack/interception against a guard prefix.
struct HijackAnalysisResult {
  std::size_t clients_total = 0;
  /// Clients whose traffic toward the victim prefix crosses the attacker.
  std::size_t clients_observed = 0;
  /// clients_observed / clients_total — how far the hijack narrows the
  /// anonymity set of "who talks to this guard".
  double observed_fraction = 0;
  /// True iff connections stay alive (interception delivered traffic).
  bool connection_survives = false;
  bgp::AttackOutcome outcome;
};

/// Runs `spec` and evaluates it against a population of client ASes.
[[nodiscard]] HijackAnalysisResult AnalyzeHijack(
    const bgp::AsGraph& graph, const bgp::AttackSpec& spec,
    std::span<const bgp::AsNumber> client_ases);

/// Configuration of a correlation-deanonymization experiment.
struct DeanonExperimentParams {
  std::size_t candidate_clients = 10;
  CorrelationParams correlation{};
  /// Per-client variations of size, delays, rates and start time are
  /// derived with fixed spreads (attack_analysis.cpp).
  traffic::FlowSimParams base_flow{};
  std::uint64_t seed = 7;
};

struct DeanonResult {
  std::size_t target = 0;     ///< index of the true client
  std::size_t matched = 0;    ///< index the attack picked
  bool success = false;
  double target_correlation = 0;
  double runner_up_correlation = 0;
  std::vector<double> correlations;
};

/// One experiment under each (entry view, exit view): every cell matches
/// the same target against the same candidates, off the same taps.
struct DeanonViews {
  std::array<DeanonResult, 4> cells;  ///< data/data, data/acks, acks/data, acks/acks
  [[nodiscard]] const DeanonResult& At(SegmentView entry, SegmentView exit) const {
    return cells[2 * static_cast<std::size_t>(entry) + static_cast<std::size_t>(exit)];
  }
};

/// Simulates each candidate flow once and runs the matching attack under
/// every observation view. Throws std::invalid_argument if
/// candidate_clients == 0.
[[nodiscard]] DeanonViews RunCorrelationDeanonymization(
    const DeanonExperimentParams& params);

/// Mean fraction of ASes able to deanonymize under each observation model,
/// across randomly sampled (client, guard, exit, destination) tuples.
struct AsymmetricGainResult {
  double mean_fraction_symmetric = 0;
  double mean_fraction_any_direction = 0;
  /// Mean number of compromising ASes per sampled circuit.
  double mean_count_symmetric = 0;
  double mean_count_any_direction = 0;
  /// Fraction of sampled circuits with at least one compromising AS.
  double circuits_observed_symmetric = 0;
  double circuits_observed_any_direction = 0;
  /// Mean of per-sample (any / max(symmetric, 1 AS)) ratios, over samples
  /// where the any-direction model finds at least one observer (1.0 when
  /// no sample does).
  double mean_gain = 0;
  std::size_t samples = 0;
};

/// `threads` (0 = hardware concurrency) parallelizes the per-sample
/// exposure computations; tuples are drawn serially up front and the means
/// accumulate in sample order, so the result is byte-identical for every
/// value.
[[nodiscard]] AsymmetricGainResult ComputeAsymmetricGain(
    ExposureAnalyzer& analyzer, std::size_t total_as_count,
    std::span<const bgp::AsNumber> client_ases,
    std::span<const bgp::AsNumber> guard_ases,
    std::span<const bgp::AsNumber> exit_ases,
    std::span<const bgp::AsNumber> dest_ases, std::size_t samples, std::uint64_t seed,
    std::size_t threads = 1);

}  // namespace quicksand::core
