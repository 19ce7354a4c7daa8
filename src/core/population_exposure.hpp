#pragma once

// Population-scale exposure aggregation over the tor::ClientPopulation
// engine (Sections 2 and 3.3 at population scale).
//
// SimulatePopulationExposure drives anything from a few hundred clients (the
// Section 2 guard-policy sweep) to millions, sharded through
// ckpt::CheckpointedMap so a population sweep is resumable mid-run and
// byte-identical at every thread count and shard split (client substreams
// are re-derived per shard via ClientPopulation::ForShard). On top of the
// compromise trajectory it aggregates *per-client-AS* distributions — the
// paper's point estimates ("x% of clients compromised after 360 days",
// "mean asymmetric gain ~2x") become histograms over where the clients
// actually live.

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/path.hpp"
#include "ckpt/sweep.hpp"
#include "core/exposure.hpp"
#include "netbase/rng.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::core {

/// Relays marked malicious until the adversary owns a bandwidth share.
struct MaliciousMarkResult {
  std::vector<bool> malicious;  ///< per relay index
  std::size_t relays = 0;
  std::size_t guards = 0;
  std::size_t exits = 0;
};

/// Marks relays malicious in shuffled order until `bandwidth_fraction` of
/// the consensus total bandwidth is owned (random order: the adversary
/// stands up mid-sized relays, not only the biggest ones). Throws
/// std::invalid_argument on a fraction outside [0, 1], NaN included.
[[nodiscard]] MaliciousMarkResult MarkMaliciousByBandwidth(
    const tor::Consensus& consensus, double bandwidth_fraction, netbase::Rng& rng);

struct PopulationExposureParams {
  std::size_t clients = 100000;
  std::size_t days = 30;  ///< one circuit per client per day
  /// Guard rotation period; 0 re-draws every guard set before each
  /// circuit (no guard persistence, pre-guard Tor).
  std::int64_t guard_lifetime_s = 30 * netbase::duration::kDay;
  /// Fraction of total relay bandwidth the adversary controls.
  double malicious_bandwidth_fraction = 0.1;
  std::uint64_t seed = 1;
  /// Worker threads for the shard sweep (0 = hardware concurrency);
  /// byte-identical for every value.
  std::size_t threads = 1;
  /// Clients per shard (shard = unit of checkpointing and scheduling);
  /// byte-identical for every value >= 1.
  std::size_t shard_clients = 65536;
  /// Checkpointing for the shard sweep (empty snapshot_path = off); pass
  /// bench::BenchContext::Stage output to make the sweep resumable.
  ckpt::StageOptions stage{};
};

/// One client AS's compromise tally.
struct ClientAsExposure {
  bgp::AsNumber as = 0;
  std::size_t clients = 0;
  std::size_t compromised = 0;  ///< clients with >= 1 compromised circuit
  double fraction = 0;          ///< compromised / clients
};

struct PopulationExposureResult {
  std::size_t clients = 0;
  std::uint64_t circuits = 0;
  std::uint64_t rotations = 0;
  std::size_t malicious_relays = 0;
  std::size_t malicious_guards = 0;
  std::size_t malicious_exits = 0;
  /// Element d: fraction of clients compromised within days [0, d].
  std::vector<double> cumulative_compromised;
  double final_fraction = 0;
  /// Per client AS, ascending by AS number.
  std::vector<ClientAsExposure> per_as;
  /// 20-bucket histogram over per-AS compromise fractions (bucket b counts
  /// ASes with fraction in [b/20, (b+1)/20); fraction 1.0 lands in the
  /// last bucket).
  std::vector<std::size_t> fraction_histogram;
};

/// Simulates `clients` clients (client c homed in
/// `client_ases[c % client_ases.size()]`) for `days` circuits each against
/// a bandwidth-fraction adversary, and aggregates compromise per day and
/// per client AS. Guard-set size comes from the selector's config. Throws
/// std::invalid_argument on zero clients/days or an empty AS pool.
[[nodiscard]] PopulationExposureResult SimulatePopulationExposure(
    const tor::PathSelector& selector, std::span<const bgp::AsNumber> client_ases,
    const PopulationExposureParams& params);

/// Per-client-AS asymmetric gain (Section 3.3): the population analogue of
/// ComputeAsymmetricGain, scoring `samples_per_as` sampled circuits for
/// every client AS instead of pooling them.
struct PopulationGainEntry {
  bgp::AsNumber client_as = 0;
  double mean_fraction_symmetric = 0;
  double mean_fraction_any_direction = 0;
  /// Mean per-sample any/symmetric ratio over samples with at least one
  /// any-direction observer (1.0 when no sample has one).
  double mean_gain = 0;
};

struct PopulationGainResult {
  /// One entry per element of `client_ases`, in input order.
  std::vector<PopulationGainEntry> per_as;
  double mean_gain = 0;  ///< mean of per-AS mean gains
  double max_gain = 0;
  std::size_t samples_per_as = 0;
};

/// Per-AS substreams are forked serially in `client_ases` order and the
/// per-AS scores computed through exec::ParallelMap, so the result is
/// byte-identical for every thread count. Throws std::invalid_argument on
/// empty pools or zero samples.
[[nodiscard]] PopulationGainResult ComputePopulationAsymmetricGain(
    ExposureAnalyzer& analyzer, std::size_t total_as_count,
    std::span<const bgp::AsNumber> client_ases,
    std::span<const bgp::AsNumber> guard_ases,
    std::span<const bgp::AsNumber> exit_ases,
    std::span<const bgp::AsNumber> dest_ases, std::size_t samples_per_as,
    std::uint64_t seed, std::size_t threads = 1);

}  // namespace quicksand::core
