#include "core/population_exposure.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/adversary.hpp"
#include "exec/parallel.hpp"
#include "obs/span.hpp"
#include "tor/population.hpp"

namespace quicksand::core {

MaliciousMarkResult MarkMaliciousByBandwidth(const tor::Consensus& consensus,
                                             double bandwidth_fraction,
                                             netbase::Rng& rng) {
  // Negated so that NaN fails too: with a NaN target the loop below never
  // breaks and marks every relay.
  if (!(bandwidth_fraction >= 0 && bandwidth_fraction <= 1)) {
    throw std::invalid_argument("MarkMaliciousByBandwidth: fraction outside [0,1]");
  }
  const auto& relays = consensus.relays();
  MaliciousMarkResult result;
  result.malicious.assign(relays.size(), false);
  std::vector<std::size_t> order(relays.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const double target =
      bandwidth_fraction * static_cast<double>(consensus.TotalBandwidth());
  double owned = 0;
  for (std::size_t index : order) {
    if (owned >= target) break;
    result.malicious[index] = true;
    owned += relays[index].bandwidth_kbs;
    ++result.relays;
    if (relays[index].IsGuard()) ++result.guards;
    if (relays[index].IsExit()) ++result.exits;
  }
  return result;
}

namespace {

/// Time between a client's circuits: one a day.
constexpr std::int64_t kInstanceIntervalS = netbase::duration::kDay;

/// Per-shard outcome of the population sweep: each client's first
/// compromised day (params.days = never) plus work tallies.
struct ShardOutcome {
  std::vector<std::uint32_t> first_day;
  std::uint64_t circuits = 0;
  std::uint64_t rotations = 0;
};

void EncodeShard(const ShardOutcome& outcome, ckpt::PayloadWriter& payload) {
  payload.U64(outcome.first_day.size());
  for (std::uint32_t day : outcome.first_day) payload.U64(day);
  payload.U64(outcome.circuits).U64(outcome.rotations);
}

ShardOutcome DecodeShard(ckpt::PayloadReader& payload) {
  ShardOutcome outcome;
  outcome.first_day.resize(payload.U64());
  for (std::uint32_t& day : outcome.first_day) {
    day = static_cast<std::uint32_t>(payload.U64());
  }
  outcome.circuits = payload.U64();
  outcome.rotations = payload.U64();
  return outcome;
}

}  // namespace

PopulationExposureResult SimulatePopulationExposure(
    const tor::PathSelector& selector, std::span<const bgp::AsNumber> client_ases,
    const PopulationExposureParams& params) {
  const obs::ScopedSpan span("core.population_exposure");
  if (params.clients == 0 || params.days == 0) {
    throw std::invalid_argument("SimulatePopulationExposure: need clients and days");
  }
  if (client_ases.empty()) {
    throw std::invalid_argument("SimulatePopulationExposure: empty client AS pool");
  }
  const std::size_t shard_clients = std::max<std::size_t>(1, params.shard_clients);

  netbase::Rng rng(params.seed);
  const MaliciousMarkResult marked = MarkMaliciousByBandwidth(
      selector.consensus(), params.malicious_bandwidth_fraction, rng);
  // The population substream root is drawn *after* the marking so the two
  // streams never overlap; every shard re-derives its clients' substreams
  // from this one seed (ClientPopulation::ForShard), which is what makes
  // the sweep byte-identical across shard splits and thread counts.
  const std::uint64_t substream_seed = rng();

  const tor::PopulationConfig population_config{params.guard_lifetime_s};
  const std::size_t shards = (params.clients + shard_clients - 1) / shard_clients;
  const std::size_t pool = client_ases.size();

  const std::vector<ShardOutcome> outcomes = ckpt::CheckpointedMap(
      params.stage, params.threads, shards,
      [&](std::size_t shard) {
        const std::size_t first = shard * shard_clients;
        const std::size_t count = std::min(shard_clients, params.clients - first);
        std::vector<std::uint32_t> as_ids(count);
        for (std::size_t i = 0; i < count; ++i) {
          as_ids[i] = static_cast<std::uint32_t>((first + i) % pool);
        }
        tor::ClientPopulation population = tor::ClientPopulation::ForShard(
            selector, population_config, as_ids, substream_seed, first);

        ShardOutcome outcome;
        outcome.first_day.assign(count, static_cast<std::uint32_t>(params.days));
        std::vector<tor::Circuit> circuits(count);
        for (std::size_t day = 0; day < params.days; ++day) {
          const netbase::SimTime now{static_cast<std::int64_t>(day) * kInstanceIntervalS};
          population.RotateExpired(now);
          population.BuildCircuits(circuits);
          for (std::size_t c = 0; c < count; ++c) {
            if (outcome.first_day[c] != params.days) continue;
            if (marked.malicious[circuits[c].guard] &&
                marked.malicious[circuits[c].exit]) {
              outcome.first_day[c] = static_cast<std::uint32_t>(day);
            }
          }
        }
        outcome.circuits = population.circuits_built();
        outcome.rotations = population.rotations();
        return outcome;
      },
      EncodeShard, DecodeShard);

  PopulationExposureResult result;
  result.clients = params.clients;
  result.malicious_relays = marked.relays;
  result.malicious_guards = marked.guards;
  result.malicious_exits = marked.exits;

  // Combine in shard (= global client) order: the daily compromise curve
  // and per-AS tallies are plain integer sums, so any schedule that
  // produced the shard outcomes yields the same bytes here.
  std::vector<std::size_t> newly_compromised(params.days, 0);
  std::vector<std::size_t> as_clients(pool, 0);
  std::vector<std::size_t> as_compromised(pool, 0);
  std::size_t global_client = 0;
  for (const ShardOutcome& outcome : outcomes) {
    result.circuits += outcome.circuits;
    result.rotations += outcome.rotations;
    for (std::uint32_t day : outcome.first_day) {
      const std::size_t as_slot = global_client % pool;
      ++as_clients[as_slot];
      if (day < params.days) {
        ++newly_compromised[day];
        ++as_compromised[as_slot];
      }
      ++global_client;
    }
  }

  result.cumulative_compromised.reserve(params.days);
  std::size_t compromised_clients = 0;
  for (std::size_t day = 0; day < params.days; ++day) {
    compromised_clients += newly_compromised[day];
    result.cumulative_compromised.push_back(static_cast<double>(compromised_clients) /
                                            static_cast<double>(params.clients));
  }
  result.final_fraction = result.cumulative_compromised.back();

  // Per-AS tallies, merged across duplicate pool entries and sorted by AS.
  std::vector<ClientAsExposure> per_as;
  per_as.reserve(pool);
  for (std::size_t slot = 0; slot < pool; ++slot) {
    if (as_clients[slot] == 0) continue;
    per_as.push_back({client_ases[slot], as_clients[slot], as_compromised[slot], 0});
  }
  std::sort(per_as.begin(), per_as.end(),
            [](const ClientAsExposure& a, const ClientAsExposure& b) {
              return a.as < b.as;
            });
  for (std::size_t i = 0; i < per_as.size();) {
    std::size_t j = i + 1;
    while (j < per_as.size() && per_as[j].as == per_as[i].as) {
      per_as[i].clients += per_as[j].clients;
      per_as[i].compromised += per_as[j].compromised;
      ++j;
    }
    per_as[i].fraction = static_cast<double>(per_as[i].compromised) /
                         static_cast<double>(per_as[i].clients);
    if (j != i + 1) per_as.erase(per_as.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                 per_as.begin() + static_cast<std::ptrdiff_t>(j));
    ++i;
  }
  result.per_as = std::move(per_as);

  result.fraction_histogram.assign(20, 0);
  for (const ClientAsExposure& entry : result.per_as) {
    const auto bucket = static_cast<std::size_t>(entry.fraction * 20.0);
    ++result.fraction_histogram[std::min<std::size_t>(bucket, 19)];
  }
  return result;
}

PopulationGainResult ComputePopulationAsymmetricGain(
    ExposureAnalyzer& analyzer, std::size_t total_as_count,
    std::span<const bgp::AsNumber> client_ases,
    std::span<const bgp::AsNumber> guard_ases,
    std::span<const bgp::AsNumber> exit_ases,
    std::span<const bgp::AsNumber> dest_ases, std::size_t samples_per_as,
    std::uint64_t seed, std::size_t threads) {
  if (client_ases.empty() || guard_ases.empty() || exit_ases.empty() ||
      dest_ases.empty()) {
    throw std::invalid_argument("ComputePopulationAsymmetricGain: empty AS pools");
  }
  if (samples_per_as == 0) {
    throw std::invalid_argument("ComputePopulationAsymmetricGain: zero samples");
  }
  const obs::ScopedSpan span("core.population_gain");

  // One substream per client AS, forked serially in input order; each AS's
  // tuples come only from its own stream, so the per-AS scores are
  // independent of scheduling.
  netbase::Rng root(seed);
  std::vector<netbase::Rng> as_rngs;
  as_rngs.reserve(client_ases.size());
  for (std::size_t i = 0; i < client_ases.size(); ++i) as_rngs.push_back(root.Fork());

  PopulationGainResult result;
  result.samples_per_as = samples_per_as;
  result.per_as = exec::ParallelMap(
      threads, client_ases.size(), [&](std::size_t i) {
        netbase::Rng as_rng = as_rngs[i];
        double sum_sym = 0, sum_any = 0, sum_gain = 0;
        std::size_t gain_samples = 0;
        for (std::size_t s = 0; s < samples_per_as; ++s) {
          const bgp::AsNumber guard =
              guard_ases[as_rng.UniformInt(0, guard_ases.size() - 1)];
          const bgp::AsNumber exit =
              exit_ases[as_rng.UniformInt(0, exit_ases.size() - 1)];
          const bgp::AsNumber dest =
              dest_ases[as_rng.UniformInt(0, dest_ases.size() - 1)];
          const SegmentExposure exposure =
              analyzer.InstantExposure(client_ases[i], guard, exit, dest);
          const std::size_t sym =
              CompromisingAses(exposure, ObservationModel::kSymmetric).size();
          const std::size_t any =
              CompromisingAses(exposure, ObservationModel::kAnyDirection).size();
          sum_sym += static_cast<double>(sym) / static_cast<double>(total_as_count);
          sum_any += static_cast<double>(any) / static_cast<double>(total_as_count);
          if (any != 0) {
            sum_gain +=
                static_cast<double>(any) / std::max<double>(1.0, static_cast<double>(sym));
            ++gain_samples;
          }
        }
        const auto n = static_cast<double>(samples_per_as);
        return PopulationGainEntry{
            client_ases[i], sum_sym / n, sum_any / n,
            gain_samples == 0 ? 1.0 : sum_gain / static_cast<double>(gain_samples)};
      });

  double gain_total = 0;
  for (const PopulationGainEntry& entry : result.per_as) {
    gain_total += entry.mean_gain;
    result.max_gain = std::max(result.max_gain, entry.mean_gain);
  }
  result.mean_gain = gain_total / static_cast<double>(result.per_as.size());
  return result;
}

}  // namespace quicksand::core
