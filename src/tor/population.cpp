#include "tor/population.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicksand::tor {

namespace {

// Population telemetry (pop.*) is registered obs::Stability::kRun, lazily
// on first population work: a resumed sweep skips the shards it loaded, so
// these tallies vary with where a run was killed.
struct PopMetrics {
  obs::Counter& clients_simulated = obs::MetricsRegistry::Global().GetCounter(
      "pop.clients_simulated", obs::Stability::kRun);
  obs::Counter& rotations =
      obs::MetricsRegistry::Global().GetCounter("pop.rotations", obs::Stability::kRun);
  obs::Counter& circuits_built = obs::MetricsRegistry::Global().GetCounter(
      "pop.circuits_built", obs::Stability::kRun);
  obs::Gauge& peak_shard_clients = obs::MetricsRegistry::Global().GetGauge(
      "pop.peak_shard_clients", obs::Stability::kRun);

  static PopMetrics& Get() {
    static PopMetrics metrics;
    return metrics;
  }
};

}  // namespace

ClientPopulation::ClientPopulation(const PathSelector& selector,
                                   PopulationConfig config,
                                   std::vector<std::uint32_t> client_as_ids,
                                   std::vector<netbase::Rng> rngs,
                                   const CircuitConstraint* constraint)
    : selector_(&selector),
      config_(config),
      constraint_(constraint),
      guard_set_size_(selector.config().guard_set_size),
      client_as_ids_(std::move(client_as_ids)),
      rngs_(std::move(rngs)) {
  if (client_as_ids_.size() != rngs_.size()) {
    throw std::invalid_argument("ClientPopulation: as_ids/rngs size mismatch");
  }
  if (guard_set_size_ == 0) {
    throw std::invalid_argument("ClientPopulation: guard_set_size must be >= 1");
  }
  PopMetrics& metrics = PopMetrics::Get();
  metrics.clients_simulated.Increment(rngs_.size());
  // Shard-residency high-water mark (kRun: scheduling may interleave
  // shards, so last-max-wins is fine).
  if (static_cast<std::int64_t>(rngs_.size()) > metrics.peak_shard_clients.value()) {
    metrics.peak_shard_clients.Set(static_cast<std::int64_t>(rngs_.size()));
  }
  guard_slots_.resize(rngs_.size() * guard_set_size_);
  drawn_.resize(guard_set_size_);
  guards_chosen_at_.assign(rngs_.size(), 0);
  for (std::size_t c = 0; c < rngs_.size(); ++c) PickGuardSetInto(c);
}

ClientPopulation ClientPopulation::ForShard(const PathSelector& selector,
                                            PopulationConfig config,
                                            std::span<const std::uint32_t> client_as_ids,
                                            std::uint64_t seed,
                                            std::size_t first_client,
                                            const CircuitConstraint* constraint) {
  // Re-derive the global serial fork sequence and keep this shard's
  // window: skipping a fork consumes exactly one root draw, same as
  // taking it, so client g's substream is identical under any split.
  netbase::Rng root(seed);
  for (std::size_t g = 0; g < first_client; ++g) (void)root();
  std::vector<netbase::Rng> rngs;
  rngs.reserve(client_as_ids.size());
  for (std::size_t i = 0; i < client_as_ids.size(); ++i) rngs.push_back(root.Fork());
  return ClientPopulation(selector, config,
                          {client_as_ids.begin(), client_as_ids.end()},
                          std::move(rngs), constraint);
}

std::vector<std::size_t> ClientPopulation::GuardSetOf(std::size_t client) const {
  std::vector<std::size_t> out;
  out.reserve(guard_set_size_);
  for (std::size_t k = 0; k < guard_set_size_; ++k) {
    out.push_back(guard_slots_[client * guard_set_size_ + k]);
  }
  return out;
}

void ClientPopulation::PickGuardSetInto(std::size_t client) {
  if (!selector_->DrawGuardSet(selector_->guard_table(), rngs_[client], constraint_,
                               drawn_)) {
    throw std::runtime_error(
        "ClientPopulation: guard candidates exhausted (weights/16s/constraint)");
  }
  std::uint32_t* slots = guard_slots_.data() + client * guard_set_size_;
  for (std::size_t k = 0; k < guard_set_size_; ++k) {
    slots[k] = static_cast<std::uint32_t>(drawn_[k]);
  }
}

std::size_t ClientPopulation::RotateExpired(netbase::SimTime now) {
  std::size_t rotated = 0;
  for (std::size_t c = 0; c < rngs_.size(); ++c) {
    if (now.seconds - guards_chosen_at_[c] < config_.guard_lifetime_s) continue;
    PickGuardSetInto(c);
    guards_chosen_at_[c] = now.seconds;
    ++rotated;
  }
  if (rotated > 0) {
    rotations_ += rotated;
    PopMetrics::Get().rotations.Increment(rotated);
  }
  return rotated;
}

void ClientPopulation::BuildCircuits(std::span<Circuit> out) {
  if (out.size() != rngs_.size()) {
    throw std::invalid_argument("BuildCircuits: out span must have size() entries");
  }
  for (std::size_t c = 0; c < rngs_.size(); ++c) {
    const std::span<const std::uint32_t> guards(guard_slots_.data() + c * guard_set_size_,
                                                guard_set_size_);
    const PathSelector::CircuitDraw draw =
        selector_->DrawCircuit(guards, rngs_[c], constraint_);
    if (!draw.circuit) {
      throw std::runtime_error("BuildCircuits: no valid circuit after bounded retries");
    }
    out[c] = *draw.circuit;
  }
  circuits_ += out.size();
  PopMetrics::Get().circuits_built.Increment(out.size());
}

}  // namespace quicksand::tor
