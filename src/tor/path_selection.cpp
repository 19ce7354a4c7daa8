#include "tor/path_selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicksand::tor {

namespace {

struct PathMetrics {
  obs::Counter& guard_sets_picked =
      obs::MetricsRegistry::Global().GetCounter("tor.path.guard_sets_picked");
  obs::Counter& circuits_built =
      obs::MetricsRegistry::Global().GetCounter("tor.path.circuits_built");
  obs::Counter& circuit_attempts =
      obs::MetricsRegistry::Global().GetCounter("tor.path.circuit_attempts");
  obs::Counter& build_failures =
      obs::MetricsRegistry::Global().GetCounter("tor.path.build_failures");

  static PathMetrics& Get() {
    static PathMetrics metrics;
    return metrics;
  }
};

// Alias builds count next to the population engine's telemetry, registered
// kRun like it.
obs::Counter& AliasBuildCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "pop.alias_tables_built", obs::Stability::kRun);
  return counter;
}

/// The alias table over `candidates`, or an empty one when no candidate
/// carries weight: draws from it find nothing, so PickGuardSet and
/// BuildCircuit throw std::runtime_error.
AliasTable TableOrEmpty(const std::vector<std::size_t>& candidates,
                        std::span<const double> weights) {
  if (std::all_of(weights.begin(), weights.end(), [](double w) { return w == 0; })) {
    return {};
  }
  return AliasTable::Build(candidates, weights);
}

}  // namespace

AliasTable AliasTable::Build(std::vector<std::size_t> candidates,
                             std::span<const double> weights) {
  if (candidates.size() != weights.size()) {
    throw std::invalid_argument("AliasTable: candidates/weights size mismatch");
  }
  AliasTable table;
  table.candidates_ = std::move(candidates);
  const std::size_t n = table.candidates_.size();
  if (n == 0) return table;

  double total = 0;
  for (const double w : weights) {
    if (!std::isfinite(w)) throw std::invalid_argument("AliasTable: non-finite weight");
    if (w < 0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (!std::isfinite(total)) throw std::invalid_argument("AliasTable: weight total overflows");
  if (total <= 0) throw std::invalid_argument("AliasTable: non-positive total weight");

  table.mass_.resize(n);
  table.accept_.resize(n);
  table.alias_.resize(n);

  // Vose's method, deterministic: scaled weights partitioned into under-
  // and over-full columns (ascending slot order), pairing always pops the
  // backs. Every column ends with an acceptance threshold and an alias.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    table.mass_[i] = weights[i] / total;
    scaled[i] = table.mass_[i] * static_cast<double>(n);
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    table.accept_[s] = scaled[s];
    table.alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are exactly-full columns up to FP rounding.
  for (const std::uint32_t i : large) {
    table.accept_[i] = 1.0;
    table.alias_[i] = i;
  }
  for (const std::uint32_t i : small) {
    table.accept_[i] = 1.0;
    table.alias_[i] = i;
  }
  AliasBuildCounter().Increment();
  return table;
}

std::size_t AliasTable::SampleSlot(netbase::Rng& rng) const {
  if (candidates_.empty()) throw std::logic_error("AliasTable: sample from empty table");
  const std::size_t n = candidates_.size();
  // One draw: the integer part picks the column, the fractional part is
  // the acceptance coin.
  const double x = rng.UniformDouble() * static_cast<double>(n);
  std::size_t slot = static_cast<std::size_t>(x);
  if (slot >= n) slot = n - 1;  // guard the u == 1.0-ulp edge
  const double frac = x - static_cast<double>(slot);
  return frac < accept_[slot] ? slot : alias_[slot];
}

PathSelector::PathSelector(const Consensus& consensus, PathSelectionConfig config)
    : consensus_(&consensus), config_(config) {
  const auto& relays = consensus.relays();
  std::vector<std::size_t> running;
  slash16_.reserve(relays.size());
  bandwidth_.reserve(relays.size());
  for (std::size_t i = 0; i < relays.size(); ++i) {
    slash16_.push_back(relays[i].address.value() >> 16);
    bandwidth_.push_back(relays[i].bandwidth_kbs);
    if (!relays[i].IsRunning()) continue;
    running.push_back(i);
    if (relays[i].IsGuard()) {
      guards_.push_back(i);
      guard_bandwidth_total_ += relays[i].bandwidth_kbs;
    }
    if (relays[i].IsExit()) {
      exits_.push_back(i);
      exit_bandwidth_total_ += relays[i].bandwidth_kbs;
    }
  }
  const auto build = [this](const std::vector<std::size_t>& candidates) {
    std::vector<double> weights;
    weights.reserve(candidates.size());
    for (const std::size_t index : candidates) weights.push_back(bandwidth_[index]);
    return TableOrEmpty(candidates, weights);
  };
  guard_table_ = build(guards_);
  exit_table_ = build(exits_);
  middle_table_ = build(running);
}

bool PathSelector::DrawGuardSet(const AliasTable& table, netbase::Rng& rng,
                                const CircuitConstraint* constraint,
                                std::span<std::size_t> out) const {
  const auto accept = [constraint](std::size_t index) {
    return constraint == nullptr || constraint->AllowGuard(index);
  };
  for (std::size_t k = 0; k < out.size(); ++k) {
    const auto pick = AliasPick(table, rng, out.first(k), accept);
    if (!pick) return false;
    out[k] = *pick;
  }
  return true;
}

std::vector<std::size_t> PathSelector::PickGuardSet(
    netbase::Rng& rng, std::span<const double> weight_multipliers,
    const CircuitConstraint* constraint) const {
  // Multipliers reweight the guard class for this call only: one alias
  // table over bandwidth x multiplier, drawn by the same guard-set draw.
  AliasTable weighted;
  if (!weight_multipliers.empty()) {
    if (weight_multipliers.size() != consensus().size()) {
      throw std::invalid_argument(
          "PickGuardSet: weight_multipliers must align with the relay list");
    }
    std::vector<double> weights;
    weights.reserve(guards_.size());
    for (const std::size_t index : guards_) {
      weights.push_back(bandwidth_[index] * weight_multipliers[index]);
    }
    weighted = TableOrEmpty(guards_, weights);
  }
  std::vector<std::size_t> chosen(config_.guard_set_size);
  if (!DrawGuardSet(weight_multipliers.empty() ? guard_table_ : weighted, rng,
                    constraint, chosen)) {
    throw std::runtime_error(
        "PickGuardSet: guard candidates exhausted (weights/16s/constraint)");
  }
  PathMetrics::Get().guard_sets_picked.Increment();
  return chosen;
}

Circuit PathSelector::BuildCircuit(std::span<const std::size_t> guard_set,
                                   netbase::Rng& rng,
                                   const CircuitConstraint* constraint) const {
  if (guard_set.empty()) throw std::invalid_argument("BuildCircuit: empty guard set");
  for (const std::size_t guard : guard_set) {
    if (guard >= consensus().size()) {
      throw std::invalid_argument("BuildCircuit: guard index outside the consensus");
    }
  }
  PathMetrics& metrics = PathMetrics::Get();
  const CircuitDraw draw = DrawCircuit(guard_set, rng, constraint);
  metrics.circuit_attempts.Increment(static_cast<std::uint64_t>(draw.attempts));
  if (!draw.circuit) {
    metrics.build_failures.Increment();
    throw std::runtime_error("BuildCircuit: no valid circuit after bounded retries");
  }
  ValidateCircuit(*draw.circuit, consensus());
  metrics.circuits_built.Increment();
  return *draw.circuit;
}

double PathSelector::GuardSelectionProbability(std::size_t relay_index) const {
  const auto& relays = consensus().relays();
  if (relay_index >= relays.size() || !relays[relay_index].IsGuard() ||
      !relays[relay_index].IsRunning() || guard_bandwidth_total_ <= 0) {
    return 0;
  }
  return relays[relay_index].bandwidth_kbs / guard_bandwidth_total_;
}

double PathSelector::ExitSelectionProbability(std::size_t relay_index) const {
  const auto& relays = consensus().relays();
  if (relay_index >= relays.size() || !relays[relay_index].IsExit() ||
      !relays[relay_index].IsRunning() || exit_bandwidth_total_ <= 0) {
    return 0;
  }
  return relays[relay_index].bandwidth_kbs / exit_bandwidth_total_;
}

}  // namespace quicksand::tor
