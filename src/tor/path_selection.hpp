#pragma once

// Bandwidth-weighted Tor path selection: the one relay-selection engine.
//
// Implements the selection behaviour the paper's analysis depends on:
// relays are chosen with probability proportional to their bandwidth
// weight ("to load balance the network, clients select relays with a
// probability that is proportional to their network capacity"), guards
// come from a small persistent guard set, and circuits obey Tor's
// distinctness and /16 constraints. Countermeasure policies (Section 5)
// plug in through CircuitConstraint and per-guard weight multipliers.
//
// PathSelector partitions one consensus into its guard / exit / running
// candidate classes and builds a Walker/Vose alias table over each class's
// bandwidths in its constructor, so a draw is O(1) instead of a scan over
// the relays. It provides the one guard-set draw (DrawGuardSet) and the
// one circuit draw (DrawCircuit). The scalar PickGuardSet / BuildCircuit
// calls and the vectorized ClientPopulation (tor/population.hpp) both run
// those two draws, so the scalar calls and a one-client population on the
// same substream pick the same relays.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/rng.hpp"
#include "tor/circuit.hpp"
#include "tor/consensus.hpp"

namespace quicksand::tor {

/// Pluggable circuit-building policy hook (used by the Section 5
/// countermeasures). Default-allows everything.
class CircuitConstraint {
 public:
  virtual ~CircuitConstraint() = default;
  /// May this relay serve as the guard of a new circuit?
  [[nodiscard]] virtual bool AllowGuard(std::size_t relay_index) const {
    (void)relay_index;
    return true;
  }
  /// May this exit be combined with this guard?
  [[nodiscard]] virtual bool AllowExitWithGuard(std::size_t exit_index,
                                                std::size_t guard_index) const {
    (void)exit_index;
    (void)guard_index;
    return true;
  }
};

/// Tor's rule that no two circuit relays share an IPv4 /16 always holds.
struct PathSelectionConfig {
  /// Number of guards in a client's guard set (Tor used 3 in 2014).
  std::size_t guard_set_size = 3;
};

/// Walker/Vose alias table over one candidate class: O(1) draws from the
/// distribution proportional to the build weights. Immutable once built.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table for `candidates[i]` drawn with weight `weights[i]`.
  /// Weights must be finite and non-negative with a positive total (unless
  /// the class is empty). Throws std::invalid_argument on size mismatch or
  /// bad weights.
  [[nodiscard]] static AliasTable Build(std::vector<std::size_t> candidates,
                                        std::span<const double> weights);

  [[nodiscard]] bool empty() const noexcept { return candidates_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return candidates_.size(); }
  [[nodiscard]] std::span<const std::size_t> candidates() const noexcept {
    return candidates_;
  }

  /// Draws a slot in [0, size) — one UniformDouble split into column and
  /// coin flip. Throws std::logic_error on an empty table.
  [[nodiscard]] std::size_t SampleSlot(netbase::Rng& rng) const;

  /// Draws a candidate value (relay index).
  [[nodiscard]] std::size_t Sample(netbase::Rng& rng) const {
    return candidates_[SampleSlot(rng)];
  }

  /// Normalized probability mass of slot i (sums to 1 over the table).
  [[nodiscard]] double Probability(std::size_t slot) const {
    return mass_[slot];
  }

 private:
  std::vector<std::size_t> candidates_;  ///< slot -> relay index
  std::vector<double> accept_;           ///< slot -> acceptance threshold
  std::vector<std::uint32_t> alias_;     ///< slot -> alias slot
  std::vector<double> mass_;             ///< slot -> normalized weight
};

/// Bandwidth-weighted relay and circuit selection over one consensus.
/// The consensus must outlive the selector. Immutable after construction,
/// so concurrent draws (each with its own Rng) are safe.
class PathSelector {
 public:
  explicit PathSelector(const Consensus& consensus, PathSelectionConfig config = {});

  [[nodiscard]] const Consensus& consensus() const noexcept { return *consensus_; }
  [[nodiscard]] const PathSelectionConfig& config() const noexcept { return config_; }

  /// Indices of Running relays eligible for each position, ascending.
  [[nodiscard]] std::span<const std::size_t> GuardCandidates() const noexcept {
    return guards_;
  }
  [[nodiscard]] std::span<const std::size_t> ExitCandidates() const noexcept {
    return exits_;
  }

  /// The bandwidth-weighted alias table over the guard candidates.
  [[nodiscard]] const AliasTable& guard_table() const noexcept { return guard_table_; }

  /// Draws a guard set: `guard_set_size` distinct guards, bandwidth-
  /// weighted, optionally modulated by per-relay multipliers (aligned with
  /// the consensus relay list; pass {} for none) and filtered through
  /// `constraint`. Throws std::invalid_argument on misaligned, negative or
  /// non-finite multipliers, and std::runtime_error if too few guards
  /// qualify (including when every multiplied weight is zero).
  [[nodiscard]] std::vector<std::size_t> PickGuardSet(
      netbase::Rng& rng, std::span<const double> weight_multipliers = {},
      const CircuitConstraint* constraint = nullptr) const;

  /// Builds a circuit: guard uniformly from `guard_set`, exit and middle
  /// bandwidth-weighted, obeying distinctness, the /16 rule, and
  /// `constraint`. Throws std::invalid_argument on an empty guard set or a
  /// guard index outside the consensus, and std::runtime_error if no valid
  /// circuit exists after bounded retries.
  [[nodiscard]] Circuit BuildCircuit(std::span<const std::size_t> guard_set,
                                     netbase::Rng& rng,
                                     const CircuitConstraint* constraint = nullptr) const;

  /// Probability that a bandwidth-weighted guard draw lands on `relay`
  /// (0 for non-guards) — used by the analytical anonymity model.
  [[nodiscard]] double GuardSelectionProbability(std::size_t relay_index) const;

  /// Probability that a bandwidth-weighted exit draw lands on `relay`.
  [[nodiscard]] double ExitSelectionProbability(std::size_t relay_index) const;

  /// The one guard-set draw: fills `out` with distinct guards from
  /// `table`, each rejected if it shares identity or (when configured) a
  /// /16 with an earlier pick, or if `constraint` vetoes it. Returns false
  /// when the candidates run out.
  [[nodiscard]] bool DrawGuardSet(const AliasTable& table, netbase::Rng& rng,
                                  const CircuitConstraint* constraint,
                                  std::span<std::size_t> out) const;

  /// Outcome of one circuit draw; `circuit` is empty when every attempt
  /// failed.
  struct CircuitDraw {
    std::optional<Circuit> circuit;
    int attempts = 0;
  };

  /// The one circuit draw: per attempt, a guard uniform within
  /// `guard_set`, then an exit and a middle alias-drawn under the
  /// distinctness and /16 rules and `constraint`. Distinctness, flags and
  /// the /16 rule hold by construction. Templated over the guard-slot type
  /// so ClientPopulation draws straight from its 4-byte slots. Every entry
  /// of `guard_set` must index the consensus.
  template <typename Slot>
  [[nodiscard]] CircuitDraw DrawCircuit(std::span<const Slot> guard_set,
                                        netbase::Rng& rng,
                                        const CircuitConstraint* constraint) const {
    CircuitDraw draw;
    while (draw.attempts < kMaxCircuitAttempts) {
      ++draw.attempts;
      // Guard: uniform among the client's guards (Tor rotates across the
      // small set for availability).
      const std::size_t guard = guard_set[rng.UniformInt(0, guard_set.size() - 1)];
      if (constraint != nullptr && !constraint->AllowGuard(guard)) continue;

      const std::size_t exclude_guard[] = {guard};
      const auto exit =
          AliasPick(exit_table_, rng, exclude_guard, [&](std::size_t index) {
            return constraint == nullptr || constraint->AllowExitWithGuard(index, guard);
          });
      if (!exit) continue;

      const std::size_t exclude_both[] = {guard, *exit};
      const auto middle = AliasPick(middle_table_, rng, exclude_both);
      if (!middle) continue;

      draw.circuit = Circuit{guard, *middle, *exit};
      break;
    }
    return draw;
  }

  /// O(1) alias draw with bounded rejection against `exclude` (identity
  /// and shared /16) and `accept`. Rejection against a
  /// subset renormalizes exactly, so the conditional distribution is the
  /// bandwidth distribution over the survivors; a pathological acceptance
  /// set falls back to one exact residual scan. Returns nullopt when
  /// nothing qualifies.
  template <typename Accept>
  [[nodiscard]] std::optional<std::size_t> AliasPick(
      const AliasTable& table, netbase::Rng& rng,
      std::span<const std::size_t> exclude, Accept&& accept) const {
    if (table.empty()) return std::nullopt;
    constexpr int kRejectionBound = 64;
    for (int attempt = 0; attempt < kRejectionBound; ++attempt) {
      const std::size_t index = table.Sample(rng);
      if (Excluded(index, exclude) || !accept(index)) continue;
      return index;
    }
    return ResidualScan(table, rng, exclude, accept);
  }

  [[nodiscard]] std::optional<std::size_t> AliasPick(
      const AliasTable& table, netbase::Rng& rng,
      std::span<const std::size_t> exclude) const {
    return AliasPick(table, rng, exclude, [](std::size_t) { return true; });
  }

 private:
  /// Attempts per circuit draw before it gives up.
  static constexpr int kMaxCircuitAttempts = 64;

  [[nodiscard]] bool Excluded(std::size_t index,
                              std::span<const std::size_t> exclude) const noexcept {
    for (const std::size_t e : exclude) {
      if (index == e) return true;
      if (slash16_[index] == slash16_[e]) return true;
    }
    return false;
  }

  template <typename Accept>
  [[nodiscard]] std::optional<std::size_t> ResidualScan(
      const AliasTable& table, netbase::Rng& rng,
      std::span<const std::size_t> exclude, Accept&& accept) const {
    std::vector<double> weights;
    weights.reserve(table.size());
    double total = 0;
    for (std::size_t slot = 0; slot < table.size(); ++slot) {
      const std::size_t index = table.candidates()[slot];
      double weight = table.Probability(slot);
      if (Excluded(index, exclude) || !accept(index)) weight = 0;
      weights.push_back(weight);
      total += weight;
    }
    if (total <= 0) return std::nullopt;
    return table.candidates()[rng.WeightedIndex(weights)];
  }

  const Consensus* consensus_;
  PathSelectionConfig config_;
  std::vector<std::size_t> guards_;
  std::vector<std::size_t> exits_;
  std::vector<std::uint32_t> slash16_;  ///< per relay: address >> 16
  std::vector<double> bandwidth_;       ///< per relay: bandwidth as double
  double guard_bandwidth_total_ = 0;
  double exit_bandwidth_total_ = 0;
  AliasTable guard_table_;
  AliasTable exit_table_;
  AliasTable middle_table_;  ///< over every Running relay
};

}  // namespace quicksand::tor
