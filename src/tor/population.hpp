#pragma once

// Population-scale client engine: the same relay draws as the scalar
// PathSelector calls, restated as data-parallel sweeps so one consensus
// can drive millions of simulated clients.
//
// ClientPopulation keeps SoA client state (guard slots, rotation
// deadlines, client-AS ids, per-client RNG substreams in parallel arrays)
// and advances it in batched guard-rotation and circuit-building sweeps.
// Every guard set and circuit comes from PathSelector's one guard-set draw
// and one circuit draw (tor/path_selection.hpp), so a one-client
// population and the scalar PickGuardSet / BuildCircuit calls on the same
// substream pick the same relays (tests/tor/population_test.cpp).
//
// Determinism contract (src/exec/parallel.hpp): client substreams are
// forked serially in global client order — ClientPopulation::ForShard
// re-derives any shard's window of that one fork sequence — so sweep
// output is byte-identical for every shard split and thread count.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netbase/rng.hpp"
#include "netbase/sim_time.hpp"
#include "tor/circuit.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::tor {

struct PopulationConfig {
  /// Guard rotation period; Tor 2014 default ~30 days.
  std::int64_t guard_lifetime_s = 30 * netbase::duration::kDay;
};

/// SoA state of a shard of simulated clients over one consensus: guard
/// slots, rotation deadlines, client-AS ids, and per-client RNG
/// substreams in parallel arrays. Guard sets are drawn at construction
/// (the rotation clock starts at SimTime 0); sweeps then advance every
/// client in a batch. The selector must outlive the population.
class ClientPopulation {
 public:
  /// Builds a shard from explicit per-client substreams (parallel to
  /// `client_as_ids`; ids are caller-defined, e.g. indices into an AS
  /// span). `constraint` may be null and must outlive the population.
  ClientPopulation(const PathSelector& selector, PopulationConfig config,
                   std::vector<std::uint32_t> client_as_ids,
                   std::vector<netbase::Rng> rngs,
                   const CircuitConstraint* constraint = nullptr);

  /// Builds the shard covering global clients [first_client,
  /// first_client + as_ids.size()): client g's substream is the g-th
  /// serial fork of Rng(seed), re-derived here so every shard split
  /// yields identical per-client streams.
  [[nodiscard]] static ClientPopulation ForShard(
      const PathSelector& selector, PopulationConfig config,
      std::span<const std::uint32_t> client_as_ids, std::uint64_t seed,
      std::size_t first_client, const CircuitConstraint* constraint = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return rngs_.size(); }
  [[nodiscard]] std::size_t guard_set_size() const noexcept {
    return guard_set_size_;
  }
  [[nodiscard]] std::span<const std::uint32_t> client_as_ids() const noexcept {
    return client_as_ids_;
  }
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }
  [[nodiscard]] std::uint64_t circuits_built() const noexcept { return circuits_; }

  /// Client c's current guard set (copied out of the flat slot array).
  [[nodiscard]] std::vector<std::size_t> GuardSetOf(std::size_t client) const;

  /// Batched rotation sweep: re-draws the guard set of every client whose
  /// set has lived >= guard_lifetime_s at `now` (at most one rotation per
  /// client per sweep; a lifetime of 0 re-draws every sweep). Returns the
  /// number of clients rotated.
  std::size_t RotateExpired(netbase::SimTime now);

  /// Builds one circuit per client into `out` (size() entries): guard
  /// uniform within the client's set, exit and middle alias-drawn under
  /// the /16/distinctness rules and the constraint. Throws
  /// std::runtime_error if a client finds no valid circuit after bounded
  /// attempts.
  void BuildCircuits(std::span<Circuit> out);

 private:
  void PickGuardSetInto(std::size_t client);

  const PathSelector* selector_;
  PopulationConfig config_;
  const CircuitConstraint* constraint_;
  std::size_t guard_set_size_;
  std::vector<std::uint32_t> guard_slots_;     ///< size() * guard_set_size_
  std::vector<std::int64_t> guards_chosen_at_;
  std::vector<std::uint32_t> client_as_ids_;
  std::vector<netbase::Rng> rngs_;
  std::vector<std::size_t> drawn_;  ///< guard-set draw scratch, guard_set_size_
  std::uint64_t rotations_ = 0;
  std::uint64_t circuits_ = 0;
};

}  // namespace quicksand::tor
