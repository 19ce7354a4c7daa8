#pragma once

// Month-long BGP routing dynamics over a synthetic topology.
//
// This module stands in for the paper's RIPE RIS dataset. For every
// originated prefix it derives a set of *mechanistically grounded*
// alternative routing states (single-link failures on observed paths and
// per-AS policy shifts), then plays a stochastic event timeline over the
// measurement window:
//
//   * transient path changes: switch to an alternate state for an
//     exponential dwell (a mixture of sub-5-minute blips and multi-hour
//     reroutes), then revert;
//   * permanent shifts: the alternate becomes the new steady state;
//   * BGP convergence exploration: some transitions briefly expose a third
//     path before settling (Section 3.1's "far-flung ASes get a look");
//   * session resets: a session re-announces its whole table, partly via
//     transient backup paths — the "artificial updates" of [31] that the
//     session-reset filter must remove.
//
// Per-prefix event intensity is heavy-tailed (Pareto), and prefixes
// originated by hosting ASes — where Tor relays concentrate — churn more,
// which is the real-world mechanism behind the paper's Figure 3.

#include <cstdint>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/topology_gen.hpp"
#include "bgp/update.hpp"
#include "netbase/sim_time.hpp"

namespace quicksand::bgp {

/// Settings of dynamics generation. The event model's calibration (event
/// counts, dwell times, alternates, reset flaps) is fixed: named constants
/// beside the draws that use them in dynamics_gen.cpp.
struct DynamicsParams {
  /// Length of the measurement window in seconds (default: the paper's
  /// month). At least two hours: session resets fall at least an hour
  /// inside either end, and GenerateDynamics throws std::invalid_argument
  /// on a shorter window.
  std::int64_t window = netbase::duration::kMonth;
  /// Probability a transition additionally exposes a convergence path.
  double convergence_prob = 0.35;
  /// Expected session resets per session over the window.
  double session_resets_per_month = 2.0;
  std::uint64_t seed = 1234;
  /// Worker threads for the per-prefix generation loop (0 = hardware
  /// concurrency). Output is byte-identical for every value: each prefix
  /// draws from its own pre-forked Rng substream and results merge in
  /// prefix order (see src/exec/parallel.hpp).
  std::size_t threads = 1;
};

/// Ground truth per prefix, for calibration checks and tests.
struct PrefixDynamicsTruth {
  netbase::Prefix prefix;
  AsNumber origin = 0;
  bool hosting_origin = false;
  std::size_t scheduled_events = 0;  ///< events drawn (before timeline pruning)
  std::size_t emitted_transitions = 0;
};

/// The generated measurement dataset.
struct GeneratedDynamics {
  /// The t=0 routing table per session (one announce per visible prefix).
  std::vector<BgpUpdate> initial_rib;
  /// The month of updates, time-ordered, including reset artifacts.
  std::vector<BgpUpdate> updates;
  std::vector<PrefixDynamicsTruth> truth;
};

/// Generates a month of updates for every prefix in the topology as seen
/// from every collector session. Deterministic for fixed inputs. Throws
/// std::invalid_argument if params.window is under two hours (7200 s).
[[nodiscard]] GeneratedDynamics GenerateDynamics(const Topology& topology,
                                                 const CollectorSet& collectors,
                                                 const DynamicsParams& params);

}  // namespace quicksand::bgp
