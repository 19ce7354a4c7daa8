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

/// Tuning knobs for dynamics generation.
struct DynamicsParams {
  /// Length of the measurement window in seconds (default: the paper's month).
  std::int64_t window = netbase::duration::kMonth;
  /// Per-prefix event count over the window: round(Pareto(xmin, alpha)) - 1.
  double event_pareto_xmin = 2.6;
  double event_pareto_alpha = 1.15;
  /// Event-count multiplier for prefixes originated by hosting ASes.
  double hosting_churn_multiplier = 3.8;
  /// Multiplier for prefixes originated by the transit core (tier-1 and
  /// transit ASes): infrastructure address space is markedly more stable
  /// than edge allocations in real tables.
  double core_churn_multiplier = 1.0;
  /// Hard cap on events per prefix (tail safety).
  std::size_t max_events_per_prefix = 6000;
  /// Base number of alternate routing states derived per prefix. Unstable
  /// prefixes explore more paths: one extra alternate per
  /// ten scheduled events is added, capped below.
  std::size_t alternates_per_prefix = 3;
  std::size_t max_alternates_per_prefix = 18;
  /// Probability an event is a permanent shift rather than a transient.
  double permanent_shift_prob = 0.12;
  /// Probability a transient's dwell is drawn from the short distribution.
  double short_dwell_prob = 0.35;
  double short_dwell_mean_s = 110;          ///< mean of sub-threshold blips
  double long_dwell_mean_s = 4.0 * 3600.0;  ///< mean of long reroutes
  /// Probability a transition additionally exposes a convergence path.
  double convergence_prob = 0.35;
  /// Expected session resets per session over the window.
  double session_resets_per_month = 2.0;
  /// Fraction of a resetting session's table that flaps via a backup path.
  double reset_backup_flap_prob = 0.25;
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
/// from every collector session. Deterministic for fixed inputs.
[[nodiscard]] GeneratedDynamics GenerateDynamics(const Topology& topology,
                                                 const CollectorSet& collectors,
                                                 const DynamicsParams& params);

}  // namespace quicksand::bgp
