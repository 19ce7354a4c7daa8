#pragma once

// Session-reset ("table transfer") artifact removal, after Zhang et al.,
// "Identifying BGP routing table transfer" (MineNet 2005) — the cleaning
// step the paper applies before any churn measurement ("we removed any
// artificial updates caused by BGP session resets").
//
// Two artifact classes are removed:
//   * duplicate announcements — an announce that does not change the
//     session's current path for the prefix;
//   * table-transfer bursts — windows in which a session re-announces a
//     large share of its table; the burst is collapsed to its net effect
//     (usually nothing), discarding the transient backup-path flaps that
//     a naive analysis would count as path changes.

#include <cstdint>
#include <vector>

#include "bgp/feed.hpp"

namespace quicksand::bgp {

/// Burst-size thresholds. A burst is detected in a sliding window of
/// fixed length and extended by a fixed grace period (session_reset.cpp).
struct ResetFilterParams {
  /// A window is a burst if it contains at least this many announcements...
  std::size_t min_burst_updates = 40;
  /// ...and at least this fraction of the session's known prefixes.
  double burst_table_fraction = 0.20;
};

/// What the filter did, for reporting and the Fig. 3 (left) ablation.
struct ResetFilterStats {
  std::size_t input_updates = 0;
  std::size_t duplicates_removed = 0;
  std::size_t burst_updates_removed = 0;
  std::size_t bursts_detected = 0;
  std::size_t output_updates = 0;
};

/// A filtered record stream plus its statistics.
struct FilteredRecords {
  std::vector<feed::UpdateRec> updates;
  ResetFilterStats stats;
};

/// Removes session-reset artifacts from a time-ordered record stream.
/// `initial_rib` provides each session's table at t=0 (used both for the
/// duplicate check and to size the burst threshold). Paths are compared
/// by interned id, so the duplicate check is an integer compare and no
/// path is ever copied. REQUIRES that `initial_rib` and `updates` were
/// interned into the SAME AsPathTable: interning is canonical, so within
/// one table id equality is path equality — across tables it is
/// meaningless. Takes `updates` by value and filters it in place —
/// survivors are compacted into the same buffer, so the hot path never
/// copies the feed. The output is in canonical (time, session, prefix)
/// order: the stable sort of the surviving records. Memory is linear in
/// the input: sessions and prefixes are numbered by first sight, so a
/// session id's magnitude costs nothing.
/// Throws std::invalid_argument if `updates` is not time-ordered.
[[nodiscard]] FilteredRecords FilterSessionRecords(
    const std::vector<feed::UpdateRec>& initial_rib,
    std::vector<feed::UpdateRec> updates, const ResetFilterParams& params = {});

}  // namespace quicksand::bgp
