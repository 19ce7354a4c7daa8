#pragma once

// Reusable feed-cleaning step: the canonical path from a raw (possibly
// lossy, reordered, resync-polluted) collector stream to the clean,
// time-ordered stream every analyzer expects.
//
// The sanitizer composes, in order:
//   1. re-ordering repair — updates that arrived out of time order (delay
//      jitter, interleaved archives) are stable-sorted back into the
//      canonical (time, session, prefix) order instead of aborting the
//      analysis;
//   2. session-reset filtering — duplicate announcements and
//      table-transfer bursts are removed (FilterSessionRecords, after
//      Zhang et al.), which also collapses the resync bursts a flapping
//      session emits on recovery.
//
// The paper applies exactly this cleaning before any churn measurement;
// promoting it into one function lets every consumer (benches, the fault
// sweep, future ingest services) share the behavior and its statistics.
// Both steps need the whole feed, so a streaming pipeline drains its
// source, sanitizes the record vector, and re-streams the result with
// feed::FromRecords.

#include <cstddef>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/session_reset.hpp"

namespace quicksand::bgp {

/// A cleaned record stream plus everything the sanitizer did to it.
struct SanitizedRecords {
  std::vector<feed::UpdateRec> updates;
  ResetFilterStats reset_stats;
  /// Input adjacencies that violated time order and were repaired.
  std::size_t out_of_order_repaired = 0;
};

/// Cleans `updates` against the t=0 table `initial_rib`: ordering repair
/// (SortRecords) followed by FilterSessionRecords at its default
/// thresholds, never touching a hop vector. REQUIRES that `initial_rib`
/// and `updates` index the same AsPathTable (see FilterSessionRecords).
/// Metrics: `bgp.sanitizer.out_of_order_repaired` (registered only when a
/// repair actually happened) plus the `bgp.reset_filter.*` family.
[[nodiscard]] SanitizedRecords SanitizeRecords(
    const std::vector<feed::UpdateRec>& initial_rib,
    std::vector<feed::UpdateRec> updates);

}  // namespace quicksand::bgp
