#pragma once

// Path-churn measurement over collector update streams — the paper's
// Section 4 methodology.
//
// Definitions (all from the paper):
//   * A *path change* on a (session, prefix) is a change in the *set* of
//     ASes crossed (the distinct ASes of the AS-PATH) between two
//     subsequent announcements.
//   * The *baseline* path of a (session, prefix) is the first path
//     observed at the beginning of the measurement window.
//   * An *extra AS* for a prefix is an AS that appears on some observed
//     path but not on the baseline, and that stays on-path for at least
//     the dwell threshold (5 minutes) during one continuous interval —
//     shorter appearances are "unlikely that an attack can be performed".
//
// The analyzer is streaming: feed it the initial RIB, then time-ordered
// updates, then Finish(). It consumes compact interned records (straight
// off a `feed::UpdateStream` or one at a time) — the distinct-AS
// sort/dedup runs once per interned path, not once per update
// (docs/ARCHITECTURE.md). Results back Figure 3 (left and right) and the
// dataset statistics of Section 4.

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_set>
#include <vector>

#include "bgp/feed.hpp"
#include "netbase/sim_time.hpp"
#include "util/flat_index.hpp"

namespace quicksand::daemon {
struct StateCodec;
}  // namespace quicksand::daemon

namespace quicksand::bgp {

struct ChurnParams {
  /// Minimum continuous on-path time for an extra AS to count.
  std::int64_t dwell_threshold_s = netbase::duration::kAttackDwellThreshold;
  /// End of the measurement window (used to close open intervals).
  std::int64_t window_end_s = netbase::duration::kMonth;
};

/// Churn measured for one (session, prefix).
struct SessionPrefixChurn {
  std::size_t announcements = 0;  ///< announces seen (incl. initial RIB)
  std::size_t path_changes = 0;   ///< AS-set changes between announcements
  std::size_t distinct_paths = 0; ///< distinct AS-sets observed
  /// Extra ASes (vs the baseline path) that met the dwell threshold.
  std::vector<AsNumber> qualifying_extra_ases;
  /// Extra ASes that appeared only below the dwell threshold — too briefly
  /// for timing analysis, but long enough to *learn that this prefix's
  /// traffic exists* (the Section 3.1 convergence observation: "these ASes
  /// can learn about a client's use of the Tor network").
  std::vector<AsNumber> glimpsed_extra_ases;

  friend bool operator==(const SessionPrefixChurn&, const SessionPrefixChurn&) = default;
};

struct SessionPrefixKey {
  SessionId session = 0;
  netbase::Prefix prefix;
  friend auto operator<=>(const SessionPrefixKey&, const SessionPrefixKey&) = default;
};

class ChurnAnalyzer;

/// Runs a whole dataset (initial RIB + time-ordered updates) through the
/// analyzer on `threads` threads (0 = hardware concurrency) and returns it
/// finished. Sessions are independent key spaces: both streams are
/// drained once into one contiguous record range per session (its RIB
/// records, then its updates, each in stream order; records are compact —
/// 32-bit path ids, not owning paths), each stream's own copy is released
/// as soon as it is drained, and the ranges are analyzed in parallel and
/// merged in session order. Within a range the records are grouped by
/// (session, prefix) key, each key keeping its stream order, and the keys
/// run in prefix order through one reused state, by the same per-record
/// transition ConsumeRecord applies. The entries are identical to serial
/// consumption for every thread count and batch size, and the two streams
/// may share an AsPathTable or carry their own. Each range keeps its own
/// seen-path set, so `bgp.churn.path_set_cache_hits` counts per session.
/// The returned analyzer holds results only: its live queries
/// (CurrentOnPathAses, IsOnPath) see no state.
[[nodiscard]] ChurnAnalyzer AnalyzeChurnStream(feed::UpdateStream initial_rib,
                                               feed::UpdateStream updates,
                                               ChurnParams params = {},
                                               std::size_t threads = 1);

/// Streaming churn analyzer.
class ChurnAnalyzer {
 public:
  explicit ChurnAnalyzer(ChurnParams params = {}) : params_(params) {}

  /// Feeds one compact record whose path id indexes `table`. Feed the
  /// t=0 table first (each entry is the baseline announcement), then the
  /// updates; calls should be time-ordered. A record whose timestamp
  /// precedes the newest one already seen for its (session, prefix) is
  /// dropped rather than corrupting interval bookkeeping — the count is
  /// exposed via DroppedOutOfOrder() and the
  /// `bgp.churn.dropped_out_of_order` counter (graceful degradation on
  /// lossy/reordered feeds; see docs/ROBUSTNESS.md).
  /// Throws std::logic_error if called after Finish().
  ///
  /// The table precomputes each path's distinct-AS set; an announcement
  /// whose path this analyzer has already seen counts toward the
  /// `bgp.churn.path_set_cache_hits` counter (registered only once a hit
  /// actually occurs).
  void ConsumeRecord(const feed::UpdateRec& rec, const feed::AsPathTable& table);

  /// Drains `stream`, feeding every record through ConsumeRecord.
  void ConsumeStream(feed::UpdateStream& stream);

  /// Updates dropped because they arrived out of time order for their
  /// (session, prefix).
  [[nodiscard]] std::size_t DroppedOutOfOrder() const noexcept {
    return dropped_out_of_order_;
  }

  /// Live query (valid at any point, before or after Finish): the union,
  /// over all sessions currently announcing `prefix`, of the distinct
  /// ASes on the latest announced path — i.e. every AS that is on-path
  /// to `prefix` *right now*. Sorted ascending. Withdrawn (session,
  /// prefix) states contribute nothing. This is the exposure surface the
  /// resident daemon serves ("exposure of client AS X to relay set Y
  /// now") without re-running batch analysis.
  [[nodiscard]] std::vector<AsNumber> CurrentOnPathAses(
      const netbase::Prefix& prefix) const;

  /// True iff `as` is on some session's current path to `prefix`.
  [[nodiscard]] bool IsOnPath(AsNumber as, const netbase::Prefix& prefix) const;

  /// Closes all open on-path intervals at the window end. Idempotent.
  void Finish();

  /// Per-(session, prefix) results. Only valid after Finish().
  [[nodiscard]] const std::map<SessionPrefixKey, SessionPrefixChurn>& entries() const;

  /// Median path-change count over all prefixes of each observed session
  /// (the paper's normalizer), from one pass over the session-ordered
  /// entries.
  [[nodiscard]] std::map<SessionId, double> MedianPathChangesPerSession() const;

  /// For each (session, prefix) whose prefix satisfies `is_target`, the
  /// ratio of its path changes to the session's median (the Fig. 3 left
  /// series). Sessions with a zero median use a floor of `median_floor`.
  [[nodiscard]] std::vector<double> RatioToSessionMedian(
      const std::unordered_set<netbase::Prefix>& target_prefixes,
      double median_floor = 1.0) const;

  /// Per-prefix count of glimpse-only extra ASes (on-path below the dwell
  /// threshold and never above it), unioned across sessions — the
  /// convergence-window observers of Section 3.1.
  [[nodiscard]] std::map<netbase::Prefix, std::size_t> GlimpsedAsCountPerPrefix() const;

  /// Number of sessions on which each prefix was observed at least once.
  [[nodiscard]] std::map<netbase::Prefix, std::size_t> SessionsPerPrefix() const;

 private:
  friend ChurnAnalyzer AnalyzeChurnStream(feed::UpdateStream, feed::UpdateStream,
                                          ChurnParams, std::size_t);
  /// The daemon's warm-restart codec serializes analyzer internals
  /// (src/daemon/state_codec.cpp) without widening the public API.
  friend struct quicksand::daemon::StateCodec;

  /// An extra AS on the current path and when its on-path interval opened.
  struct OpenInterval {
    AsNumber as = 0;
    std::int64_t since = 0;
  };

  /// One (session, prefix)'s bookkeeping. Besides the two sorted AS sets,
  /// every set is a short vector of unique values in arrival order — the
  /// paper month has at most 5 distinct sets and 10 extra ASes per key —
  /// so a key costs a few small vectors, not hash tables.
  struct State {
    bool has_baseline = false;
    bool withdrawn = true;
    std::int64_t last_time_s = std::numeric_limits<std::int64_t>::min();
    std::size_t announcements = 0;
    std::size_t path_changes = 0;
    std::vector<AsNumber> baseline;            // sorted distinct AS set
    std::vector<AsNumber> last_announced;      // sorted; empty only before first
    std::vector<OpenInterval> open;            // extra ASes on path
    std::vector<AsNumber> qualifying;          // closed at or above the threshold
    std::vector<AsNumber> glimpsed;            // closed below it (may also qualify)
    std::vector<std::uint64_t> distinct_sets;  // SetHash of every announced set

    /// Back to a fresh state, keeping the vectors' capacity.
    void Reset();
  };

  /// One session's prefixes, numbered by first sight and found through an
  /// open-addressing index, and (live path only) their states.
  struct Partition {
    SessionId session = 0;
    std::vector<netbase::Prefix> prefixes;  // slot -> prefix
    std::vector<State> states;              // slot -> state
    util::FlatIndex slot_of;                // packed prefix -> slot

    /// The slot of `prefix`, numbered on first sight.
    std::uint32_t SlotOf(const netbase::Prefix& prefix);
    /// The state of `prefix`, added on first sight.
    State& Slot(const netbase::Prefix& prefix);
    /// The state of `prefix`, or null.
    [[nodiscard]] const State* Find(const netbase::Prefix& prefix) const;
    /// Every slot, in ascending prefix order.
    [[nodiscard]] std::vector<std::uint32_t> SlotsByPrefix() const;
  };

  /// Counter increments of a consumed range, published once.
  struct Tally {
    std::uint64_t consumed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cache_hits = 0;
  };

  /// The partition of `session`, added (in session order) on first sight.
  Partition& PartitionOf(SessionId session);
  /// The per-record transition: feeds `rec` to its key's `state`; `seen`
  /// holds the path hashes announced so far in this key space.
  void Step(State& state, const feed::UpdateRec& rec, const feed::AsPathTable& table,
            util::FlatU64Set& seen, Tally& tally) const;
  void Announce(State& state, std::int64_t now, const std::vector<AsNumber>& as_set,
                std::uint64_t set_hash) const;
  void Withdraw(State& state, std::int64_t now) const;
  void CloseIntervals(State& state, std::int64_t now,
                      const std::vector<AsNumber>* keep_sorted) const;
  /// Closes a key's intervals at the window end and returns its entry.
  [[nodiscard]] SessionPrefixChurn FinishKey(State& state) const;
  /// FinishKey for each of `part`'s states, appended in prefix order to
  /// `out` (whose keys must all precede them).
  void FinishPartition(Partition& part,
                       std::map<SessionPrefixKey, SessionPrefixChurn>& out) const;
  static void Publish(const Tally& tally);

  ChurnParams params_;
  /// Hop-content hashes of every announced path this analyzer has seen —
  /// an announce whose hash is already present skipped the sort/dedup
  /// (bgp.churn.path_set_cache_hits). Keyed on the table-independent
  /// content hash so the count does not depend on which table a record
  /// indexes.
  util::FlatU64Set seen_path_hashes_;
  std::vector<Partition> partitions_;  // ascending session
  std::map<SessionPrefixKey, SessionPrefixChurn> results_;
  std::size_t dropped_out_of_order_ = 0;
  bool finished_ = false;
};

}  // namespace quicksand::bgp
