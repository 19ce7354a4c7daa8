#include "bgp/session_reset.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "bgp/feed_order.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/flat_index.hpp"

namespace quicksand::bgp {

namespace {

using feed::PathId;
using feed::UpdateRec;

/// Sliding-window length used to detect announcement bursts.
constexpr std::int64_t kBurstWindowS = 120;
/// Bursts are extended by this grace period to catch trailing flaps.
constexpr std::int64_t kGraceS = 60;

/// A prefix packed into 38 bits: network address in the high word, length
/// in the low 6 bits.
std::uint64_t PackPrefix(const netbase::Prefix& p) noexcept {
  return (std::uint64_t{p.network().value()} << 6) |
         static_cast<std::uint64_t>(p.length());
}

/// The (session, prefix) state is a grid of dense rows while it costs at
/// most this many cells per input record; a sparse feed (many sessions,
/// each carrying few of many prefixes — a lenient text feed of N lines can
/// name N of each) falls back to the open-addressed StateTable, so memory
/// stays linear in the input either way.
constexpr std::size_t kRowCellsPerRecord = 2;

/// A (session, prefix) the session does not carry.
constexpr PathId kNoPath = ~PathId{0};

/// Marks a session without detected bursts.
constexpr std::uint32_t kNoBursts = ~std::uint32_t{0};

/// The feed's sessions and prefixes, each numbered by first sight: every
/// per-session table is a vector indexed by session row, whatever the
/// session ids are.
struct FeedKeys {
  util::FlatIndex row_of;     // session id -> row
  util::FlatIndex column_of;  // packed prefix -> column
  std::uint32_t sessions = 0;
  std::uint32_t prefixes = 0;

  void Add(const UpdateRec& u) {
    bool added = false;
    (void)row_of.FindOrInsert(u.session, sessions, added);
    sessions += added ? 1 : 0;
    (void)column_of.FindOrInsert(PackPrefix(u.prefix), prefixes, added);
    prefixes += added ? 1 : 0;
  }
  [[nodiscard]] std::uint32_t Row(SessionId session) const { return row_of.Find(session); }
};

/// The sparse-feed form of the (session, prefix) -> current path state.
/// Open addressing with linear probing over power-of-two capacity. Entries
/// are never erased (a withdrawn prefix stores kNoPath), so no tombstones.
/// References returned by Slot() are invalidated by the next Slot() call
/// (growth may rehash).
class StateTable {
 public:
  explicit StateTable(std::size_t expected) {
    std::size_t capacity = 64;
    while (capacity * 5 < expected * 8) capacity <<= 1;
    slots_.resize(capacity);
  }

  PathId& Slot(SessionId session, const netbase::Prefix& prefix) {
    if ((size_ + 1) * 8 > slots_.size() * 5) Grow();
    const std::uint64_t key = PackPrefix(prefix);
    std::size_t i = IndexFor(session, key, slots_.size());
    while (true) {
      SlotT& slot = slots_[i];
      if (slot.prefix_key == kFreeSlot) {
        slot.prefix_key = key;
        slot.session = session;
        ++size_;
        return slot.value;
      }
      if (slot.prefix_key == key && slot.session == session) return slot.value;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

 private:
  struct SlotT {
    std::uint64_t prefix_key = kFreeSlot;
    SessionId session = 0;
    PathId value = kNoPath;
  };
  /// Packed prefixes occupy 38 bits, so all-ones can mark a free slot.
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};

  static std::size_t IndexFor(SessionId session, std::uint64_t key,
                              std::size_t capacity) noexcept {
    std::uint64_t x = key ^ (std::uint64_t{session} << 38);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31)) & (capacity - 1);
  }

  void Grow() {
    std::vector<SlotT> old;
    old.swap(slots_);
    slots_.resize(old.size() * 2);
    for (const SlotT& slot : old) {
      if (slot.prefix_key == kFreeSlot) continue;
      std::size_t i = IndexFor(slot.session, slot.prefix_key, slots_.size());
      while (slots_[i].prefix_key != kFreeSlot) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<SlotT> slots_;
  std::size_t size_ = 0;
};

/// (session, prefix) -> the session's current path for the prefix, or
/// kNoPath: one row per session, one cell per prefix column, while the
/// grid fits kRowCellsPerRecord; the StateTable otherwise. The filter's
/// hottest structure (one lookup per input update). A cell reference is
/// invalidated by the next Cell() call.
class PathCells {
 public:
  PathCells(const FeedKeys& keys, std::size_t records, std::size_t rib_records)
      : keys_(keys) {
    if (std::size_t{keys.sessions} * keys.prefixes <= kRowCellsPerRecord * records) {
      rows_.assign(std::size_t{keys.sessions} * keys.prefixes, kNoPath);
    } else {
      // Sized for the t=0 table plus headroom: feeds mostly touch prefixes
      // the sessions already carry, and growth amortizes the rest.
      table_.emplace(rib_records + rib_records / 2 + 64);
    }
  }

  PathId& Cell(std::uint32_t row, const UpdateRec& u) {
    if (table_) return table_->Slot(u.session, u.prefix);
    return rows_[std::size_t{row} * keys_.prefixes + keys_.column_of.Find(PackPrefix(u.prefix))];
  }

 private:
  const FeedKeys& keys_;
  std::vector<PathId> rows_;
  std::optional<StateTable> table_;
};

struct BurstInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;  // inclusive
};

/// A session with detected bursts: its intervals, the scan position in
/// them, and the buffered content of the burst it is in — the last update
/// per packed prefix, plus how many were buffered.
struct BurstSession {
  std::uint32_t row = 0;
  std::vector<BurstInterval> intervals;
  std::size_t cursor = 0;
  std::int64_t flush_after = 0;
  std::unordered_map<std::uint64_t, std::pair<UpdateRec, std::size_t>> final_updates;
};

/// Detects table-transfer bursts per session with a sliding window over
/// announcement timestamps. Returns the sessions owning at least one
/// interval, in order of first announcement, and points `burst_of` (by
/// session row) at them.
std::vector<BurstSession> DetectBursts(const std::vector<UpdateRec>& updates,
                                       const FeedKeys& keys,
                                       const std::vector<std::size_t>& table_sizes,
                                       const ResetFilterParams& params,
                                       std::vector<std::uint32_t>& burst_of) {
  std::vector<std::vector<std::int64_t>> announce_times(keys.sessions);
  std::vector<std::uint32_t> announce_rows;
  for (const UpdateRec& u : updates) {
    if (u.type != UpdateType::kAnnounce) continue;
    const std::uint32_t row = keys.Row(u.session);
    std::vector<std::int64_t>& times = announce_times[row];
    if (times.empty()) announce_rows.push_back(row);
    times.push_back(u.time.seconds);
  }

  std::vector<BurstSession> bursts;
  burst_of.assign(keys.sessions, kNoBursts);
  for (const std::uint32_t row : announce_rows) {
    const std::vector<std::int64_t>& times = announce_times[row];
    const std::size_t threshold = std::max(
        params.min_burst_updates,
        static_cast<std::size_t>(params.burst_table_fraction *
                                 static_cast<double>(table_sizes[row])));
    std::vector<BurstInterval> intervals;
    std::size_t left = 0;
    for (std::size_t right = 0; right < times.size(); ++right) {
      while (times[right] - times[left] > kBurstWindowS) ++left;
      if (right - left + 1 >= threshold) {
        const std::int64_t begin = times[left];
        const std::int64_t end = times[right] + kGraceS;
        if (!intervals.empty() && begin <= intervals.back().end) {
          intervals.back().end = std::max(intervals.back().end, end);
        } else {
          intervals.push_back({begin, end});
        }
      }
    }
    if (intervals.empty()) continue;
    burst_of[row] = static_cast<std::uint32_t>(bursts.size());
    BurstSession& session = bursts.emplace_back();
    session.row = row;
    session.intervals = std::move(intervals);
  }
  return bursts;
}

bool InBurst(const std::vector<BurstInterval>& intervals, std::int64_t t,
             std::size_t& cursor) {
  while (cursor < intervals.size() && intervals[cursor].end < t) ++cursor;
  return cursor < intervals.size() && intervals[cursor].begin <= t;
}

}  // namespace

/// Consumes `updates` and filters in place: survivors are compacted to
/// the front of the same buffer (two-pointer sweep, no output copy) and
/// the handful of burst survivors is merged back in at the end.
FilteredRecords FilterSessionRecords(const std::vector<UpdateRec>& initial_rib,
                                     std::vector<UpdateRec> updates,
                                     const ResetFilterParams& params) {
  // One pass validates time order and numbers the feed's sessions and
  // prefixes.
  FeedKeys keys;
  for (const UpdateRec& u : initial_rib) keys.Add(u);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i > 0 && updates[i].time < updates[i - 1].time) {
      throw std::invalid_argument("FilterSessionRecords: updates not time-ordered");
    }
    keys.Add(updates[i]);
  }

  // Session tables at t=0 (path per prefix), used for duplicate detection,
  // and their sizes for the burst threshold. The cells are only ever
  // looked up by key — never iterated — so output depends solely on
  // per-key lookups.
  PathCells cells(keys, initial_rib.size() + updates.size(), initial_rib.size());
  std::vector<std::size_t> table_sizes(keys.sessions);
  for (const UpdateRec& u : initial_rib) {
    const std::uint32_t row = keys.Row(u.session);
    cells.Cell(row, u) = u.path;
    ++table_sizes[row];
  }

  std::vector<std::uint32_t> burst_of;
  std::vector<BurstSession> bursts =
      DetectBursts(updates, keys, table_sizes, params, burst_of);

  FilteredRecords result;
  result.stats.input_updates = updates.size();
  for (const BurstSession& session : bursts) {
    result.stats.bursts_detected += session.intervals.size();
  }

  // Buffered burst survivors are keyed by packed prefix and emitted in
  // ascending prefix order at flush time (sorted then — each burst flushes
  // once), which reproduces the historical prefix-ordered buffer
  // iteration.
  //
  // Burst survivors are collected separately from the pass-through
  // updates: pass-throughs come out in input order (sorted whenever the
  // input was canonically sorted, which the emit loop verifies as it
  // goes), so the canonical order of the combined output is a merge of
  // two sorted runs instead of a full re-sort. Equal (time, session,
  // prefix) keys can only pair two pass-throughs — a burst survivor's
  // timestamp lies inside one of its session's disjoint burst intervals,
  // where every pass-through of that session is buffered, and two
  // survivors of one session come from different intervals — so the merge
  // reproduces the stable sort of the interleaved sequence exactly.
  std::vector<UpdateRec> flushed;
  std::vector<std::pair<std::uint64_t, std::pair<UpdateRec, std::size_t>*>> flush_order;

  auto flush = [&](BurstSession& session) {
    flush_order.clear();
    flush_order.reserve(session.final_updates.size());
    for (auto& [key, entry] : session.final_updates) {
      flush_order.emplace_back(key, &entry);
    }
    std::sort(flush_order.begin(), flush_order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [key, entry] : flush_order) {
      auto& [update, count] = *entry;
      PathId& current = cells.Cell(session.row, update);
      const PathId next = update.type == UpdateType::kAnnounce ? update.path : kNoPath;
      if (current != next) {
        result.stats.burst_updates_removed += count - 1;
        current = next;
        flushed.push_back(update);
      } else {
        // Net no-op: the whole burst group is an artifact.
        result.stats.burst_updates_removed += count;
      }
    }
    session.final_updates.clear();
  };

  const FeedOrderLess key_less{};
  bool pass_through_sorted = true;

  // Two-pointer in-place compaction: `write` trails `read`, dropped and
  // buffered updates leave no hole. A buffered update is copied out before
  // the slot can be overwritten (write <= read always).
  std::size_t write = 0;
  for (std::size_t read = 0; read < updates.size(); ++read) {
    const UpdateRec& u = updates[read];
    const std::uint32_t row = keys.Row(u.session);
    if (burst_of[row] != kNoBursts) {
      // Only sessions with detected bursts ever buffer, so the buffer and
      // cursor bookkeeping is skipped entirely for everyone else.
      BurstSession& session = bursts[burst_of[row]];
      if (!session.final_updates.empty() && u.time.seconds > session.flush_after) {
        flush(session);
      }
      if (InBurst(session.intervals, u.time.seconds, session.cursor)) {
        session.flush_after = session.intervals[session.cursor].end;
        auto [it, inserted] = session.final_updates.try_emplace(
            PackPrefix(u.prefix), u, std::size_t{1});
        if (!inserted) {
          it->second.first = u;
          ++it->second.second;
        }
        continue;
      }
    }
    // Outside bursts: drop state no-ops (duplicate announcements and
    // withdrawals of prefixes the session does not carry).
    PathId& current = cells.Cell(row, u);
    const PathId next = u.type == UpdateType::kAnnounce ? u.path : kNoPath;
    if (current == next) {
      ++result.stats.duplicates_removed;
      continue;
    }
    current = next;
    if (pass_through_sorted && write > 0 && key_less(u, updates[write - 1])) {
      pass_through_sorted = false;
    }
    if (write != read) updates[write] = u;
    ++write;
  }
  for (BurstSession& session : bursts) {
    if (!session.final_updates.empty()) flush(session);
  }
  updates.resize(write);
  if (!flushed.empty() || !pass_through_sorted) {
    feed::SortRecords(flushed);
    // Every burst survivor replaces at least one buffered (dropped)
    // update, so write + flushed fits in the original capacity — no
    // reallocation here.
    const auto mid = static_cast<std::ptrdiff_t>(write);
    updates.insert(updates.end(), flushed.begin(), flushed.end());
    if (pass_through_sorted) {
      std::inplace_merge(updates.begin(), updates.begin() + mid, updates.end(),
                         key_less);
    } else {
      // Time-ordered but not canonically sorted input: fall back to a
      // full stable sort. No equal keys pair across the two runs (see
      // above), so concatenation order is unobservable.
      feed::SortRecords(updates);
    }
  }
  result.updates = std::move(updates);
  result.stats.output_updates = result.updates.size();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("bgp.reset_filter.input_updates")
      .Increment(result.stats.input_updates);
  registry.GetCounter("bgp.reset_filter.duplicates_removed")
      .Increment(result.stats.duplicates_removed);
  registry.GetCounter("bgp.reset_filter.burst_updates_removed")
      .Increment(result.stats.burst_updates_removed);
  registry.GetCounter("bgp.reset_filter.bursts_detected")
      .Increment(result.stats.bursts_detected);
  registry.GetCounter("bgp.reset_filter.output_updates")
      .Increment(result.stats.output_updates);
  if (obs::TraceSink* trace = obs::GlobalTrace()) {
    trace->Instant("bgp.reset_filter",
                   {{"input", std::to_string(result.stats.input_updates)},
                    {"output", std::to_string(result.stats.output_updates)},
                    {"bursts", std::to_string(result.stats.bursts_detected)}});
  }
  return result;
}

}  // namespace quicksand::bgp
