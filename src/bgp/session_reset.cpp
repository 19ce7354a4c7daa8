#include "bgp/session_reset.hpp"

#include <algorithm>

#include "bgp/feed_order.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace quicksand::bgp {

namespace {

/// A prefix packed into 38 bits: network address in the high word, length
/// in the low 6 bits. Ascending packed order is exactly Prefix's
/// lexicographic (network, length) order.
std::uint64_t PackPrefix(const netbase::Prefix& p) noexcept {
  return (std::uint64_t{p.network().value()} << 6) |
         static_cast<std::uint64_t>(p.length());
}

/// Session ids below this use dense vectors for the per-session lookaside
/// tables (the CollectorSet contract numbers sessions densely from 0);
/// anything larger — hostile or synthetic ids parsed from text — falls
/// back to hashing so a single huge id cannot force a giant allocation.
constexpr SessionId kDenseSessionLimit = 1u << 22;

/// Per-session lookaside: vector indexed by session id in the dense
/// (normal) case, hash map in the sparse fallback. operator[] value-
/// initializes on first touch in both modes, like unordered_map.
template <typename V>
class PerSession {
 public:
  explicit PerSession(SessionId max_session) {
    if (max_session < kDenseSessionLimit) {
      dense_.resize(static_cast<std::size_t>(max_session) + 1);
    } else {
      use_map_ = true;
    }
  }

  V& operator[](SessionId session) {
    if (!use_map_) return dense_[session];
    return map_[session];
  }

 private:
  std::vector<V> dense_;
  std::unordered_map<SessionId, V> map_;
  bool use_map_ = false;
};

struct BurstInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;  // inclusive
};

/// Detects table-transfer bursts per session with a sliding window over
/// announcement timestamps. Fills `bursts` (empty vector = no bursts for
/// that session) and appends every session owning at least one interval
/// to `burst_sessions`.
void DetectBursts(const std::vector<feed::UpdateRec>& updates,
                  PerSession<std::size_t>& table_sizes, SessionId max_session,
                  const ResetFilterParams& params,
                  PerSession<std::vector<BurstInterval>>& bursts,
                  std::vector<SessionId>& burst_sessions) {
  PerSession<std::vector<std::int64_t>> announce_times(max_session);
  std::vector<SessionId> announce_sessions;
  for (const feed::UpdateRec& u : updates) {
    if (u.type != UpdateType::kAnnounce) continue;
    std::vector<std::int64_t>& times = announce_times[u.session];
    if (times.empty()) announce_sessions.push_back(u.session);
    times.push_back(u.time.seconds);
  }

  for (const SessionId session : announce_sessions) {
    const std::vector<std::int64_t>& times = announce_times[session];
    const std::size_t threshold = std::max(
        params.min_burst_updates,
        static_cast<std::size_t>(params.burst_table_fraction *
                                 static_cast<double>(table_sizes[session])));
    std::vector<BurstInterval>& intervals = bursts[session];
    std::size_t left = 0;
    for (std::size_t right = 0; right < times.size(); ++right) {
      while (times[right] - times[left] > params.burst_window_s) ++left;
      if (right - left + 1 >= threshold) {
        const std::int64_t begin = times[left];
        const std::int64_t end = times[right] + params.grace_s;
        if (!intervals.empty() && begin <= intervals.back().end) {
          intervals.back().end = std::max(intervals.back().end, end);
        } else {
          intervals.push_back({begin, end});
        }
      }
    }
    if (!intervals.empty()) burst_sessions.push_back(session);
  }
}

bool InBurst(const std::vector<BurstInterval>& intervals, std::int64_t t,
             std::size_t& cursor) {
  while (cursor < intervals.size() && intervals[cursor].end < t) ++cursor;
  return cursor < intervals.size() && intervals[cursor].begin <= t;
}

/// The (session, prefix) -> optional<path id> session-state table, the
/// filter's hottest structure (one probe per input update). Open
/// addressing with linear probing over power-of-two capacity: one cache
/// line per hit beats the node allocation and pointer chase of
/// unordered_map by ~4x here. Entries are never erased (a withdrawn
/// prefix stores nullopt), so no tombstones. References returned by
/// Slot() are invalidated by the next Slot() call (growth may rehash).
class StateTable {
 public:
  explicit StateTable(std::size_t expected) {
    std::size_t capacity = 64;
    while (capacity * 5 < expected * 8) capacity <<= 1;
    slots_.resize(capacity);
  }

  std::optional<feed::PathId>& Slot(SessionId session, const netbase::Prefix& prefix) {
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
    std::optional<feed::PathId> value;
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
    for (SlotT& slot : old) {
      if (slot.prefix_key == kFreeSlot) continue;
      std::size_t i = IndexFor(slot.session, slot.prefix_key, slots_.size());
      while (slots_[i].prefix_key != kFreeSlot) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = std::move(slot);
    }
  }

  std::vector<SlotT> slots_;
  std::size_t size_ = 0;
};

}  // namespace

/// Consumes `updates` and filters in place: survivors are compacted to
/// the front of the same buffer (two-pointer sweep, no output copy) and
/// the handful of burst survivors is merged back in at the end.
FilteredRecords FilterSessionRecords(const std::vector<feed::UpdateRec>& initial_rib,
                                     std::vector<feed::UpdateRec> updates,
                                     const ResetFilterParams& params) {
  using feed::UpdateRec;

  // One pass validates time order and finds the session-id range for the
  // dense per-session tables below.
  SessionId max_session = 0;
  for (const UpdateRec& u : initial_rib) max_session = std::max(max_session, u.session);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i > 0 && updates[i].time < updates[i - 1].time) {
      throw std::invalid_argument("FilterSessionRecords: updates not time-ordered");
    }
    max_session = std::max(max_session, updates[i].session);
  }

  // Session tables at t=0 (path per prefix), used for duplicate detection,
  // and their sizes for the burst threshold. The table is only ever probed
  // by key — never iterated — so its layout is free to be hash order;
  // output depends solely on per-key lookups. Sized for the RIB plus
  // headroom: feeds mostly touch prefixes the sessions already carry, and
  // growth amortizes the RIB-less case.
  StateTable state(initial_rib.size() + initial_rib.size() / 2 + 64);
  PerSession<std::size_t> table_sizes(max_session);
  for (const UpdateRec& u : initial_rib) {
    state.Slot(u.session, u.prefix) = u.path;
    ++table_sizes[u.session];
  }

  PerSession<std::vector<BurstInterval>> bursts(max_session);
  std::vector<SessionId> burst_sessions;
  DetectBursts(updates, table_sizes, max_session, params, bursts, burst_sessions);

  FilteredRecords result;
  result.stats.input_updates = updates.size();
  for (const SessionId session : burst_sessions) {
    result.stats.bursts_detected += bursts[session].size();
  }

  // Per-session burst scan cursors and buffered burst content. Buffered
  // survivors are keyed by packed prefix and emitted in ascending prefix
  // order at flush time (sorted then — each burst flushes once), which
  // reproduces the historical prefix-ordered buffer iteration.
  PerSession<std::size_t> cursors(max_session);
  struct BurstBuffer {
    std::int64_t flush_after = 0;
    // Last update per prefix within the burst, plus how many were buffered.
    std::unordered_map<std::uint64_t, std::pair<UpdateRec, std::size_t>> final_updates;
  };
  PerSession<BurstBuffer> buffers(max_session);

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

  auto flush = [&](SessionId session, BurstBuffer& buffer) {
    flush_order.clear();
    flush_order.reserve(buffer.final_updates.size());
    for (auto& [key, entry] : buffer.final_updates) {
      flush_order.emplace_back(key, &entry);
    }
    std::sort(flush_order.begin(), flush_order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [key, entry] : flush_order) {
      auto& [update, count] = *entry;
      auto& current = state.Slot(session, update.prefix);
      const bool is_announce = update.type == UpdateType::kAnnounce;
      const bool changes_state =
          is_announce ? (!current || *current != update.path) : current.has_value();
      if (changes_state) {
        result.stats.burst_updates_removed += count - 1;
        if (is_announce) {
          current = update.path;
        } else {
          current.reset();
        }
        flushed.push_back(update);
      } else {
        // Net no-op: the whole burst group is an artifact.
        result.stats.burst_updates_removed += count;
      }
    }
    buffer.final_updates.clear();
  };

  const FeedOrderLess key_less{};
  bool pass_through_sorted = true;

  // Two-pointer in-place compaction: `write` trails `read`, dropped and
  // buffered updates leave no hole. A buffered update is copied out before
  // the slot can be overwritten (write <= read always).
  std::size_t write = 0;
  for (std::size_t read = 0; read < updates.size(); ++read) {
    const UpdateRec& u = updates[read];
    const std::vector<BurstInterval>& intervals = bursts[u.session];
    if (!intervals.empty()) {
      // Only sessions with detected bursts ever buffer, so the buffer and
      // cursor bookkeeping is skipped entirely for everyone else.
      BurstBuffer& buffer = buffers[u.session];
      if (!buffer.final_updates.empty() && u.time.seconds > buffer.flush_after) {
        flush(u.session, buffer);
      }
      if (InBurst(intervals, u.time.seconds, cursors[u.session])) {
        const auto& interval = intervals[cursors[u.session]];
        buffer.flush_after = interval.end;
        auto [it, inserted] = buffer.final_updates.try_emplace(
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
    auto& current = state.Slot(u.session, u.prefix);
    if (u.type == UpdateType::kAnnounce) {
      if (current && *current == u.path) {
        ++result.stats.duplicates_removed;
        continue;
      }
      current = u.path;
    } else {
      if (!current) {
        ++result.stats.duplicates_removed;
        continue;
      }
      current.reset();
    }
    if (pass_through_sorted && write > 0 && key_less(u, updates[write - 1])) {
      pass_through_sorted = false;
    }
    if (write != read) updates[write] = u;
    ++write;
  }
  for (const SessionId session : burst_sessions) {
    BurstBuffer& buffer = buffers[session];
    if (!buffer.final_updates.empty()) flush(session, buffer);
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
