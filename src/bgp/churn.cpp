#include "bgp/churn.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"

namespace quicksand::bgp {

namespace {

/// Adds `value` to a short vector of unique values.
template <typename T>
void InsertUnique(std::vector<T>& values, T value) {
  if (std::find(values.begin(), values.end(), value) == values.end()) {
    values.push_back(value);
  }
}

std::uint64_t PackPrefix(const netbase::Prefix& prefix) {
  return (std::uint64_t{prefix.network().value()} << 8) |
         static_cast<std::uint64_t>(prefix.length());
}

}  // namespace

void ChurnAnalyzer::State::Reset() {
  const State fresh;
  has_baseline = fresh.has_baseline;
  withdrawn = fresh.withdrawn;
  last_time_s = fresh.last_time_s;
  announcements = fresh.announcements;
  path_changes = fresh.path_changes;
  for (std::vector<AsNumber>* set : {&baseline, &last_announced, &qualifying, &glimpsed}) {
    set->clear();
  }
  open.clear();
  distinct_sets.clear();
}

std::uint32_t ChurnAnalyzer::Partition::SlotOf(const netbase::Prefix& prefix) {
  bool added = false;
  const std::uint32_t slot = slot_of.FindOrInsert(
      PackPrefix(prefix), static_cast<std::uint32_t>(prefixes.size()), added);
  if (added) prefixes.push_back(prefix);
  return slot;
}

ChurnAnalyzer::State& ChurnAnalyzer::Partition::Slot(const netbase::Prefix& prefix) {
  const std::uint32_t slot = SlotOf(prefix);
  if (slot == states.size()) states.emplace_back();
  return states[slot];
}

const ChurnAnalyzer::State* ChurnAnalyzer::Partition::Find(
    const netbase::Prefix& prefix) const {
  const std::uint32_t slot = slot_of.Find(PackPrefix(prefix));
  return slot == util::FlatIndex::kAbsent ? nullptr : &states[slot];
}

std::vector<std::uint32_t> ChurnAnalyzer::Partition::SlotsByPrefix() const {
  std::vector<std::uint32_t> slots(prefixes.size());
  for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  std::sort(slots.begin(), slots.end(), [this](std::uint32_t a, std::uint32_t b) {
    return prefixes[a] < prefixes[b];
  });
  return slots;
}

ChurnAnalyzer::Partition& ChurnAnalyzer::PartitionOf(SessionId session) {
  auto it = std::lower_bound(
      partitions_.begin(), partitions_.end(), session,
      [](const Partition& part, SessionId id) { return part.session < id; });
  if (it == partitions_.end() || it->session != session) {
    it = partitions_.insert(it, Partition{});
    it->session = session;
  }
  return *it;
}

void ChurnAnalyzer::Publish(const Tally& tally) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& consumed = registry.GetCounter("bgp.churn.updates_consumed");
  consumed.Increment(tally.consumed);
  // Lazily registered so churn-free pipelines and clean feeds leave no
  // counter behind.
  if (tally.cache_hits > 0) {
    static obs::Counter& cache_hits = registry.GetCounter("bgp.churn.path_set_cache_hits");
    cache_hits.Increment(tally.cache_hits);
  }
  if (tally.dropped > 0) {
    static obs::Counter& dropped = registry.GetCounter("bgp.churn.dropped_out_of_order");
    dropped.Increment(tally.dropped);
  }
}

void ChurnAnalyzer::ConsumeRecord(const feed::UpdateRec& rec,
                                  const feed::AsPathTable& table) {
  if (finished_) throw std::logic_error("ChurnAnalyzer: ConsumeRecord after Finish");
  Tally tally;
  ++tally.consumed;
  Step(PartitionOf(rec.session).Slot(rec.prefix), rec, table, seen_path_hashes_, tally);
  dropped_out_of_order_ += tally.dropped;
  Publish(tally);
}

void ChurnAnalyzer::ConsumeStream(feed::UpdateStream& stream) {
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) ConsumeRecord(rec, *stream.paths());
  }
}

void ChurnAnalyzer::Step(State& state, const feed::UpdateRec& rec,
                         const feed::AsPathTable& table, util::FlatU64Set& seen,
                         Tally& tally) const {
  const std::int64_t time_s = rec.time.seconds;
  if (time_s < state.last_time_s) {
    // Out-of-order arrival (delay jitter the sanitizer could not repair):
    // processing it would close dwell intervals backwards in time, so it
    // is dropped and counted instead of crashing the analysis.
    ++tally.dropped;
    return;
  }
  state.last_time_s = time_s;
  if (rec.type == UpdateType::kAnnounce) {
    // A hit means this path's sorted set was already computed — the
    // per-update sort/dedup the pre-interning analyzer paid is skipped.
    if (!seen.Insert(table.PathHash(rec.path))) ++tally.cache_hits;
    Announce(state, time_s, table.SortedSet(rec.path), table.SetHash(rec.path));
  } else {
    Withdraw(state, time_s);
  }
}

void ChurnAnalyzer::Announce(State& state, std::int64_t now,
                             const std::vector<AsNumber>& as_set,
                             std::uint64_t set_hash) const {
  ++state.announcements;
  InsertUnique(state.distinct_sets, set_hash);

  if (!state.has_baseline) {
    state.has_baseline = true;
    state.baseline = as_set;
  } else if (as_set != state.last_announced) {
    ++state.path_changes;
  } else if (!state.withdrawn) {
    // The same set is still on path: its extra ASes are exactly the open
    // intervals, so none closes and none opens.
    return;
  }

  // Interval bookkeeping for extra (non-baseline) ASes; both sets are
  // sorted, so one merge walk finds the extras.
  CloseIntervals(state, now, &as_set);
  auto base = state.baseline.begin();
  const auto base_end = state.baseline.end();
  for (const AsNumber as : as_set) {
    while (base != base_end && *base < as) ++base;
    if (base != base_end && *base == as) continue;
    const bool open = std::any_of(
        state.open.begin(), state.open.end(),
        [as](const OpenInterval& interval) { return interval.as == as; });
    if (!open) state.open.push_back({as, now});
  }

  state.last_announced = as_set;
  state.withdrawn = false;
}

void ChurnAnalyzer::Withdraw(State& state, std::int64_t now) const {
  // A withdrawal is not a path change in the paper's definition, but it
  // does end the on-path intervals of every extra AS.
  CloseIntervals(state, now, nullptr);
  state.withdrawn = true;
}

void ChurnAnalyzer::CloseIntervals(State& state, std::int64_t now,
                                   const std::vector<AsNumber>* keep_sorted) const {
  std::size_t kept = 0;
  for (const OpenInterval& interval : state.open) {
    const bool still_on_path =
        keep_sorted != nullptr &&
        std::binary_search(keep_sorted->begin(), keep_sorted->end(), interval.as);
    if (still_on_path) {
      state.open[kept++] = interval;
    } else if (now - interval.since >= params_.dwell_threshold_s) {
      InsertUnique(state.qualifying, interval.as);
    } else {
      InsertUnique(state.glimpsed, interval.as);
    }
  }
  state.open.resize(kept);
}

std::vector<AsNumber> ChurnAnalyzer::CurrentOnPathAses(
    const netbase::Prefix& prefix) const {
  std::vector<AsNumber> out;
  // One index probe per session; the daemon answers only a handful of
  // prefixes per query.
  for (const Partition& part : partitions_) {
    const State* state = part.Find(prefix);
    if (state == nullptr || state->withdrawn) continue;
    out.insert(out.end(), state->last_announced.begin(), state->last_announced.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ChurnAnalyzer::IsOnPath(AsNumber as, const netbase::Prefix& prefix) const {
  for (const Partition& part : partitions_) {
    const State* state = part.Find(prefix);
    if (state == nullptr || state->withdrawn) continue;
    if (std::binary_search(state->last_announced.begin(), state->last_announced.end(),
                           as)) {
      return true;
    }
  }
  return false;
}

SessionPrefixChurn ChurnAnalyzer::FinishKey(State& state) const {
  CloseIntervals(state, params_.window_end_s, nullptr);
  SessionPrefixChurn churn;
  churn.announcements = state.announcements;
  churn.path_changes = state.path_changes;
  churn.distinct_paths = state.distinct_sets.size();
  // A finished state is never read for its extra ASes again.
  churn.qualifying_extra_ases = std::move(state.qualifying);
  std::sort(churn.qualifying_extra_ases.begin(), churn.qualifying_extra_ases.end());
  // Glimpse-only: never reached the threshold in any interval.
  for (const AsNumber as : state.glimpsed) {
    if (!std::binary_search(churn.qualifying_extra_ases.begin(),
                            churn.qualifying_extra_ases.end(), as)) {
      churn.glimpsed_extra_ases.push_back(as);
    }
  }
  std::sort(churn.glimpsed_extra_ases.begin(), churn.glimpsed_extra_ases.end());
  return churn;
}

void ChurnAnalyzer::FinishPartition(
    Partition& part, std::map<SessionPrefixKey, SessionPrefixChurn>& out) const {
  for (const std::uint32_t slot : part.SlotsByPrefix()) {
    out.emplace_hint(out.end(), SessionPrefixKey{part.session, part.prefixes[slot]},
                     FinishKey(part.states[slot]));
  }
}

void ChurnAnalyzer::Finish() {
  if (finished_) return;
  finished_ = true;
  for (Partition& part : partitions_) FinishPartition(part, results_);
}

const std::map<SessionPrefixKey, SessionPrefixChurn>& ChurnAnalyzer::entries() const {
  if (!finished_) throw std::logic_error("ChurnAnalyzer: entries() before Finish()");
  return results_;
}

std::map<SessionId, double> ChurnAnalyzer::MedianPathChangesPerSession() const {
  std::map<SessionId, double> medians;
  std::vector<double> counts;
  const auto& all = entries();
  for (auto it = all.begin(); it != all.end();) {
    const SessionId session = it->first.session;
    counts.clear();
    for (; it != all.end() && it->first.session == session; ++it) {
      counts.push_back(static_cast<double>(it->second.path_changes));
    }
    medians.emplace_hint(medians.end(), session, util::Median(counts));
  }
  return medians;
}

std::vector<double> ChurnAnalyzer::RatioToSessionMedian(
    const std::unordered_set<netbase::Prefix>& target_prefixes, double median_floor) const {
  const std::map<SessionId, double> medians = MedianPathChangesPerSession();
  std::vector<double> ratios;
  for (const auto& [key, churn] : entries()) {
    if (!target_prefixes.contains(key.prefix)) continue;
    const double median = std::max(medians.at(key.session), median_floor);
    ratios.push_back(static_cast<double>(churn.path_changes) / median);
  }
  return ratios;
}

std::map<netbase::Prefix, std::size_t> ChurnAnalyzer::GlimpsedAsCountPerPrefix() const {
  std::map<netbase::Prefix, std::unordered_set<AsNumber>> unions;
  std::map<netbase::Prefix, std::unordered_set<AsNumber>> qualified;
  for (const auto& [key, churn] : entries()) {
    unions[key.prefix].insert(churn.glimpsed_extra_ases.begin(),
                              churn.glimpsed_extra_ases.end());
    qualified[key.prefix].insert(churn.qualifying_extra_ases.begin(),
                                 churn.qualifying_extra_ases.end());
  }
  std::map<netbase::Prefix, std::size_t> out;
  for (const auto& [prefix, set] : unions) {
    std::size_t count = 0;
    const auto& strong = qualified[prefix];
    for (AsNumber as : set) {
      if (!strong.contains(as)) ++count;
    }
    out.emplace(prefix, count);
  }
  return out;
}

std::map<netbase::Prefix, std::size_t> ChurnAnalyzer::SessionsPerPrefix() const {
  std::map<netbase::Prefix, std::size_t> out;
  for (const auto& [key, churn] : entries()) {
    (void)churn;
    ++out[key.prefix];
  }
  return out;
}

ChurnAnalyzer AnalyzeChurnStream(feed::UpdateStream initial_rib,
                                 feed::UpdateStream updates, ChurnParams params,
                                 std::size_t threads) {
  const obs::ScopedSpan span("bgp.churn.analyze");
  // Drain both streams serially (interning happens here, single-threaded)
  // into one range per session, preserving each session's relative (time)
  // order. A (session, prefix) state only ever sees its own session's
  // updates, so per-session analysis is exactly equivalent to serial
  // consumption of the interleaved stream.
  struct SessionRange {
    SessionId session = 0;
    std::vector<feed::UpdateRec> records;
    std::size_t rib_end = 0;  // records before it index the RIB's table
  };
  std::vector<SessionRange> ranges;
  util::FlatIndex range_of;  // session -> index into `ranges`
  const auto drain = [&](feed::UpdateStream& stream) {
    std::vector<feed::UpdateRec> batch;
    while (stream.Next(batch)) {
      for (const feed::UpdateRec& rec : batch) {
        bool added = false;
        const std::uint32_t i = range_of.FindOrInsert(
            rec.session, static_cast<std::uint32_t>(ranges.size()), added);
        if (added) ranges.push_back({rec.session, {}, 0});
        ranges[i].records.push_back(rec);
      }
    }
    // Release the stream's source (a FromRecords copy of the feed) before
    // the analysis allocates its states.
    stream = feed::UpdateStream();
  };
  const std::shared_ptr<feed::AsPathTable> rib_table = initial_rib.paths();
  const std::shared_ptr<feed::AsPathTable> upd_table = updates.paths();
  drain(initial_rib);
  for (SessionRange& range : ranges) range.rib_end = range.records.size();
  drain(updates);
  std::sort(ranges.begin(), ranges.end(),
            [](const SessionRange& a, const SessionRange& b) { return a.session < b.session; });

  struct Analyzed {
    std::map<SessionPrefixKey, SessionPrefixChurn> entries;
    std::size_t dropped = 0;
  };
  ChurnAnalyzer merged(params);
  // Workers only read the tables (const accessors); interning is done.
  std::vector<Analyzed> analyzed = exec::ParallelMap(
      threads, ranges.size(),
      [&](std::size_t i) {
        const obs::ScopedSpan partition_span("bgp.churn.partition");
        const std::vector<feed::UpdateRec>& records = ranges[i].records;
        const std::size_t rib_end = ranges[i].rib_end;
        // Number the session's prefixes by first sight, then counting-sort
        // the record positions by prefix slot, stably: each key keeps its
        // stream order. Slot s owns order[first[s], first[s + 1]).
        ChurnAnalyzer::Partition keys;
        keys.session = ranges[i].session;
        std::vector<std::uint32_t> slot_of(records.size());
        std::vector<std::uint32_t> first;  // record count per slot, then offsets
        for (std::size_t r = 0; r < records.size(); ++r) {
          slot_of[r] = keys.SlotOf(records[r].prefix);
          if (slot_of[r] == first.size()) first.push_back(0);
          ++first[slot_of[r]];
        }
        std::uint32_t total = 0;
        for (std::uint32_t& offset : first) total += std::exchange(offset, total);
        first.push_back(total);
        std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
        std::vector<std::uint32_t> order(records.size());
        for (std::size_t r = 0; r < records.size(); ++r) {
          order[next[slot_of[r]]++] = static_cast<std::uint32_t>(r);
        }
        std::vector<std::uint32_t>().swap(slot_of);

        util::FlatU64Set seen;
        ChurnAnalyzer::Tally tally;
        tally.consumed = records.size();
        ChurnAnalyzer::State state;
        Analyzed out;
        for (const std::uint32_t slot : keys.SlotsByPrefix()) {
          state.Reset();
          for (std::uint32_t k = first[slot]; k < first[slot + 1]; ++k) {
            const std::uint32_t r = order[k];
            merged.Step(state, records[r], r < rib_end ? *rib_table : *upd_table, seen,
                        tally);
          }
          out.entries.emplace_hint(out.entries.end(),
                                   SessionPrefixKey{keys.session, keys.prefixes[slot]},
                                   merged.FinishKey(state));
        }
        std::vector<feed::UpdateRec>().swap(ranges[i].records);
        ChurnAnalyzer::Publish(tally);
        out.dropped = tally.dropped;
        return out;
      },
      /*grain=*/1);

  // Splice in ascending session order; key spaces are disjoint.
  merged.finished_ = true;
  for (Analyzed& partial : analyzed) {
    while (!partial.entries.empty()) {
      merged.results_.insert(merged.results_.end(),
                             partial.entries.extract(partial.entries.begin()));
    }
    merged.dropped_out_of_order_ += partial.dropped;
  }
  return merged;
}

}  // namespace quicksand::bgp
