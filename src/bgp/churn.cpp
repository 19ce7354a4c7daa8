#include "bgp/churn.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"

namespace quicksand::bgp {

void ChurnAnalyzer::ConsumeRecord(const feed::UpdateRec& rec,
                                  const feed::AsPathTable& table) {
  if (finished_) throw std::logic_error("ChurnAnalyzer: ConsumeRecord after Finish");
  static obs::Counter& consumed =
      obs::MetricsRegistry::Global().GetCounter("bgp.churn.updates_consumed");
  consumed.Increment();
  State& state = states_[SessionPrefixKey{rec.session, rec.prefix}];
  const std::int64_t time_s = rec.time.seconds;
  if (time_s < state.last_time_s) {
    // Out-of-order arrival (delay jitter the sanitizer could not repair):
    // processing it would close dwell intervals backwards in time, so it
    // is dropped and counted instead of crashing the analysis.
    ++dropped_out_of_order_;
    obs::MetricsRegistry::Global()
        .GetCounter("bgp.churn.dropped_out_of_order")
        .Increment();
    return;
  }
  state.last_time_s = time_s;
  if (rec.type == UpdateType::kAnnounce) {
    if (!seen_path_hashes_.insert(table.PathHash(rec.path)).second) {
      // This path's sorted set was already computed — the per-update
      // sort/dedup the pre-interning analyzer paid is skipped. Lazily
      // registered so churn-free pipelines leave no counter behind.
      static obs::Counter& cache_hits =
          obs::MetricsRegistry::Global().GetCounter("bgp.churn.path_set_cache_hits");
      cache_hits.Increment();
    }
    Announce(state, time_s, table.SortedSet(rec.path), table.SetHash(rec.path));
  } else {
    Withdraw(state, time_s);
  }
}

void ChurnAnalyzer::ConsumeStream(feed::UpdateStream& stream) {
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) ConsumeRecord(rec, *stream.paths());
  }
}

void ChurnAnalyzer::Announce(State& state, std::int64_t now,
                             const std::vector<AsNumber>& as_set,
                             std::uint64_t set_hash) {
  ++state.announcements;
  state.distinct_sets.insert(set_hash);

  if (!state.has_baseline) {
    state.has_baseline = true;
    state.baseline = as_set;
  } else if (as_set != state.last_announced) {
    ++state.path_changes;
  }

  // Interval bookkeeping for extra (non-baseline) ASes.
  CloseIntervals(state, now, &as_set);
  for (AsNumber as : as_set) {
    const bool on_baseline =
        std::binary_search(state.baseline.begin(), state.baseline.end(), as);
    if (!on_baseline && !state.open_since.contains(as)) {
      state.open_since.emplace(as, now);
    }
  }

  state.last_announced = as_set;
  state.withdrawn = false;
}

void ChurnAnalyzer::Withdraw(State& state, std::int64_t now) {
  // A withdrawal is not a path change in the paper's definition, but it
  // does end the on-path intervals of every extra AS.
  CloseIntervals(state, now, nullptr);
  state.withdrawn = true;
}

void ChurnAnalyzer::CloseIntervals(State& state, std::int64_t now,
                                   const std::vector<AsNumber>* keep_sorted) {
  for (auto it = state.open_since.begin(); it != state.open_since.end();) {
    const bool still_on_path =
        keep_sorted != nullptr &&
        std::binary_search(keep_sorted->begin(), keep_sorted->end(), it->first);
    if (still_on_path) {
      ++it;
      continue;
    }
    if (now - it->second >= params_.dwell_threshold_s) {
      state.qualifying.insert(it->first);
    } else {
      state.glimpsed.insert(it->first);
    }
    it = state.open_since.erase(it);
  }
}

std::vector<AsNumber> ChurnAnalyzer::CurrentOnPathAses(
    const netbase::Prefix& prefix) const {
  std::vector<AsNumber> out;
  // states_ is keyed (session, prefix): scan every session's entry for
  // this prefix. Sessions are few (tens), so the scan is the whole map;
  // the daemon additionally answers only a handful of prefixes per query.
  for (const auto& [key, state] : states_) {
    if (key.prefix != prefix || state.withdrawn) continue;
    out.insert(out.end(), state.last_announced.begin(), state.last_announced.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ChurnAnalyzer::IsOnPath(AsNumber as, const netbase::Prefix& prefix) const {
  for (const auto& [key, state] : states_) {
    if (key.prefix != prefix || state.withdrawn) continue;
    if (std::binary_search(state.last_announced.begin(), state.last_announced.end(),
                           as)) {
      return true;
    }
  }
  return false;
}

void ChurnAnalyzer::Finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [key, state] : states_) {
    CloseIntervals(state, params_.window_end_s, nullptr);
    SessionPrefixChurn churn;
    churn.announcements = state.announcements;
    churn.path_changes = state.path_changes;
    churn.distinct_paths = state.distinct_sets.size();
    churn.qualifying_extra_ases.assign(state.qualifying.begin(), state.qualifying.end());
    std::sort(churn.qualifying_extra_ases.begin(), churn.qualifying_extra_ases.end());
    // Glimpse-only: never reached the threshold in any interval.
    for (AsNumber as : state.glimpsed) {
      if (!state.qualifying.contains(as)) churn.glimpsed_extra_ases.push_back(as);
    }
    std::sort(churn.glimpsed_extra_ases.begin(), churn.glimpsed_extra_ases.end());
    results_.emplace(key, std::move(churn));
  }
}

const std::map<SessionPrefixKey, SessionPrefixChurn>& ChurnAnalyzer::entries() const {
  if (!finished_) throw std::logic_error("ChurnAnalyzer: entries() before Finish()");
  return results_;
}

std::vector<double> ChurnAnalyzer::PathChangeCounts(SessionId session) const {
  std::vector<double> out;
  for (const auto& [key, churn] : entries()) {
    if (key.session == session) out.push_back(static_cast<double>(churn.path_changes));
  }
  return out;
}

double ChurnAnalyzer::MedianPathChanges(SessionId session) const {
  const auto counts = PathChangeCounts(session);
  if (counts.empty()) return 0;
  return util::Median(counts);
}

std::vector<double> ChurnAnalyzer::RatioToSessionMedian(
    const std::unordered_set<netbase::Prefix>& target_prefixes, double median_floor) const {
  // Precompute session medians once.
  std::map<SessionId, double> medians;
  for (const auto& [key, churn] : entries()) {
    (void)churn;
    if (!medians.contains(key.session)) {
      medians.emplace(key.session, MedianPathChanges(key.session));
    }
  }
  std::vector<double> ratios;
  for (const auto& [key, churn] : entries()) {
    if (!target_prefixes.contains(key.prefix)) continue;
    const double median = std::max(medians.at(key.session), median_floor);
    ratios.push_back(static_cast<double>(churn.path_changes) / median);
  }
  return ratios;
}

std::map<netbase::Prefix, std::size_t> ChurnAnalyzer::ExtraAsCountPerPrefix() const {
  std::map<netbase::Prefix, std::unordered_set<AsNumber>> unions;
  for (const auto& [key, churn] : entries()) {
    auto& set = unions[key.prefix];
    set.insert(churn.qualifying_extra_ases.begin(), churn.qualifying_extra_ases.end());
  }
  std::map<netbase::Prefix, std::size_t> out;
  for (const auto& [prefix, set] : unions) out.emplace(prefix, set.size());
  return out;
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
  // Drain both streams serially (interning happens here, single-threaded),
  // partitioning by session and preserving each session's relative (time)
  // order. A (session, prefix) state only ever sees its own session's
  // updates, so per-session analysis is exactly equivalent to serial
  // consumption of the interleaved stream. Records are compact (32-bit
  // path ids), so this drain holds ids, not owning paths.
  const std::shared_ptr<feed::AsPathTable> rib_table = initial_rib.paths();
  const std::shared_ptr<feed::AsPathTable> upd_table = updates.paths();
  std::map<SessionId,
           std::pair<std::vector<feed::UpdateRec>, std::vector<feed::UpdateRec>>>
      by_session;
  std::vector<feed::UpdateRec> batch;
  while (initial_rib.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) by_session[rec.session].first.push_back(rec);
  }
  while (updates.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) by_session[rec.session].second.push_back(rec);
  }

  std::vector<const std::pair<std::vector<feed::UpdateRec>,
                              std::vector<feed::UpdateRec>>*>
      partitions;
  partitions.reserve(by_session.size());
  for (const auto& [session, streams] : by_session) partitions.push_back(&streams);

  // Workers only read the tables (const accessors); interning is done.
  std::vector<ChurnAnalyzer> analyzed = exec::ParallelMap(
      threads, partitions.size(),
      [&](std::size_t i) {
        const obs::ScopedSpan partition_span("bgp.churn.partition");
        ChurnAnalyzer analyzer(params);
        for (const feed::UpdateRec& rec : partitions[i]->first) {
          analyzer.ConsumeRecord(rec, *rib_table);
        }
        for (const feed::UpdateRec& rec : partitions[i]->second) {
          analyzer.ConsumeRecord(rec, *upd_table);
        }
        analyzer.Finish();
        return analyzer;
      },
      /*grain=*/1);

  // Merge in ascending session order; key spaces are disjoint.
  ChurnAnalyzer merged(params);
  merged.finished_ = true;
  for (ChurnAnalyzer& partial : analyzed) {
    merged.results_.merge(partial.results_);
    merged.dropped_out_of_order_ += partial.dropped_out_of_order_;
  }
  return merged;
}

std::map<SessionId, std::size_t> ChurnAnalyzer::PrefixesPerSession() const {
  std::map<SessionId, std::size_t> out;
  for (const auto& [key, churn] : entries()) {
    (void)churn;
    ++out[key.session];
  }
  return out;
}

}  // namespace quicksand::bgp
