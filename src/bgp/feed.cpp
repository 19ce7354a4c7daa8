#include "bgp/feed.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"

namespace quicksand::bgp::feed {

namespace {

/// FNV-1a over a sorted AS set — must stay identical to the churn
/// analyzer's historical HashAsSet so interned-set keys reproduce the
/// pre-interning distinct-set counts bit for bit.
std::uint64_t HashSortedSet(const std::vector<AsNumber>& sorted) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (AsNumber as : sorted) {
    h ^= as;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

AsPathTable::AsPathTable() {
  // Entry 0: the empty path (withdrawals). Interning it is a hit.
  Entry empty;
  empty.set_hash = HashSortedSet({});
  empty.path_hash = std::hash<AsPath>{}(AsPath{});
  entries_.push_back(std::move(empty));
  index_.emplace(AsPath{}, kEmptyPath);
}

PathId AsPathTable::Intern(const AsPath& path, bool* hit) {
  const auto it = index_.find(path);
  if (it != index_.end()) {
    if (hit != nullptr) *hit = true;
    static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
        "feed.intern.hits", obs::Stability::kRun);
    hits.Increment();
    return it->second;
  }
  if (hit != nullptr) *hit = false;
  Entry entry;
  entry.path = path;
  entry.sorted_set = path.DistinctAses();
  std::sort(entry.sorted_set.begin(), entry.sorted_set.end());
  entry.set_hash = HashSortedSet(entry.sorted_set);
  entry.path_hash = std::hash<AsPath>{}(path);
  const PathId id = static_cast<PathId>(entries_.size());
  entries_.push_back(std::move(entry));
  index_.emplace(path, id);
  // Entry + index-key footprint: the hop vector is stored twice (entry
  // and index key), the sorted set once, plus the fixed structures.
  approx_bytes_ += sizeof(Entry) + sizeof(std::pair<const AsPath, PathId>) +
                   2 * path.size() * sizeof(AsNumber) +
                   entries_.back().sorted_set.size() * sizeof(AsNumber);
  static obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "feed.intern.misses", obs::Stability::kRun);
  misses.Increment();
  // Static refs like the counters above: the registry lookup is a string
  // hash per call, which at tens of thousands of misses per feed shows up
  // in decode profiles. Gauges are process-global, so caching is sound.
  static obs::Gauge& paths_gauge = obs::MetricsRegistry::Global().GetGauge(
      "feed.paths_interned", obs::Stability::kRun);
  paths_gauge.Set(static_cast<std::int64_t>(entries_.size() - 1));  // excl. empty path
  // Codec-table residency: how much heap the intern pool costs the
  // pipeline (docs/OBSERVABILITY.md).
  static obs::Gauge& bytes_gauge = obs::MetricsRegistry::Global().GetGauge(
      "feed.intern.bytes", obs::Stability::kRun);
  bytes_gauge.Set(static_cast<std::int64_t>(approx_bytes_));
  return id;
}

void AsPathTable::Reserve(std::size_t expected_paths) {
  if (expected_paths <= index_.bucket_count()) return;
  index_.reserve(expected_paths);
}

BgpUpdate ToBgpUpdate(const UpdateRec& rec, const AsPathTable& table) {
  return BgpUpdate{rec.time, rec.session, rec.type, rec.prefix, table.Path(rec.path)};
}

UpdateRec ToRecord(const BgpUpdate& update, AsPathTable& table) {
  UpdateRec rec;
  rec.time = update.time;
  rec.session = update.session;
  rec.type = update.type;
  rec.prefix = update.prefix;
  rec.path = update.path.empty() ? kEmptyPath : table.Intern(update.path);
  return rec;
}

std::vector<UpdateRec> InternRecords(AsPathTable& table, std::span<const BgpUpdate> updates) {
  std::vector<UpdateRec> records;
  records.reserve(updates.size());
  for (const BgpUpdate& update : updates) records.push_back(ToRecord(update, table));
  return records;
}

void SortRecords(std::vector<UpdateRec>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const UpdateRec& a, const UpdateRec& b) {
                     return std::tie(a.time.seconds, a.session, a.prefix) <
                            std::tie(b.time.seconds, b.session, b.prefix);
                   });
}

UpdateStream::UpdateStream()
    : table_(std::make_shared<AsPathTable>()),
      pull_([](std::vector<UpdateRec>&) { return false; }),
      exhausted_(true) {}

UpdateStream::UpdateStream(std::shared_ptr<AsPathTable> table, PullFn pull)
    : table_(std::move(table)), pull_(std::move(pull)) {}

bool UpdateStream::Next(std::vector<UpdateRec>& batch) {
  batch.clear();
  if (exhausted_) return false;
  if (!pull_(batch)) {
    exhausted_ = true;
    batch.clear();
    return false;
  }
  static obs::Counter& batches =
      obs::MetricsRegistry::Global().GetCounter("feed.batches", obs::Stability::kRun);
  static obs::Counter& streamed = obs::MetricsRegistry::Global().GetCounter(
      "feed.updates_streamed", obs::Stability::kRun);
  batches.Increment();
  streamed.Increment(batch.size());
  // Max over all batches ever delivered: the hand-off residency bound the
  // micro_substrates streaming case reports. Benign under concurrent
  // streams (registered kRun).
  obs::Gauge& peak = obs::MetricsRegistry::Global().GetGauge(
      "feed.peak_resident_updates", obs::Stability::kRun);
  const auto size = static_cast<std::int64_t>(batch.size());
  if (size > peak.value()) peak.Set(size);
  return true;
}

UpdateStream FromVector(std::shared_ptr<AsPathTable> table,
                        std::span<const BgpUpdate> updates, std::size_t batch_size) {
  if (batch_size == 0) batch_size = kDefaultBatchSize;
  AsPathTable* raw_table = table.get();
  auto next = std::make_shared<std::size_t>(0);
  return UpdateStream(
      std::move(table),
      [updates, next = std::move(next), raw_table,
       batch_size](std::vector<UpdateRec>& out) {
        if (*next >= updates.size()) return false;
        const std::size_t end = std::min(*next + batch_size, updates.size());
        out.reserve(end - *next);
        for (; *next < end; ++*next) out.push_back(ToRecord(updates[*next], *raw_table));
        return true;
      });
}

UpdateStream FromRecords(std::shared_ptr<AsPathTable> table,
                         std::vector<UpdateRec> records, std::size_t batch_size) {
  if (batch_size == 0) batch_size = kDefaultBatchSize;
  struct State {
    std::vector<UpdateRec> records;
    std::size_t next = 0;
  };
  auto state = std::make_shared<State>();
  state->records = std::move(records);
  return UpdateStream(std::move(table),
                      [state = std::move(state), batch_size](std::vector<UpdateRec>& out) {
                        if (state->next >= state->records.size()) return false;
                        const std::size_t end =
                            std::min(state->next + batch_size, state->records.size());
                        out.assign(state->records.begin() +
                                       static_cast<std::ptrdiff_t>(state->next),
                                   state->records.begin() +
                                       static_cast<std::ptrdiff_t>(end));
                        state->next = end;
                        return true;
                      });
}

std::vector<UpdateRec> Drain(UpdateStream& stream) {
  std::vector<UpdateRec> all;
  std::vector<UpdateRec> batch;
  while (stream.Next(batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

std::vector<BgpUpdate> Materialize(UpdateStream stream) {
  std::vector<BgpUpdate> out;
  std::vector<UpdateRec> batch;
  while (stream.Next(batch)) {
    // No per-batch exact reserve: reserving size()+batch.size() on every
    // pull pins capacity to the running total and forces a reallocation
    // (and a full move of every accumulated update) per batch — O(n^2/b)
    // moves across the feed. push_back's geometric growth amortizes.
    for (const UpdateRec& rec : batch) {
      out.push_back(ToBgpUpdate(rec, *stream.paths()));
    }
  }
  return out;
}

}  // namespace quicksand::bgp::feed
