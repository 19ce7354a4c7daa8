#include "bgp/feed.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bgp/feed_order.hpp"
#include "obs/metrics.hpp"

namespace quicksand::bgp::feed {

namespace {

/// Index occupancy bound: at most 3 of every 4 slots hold a path, so a
/// linear probe for a hit stays within a slot or two.
constexpr std::size_t kMaxLoadNum = 3;
constexpr std::size_t kMaxLoadDen = 4;
constexpr std::size_t kMinSlots = 64;

/// Smallest power-of-two slot count that holds `paths` under the load bound.
std::size_t SlotsFor(std::size_t paths) {
  std::size_t slots = kMinSlots;
  while (slots * kMaxLoadNum < paths * kMaxLoadDen) slots *= 2;
  return slots;
}

}  // namespace

AsPathTable::AsPathTable() {
  // Entry 0: the empty path (withdrawals). Interning it is a hit; it
  // never enters the index, and its arena run marks free slots.
  Entry empty;
  empty.set_hash = HashHops({});
  empty.path_hash = HashHops({});
  entries_.push_back(std::move(empty));
  ends_.emplace_back();
}

std::uint32_t AsPathTable::AppendRun(PathId id, std::span<const AsNumber> hops) {
  const std::size_t words = 2 + hops.size();
  if (blocks_.empty() || block_used_ + words > kBlockWords) {
    if (blocks_.size() >> (32 - kBlockBits) != 0) {
      throw std::length_error("AsPathTable: hop arena exceeds 2^32 words");
    }
    const std::size_t size = std::max(words, kBlockWords);
    blocks_.push_back(std::make_unique_for_overwrite<AsNumber[]>(size));
    arena_bytes_ += size * sizeof(AsNumber);
    block_used_ = 0;
  }
  const auto pos =
      static_cast<std::uint32_t>(((blocks_.size() - 1) << kBlockBits) | block_used_);
  AsNumber* run = blocks_.back().get() + block_used_;
  run[0] = id;
  run[1] = static_cast<AsNumber>(hops.size());
  std::copy(hops.begin(), hops.end(), run + 2);
  block_used_ += words;  // an oversized block is full: the next run opens a new one
  return pos;
}

void AsPathTable::Rehash(std::size_t slot_count) {
  std::vector<Slot> old(slot_count);
  old.swap(slots_);
  shift_ = 32 - std::countr_zero(slot_count);
  const std::size_t mask = slot_count - 1;
  for (const Slot& slot : old) {
    if (slot.run == 0) continue;
    std::size_t i = slot.tag >> shift_;
    while (slots_[i].run != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

PathId AsPathTable::Intern(std::span<const AsNumber> hops, bool* hit) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("feed.intern.hits", obs::Stability::kRun);
  if (hops.empty()) {
    if (hit != nullptr) *hit = true;
    hits.Increment();
    return kEmptyPath;
  }
  if (blocks_.empty()) {
    if (slots_.empty()) Rehash(kMinSlots);
    (void)AppendRun(kEmptyPath, {});  // position 0: the free-slot marker
  }
  const std::uint64_t hash = HashHops(hops);
  const auto tag = static_cast<std::uint32_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = tag >> shift_;
  for (; slots_[i].run != 0; i = (i + 1) & mask) {
    if (slots_[i].tag != tag) continue;
    const AsNumber* run = Run(slots_[i].run);
    if (run[1] == hops.size() && std::equal(hops.begin(), hops.end(), run + 2)) {
      if (hit != nullptr) *hit = true;
      hits.Increment();
      return run[0];
    }
  }
  if (hit != nullptr) *hit = false;

  const auto id = static_cast<PathId>(entries_.size());
  const std::uint32_t run = AppendRun(id, hops);
  if (entries_.size() * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
    // entries_.size() counts the empty path, so this keeps the index's
    // own occupancy strictly under the bound after the insert below.
    Rehash(slots_.size() * 2);
    mask = slots_.size() - 1;
    i = tag >> shift_;
    while (slots_[i].run != 0) i = (i + 1) & mask;
  }
  slots_[i] = Slot{tag, run};

  Entry entry;
  entry.path = AsPath(std::vector<AsNumber>(hops.begin(), hops.end()));
  entry.sorted_set.assign(hops.begin(), hops.end());
  std::sort(entry.sorted_set.begin(), entry.sorted_set.end());
  entry.sorted_set.erase(std::unique(entry.sorted_set.begin(), entry.sorted_set.end()),
                         entry.sorted_set.end());
  entry.set_hash = HashHops(entry.sorted_set);
  entry.path_hash = hash;
  entry_bytes_ += sizeof(Entry) + sizeof(Ends) +
                  (hops.size() + entry.sorted_set.size()) * sizeof(AsNumber);
  entries_.push_back(std::move(entry));
  Ends& ends = ends_.emplace_back();
  ends.origin = hops.back();
  for (std::size_t k = hops.size() - 1; k-- > 0;) {
    if (hops[k] != ends.origin) {
      ends.upstream = hops[k];
      break;
    }
  }

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
  bytes_gauge.Set(static_cast<std::int64_t>(ApproxBytes()));
  return id;
}

void AsPathTable::Reserve(std::size_t expected_paths) {
  const std::size_t slots = SlotsFor(expected_paths + 1);
  if (slots > slots_.size()) Rehash(slots);
}

std::size_t AsPathTable::ApproxBytes() const noexcept {
  return entry_bytes_ + arena_bytes_ + slots_.size() * sizeof(Slot);
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

void SortRecords(std::vector<UpdateRec>& records) { StableSortFeed(records); }

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
  static obs::Gauge& peak = obs::MetricsRegistry::Global().GetGauge(
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
