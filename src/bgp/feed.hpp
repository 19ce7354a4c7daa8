#pragma once

// Streaming feed data plane: chunked pull-based update streams with
// interned AS-paths — the read side of every collector pipeline.
//
// Real collector feeds are huge but repetitive — a month of updates on one
// (session, prefix) reuses a handful of distinct AS-paths. The feed layer
// exploits both properties:
//
//   * `UpdateStream` hands consumers bounded *batches* of a compact
//     `UpdateRec` instead of one materialized `std::vector<BgpUpdate>`
//     per pipeline hand-off, so peak resident updates are bounded by the
//     batch size for genuinely incremental stages (parsing, analysis)
//     rather than by the feed length;
//   * `AsPathTable` interns every distinct `AsPath` once and precomputes
//     the sorted distinct-AS set (and its hash) per *path*, not per
//     *update* — the churn analyzer's hot sort/dedup runs once per
//     interned path.
//
// `UpdateRec` + `AsPathTable` is the only input the analysis stages
// accept (session-reset filter, sanitizer, churn analyzer, relay
// monitor). `BgpUpdate` stays the write side's type (generator, fault
// injector, codecs); `ToRecord` / `FromVector` cross onto the record
// plane and `Materialize` crosses back. Operations that need the whole
// feed (ordering repair, session-reset filtering) `Drain` their source,
// transform the record vector, and re-stream it with `FromRecords`.
//
// Determinism contract: a stream's *content* (the concatenation of its
// batches) never depends on batch size or thread count; only the
// `feed.*` metrics (batch counts, peak residency, intern telemetry),
// registered obs::Stability::kRun, may vary (docs/ARCHITECTURE.md).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bgp/path.hpp"
#include "bgp/update.hpp"

namespace quicksand::bgp::feed {

/// Index of an interned AS-path within an AsPathTable.
using PathId = std::uint32_t;

/// The empty path. Withdrawals carry it; every table interns it at id 0.
inline constexpr PathId kEmptyPath = 0;

/// Default batch size for stream hand-offs. Large enough to amortize the
/// per-batch virtual-call/metric cost, small enough that a resident batch
/// is negligible next to a month-long feed.
inline constexpr std::size_t kDefaultBatchSize = 4096;

/// Intern pool for AS-paths. Interning a path once precomputes everything
/// the analyzers repeatedly need from it: the sorted distinct-AS set, the
/// FNV hash of that set (the churn analyzer's distinct-set key), a
/// content hash of the hop sequence, and the origin and its upstream (the
/// relay monitor's per-announcement facts). Entries are stable:
/// references returned by the accessors stay valid for the table's
/// lifetime.
///
/// The index is open addressing (linear probing) over the 64-bit
/// PathHash. A slot holds 32 bits of the mixed hash as a tag and the
/// position of the path's run (id, length, hops) in a hop arena; a tag
/// match is confirmed against the run, and on a mismatch the probe keeps
/// going, so paths that share a hash get distinct ids. A hit reads one
/// slot and one run, never an entry. The arena grows by fixed blocks and
/// never copies, so the 8-byte slots are the only buffer that regrows.
///
/// Not thread-safe for concurrent Intern; concurrent read-only access is
/// fine. The deterministic pipelines intern serially (source stages) and
/// read from parallel workers.
class AsPathTable {
 public:
  AsPathTable();

  /// Returns the id of the path `hops`, interning it on first sight. Sets
  /// `*hit` (when non-null) to true iff the path was already interned.
  /// Maintains the `feed.intern.hits` / `feed.intern.misses` counters and
  /// the `feed.paths_interned` / `feed.intern.bytes` gauges. A source that
  /// parses or decodes into a reused hop buffer interns it here with no
  /// allocation on a hit.
  PathId Intern(std::span<const AsNumber> hops, bool* hit = nullptr);

  PathId Intern(const AsPath& path, bool* hit = nullptr) {
    return Intern(std::span<const AsNumber>(path.hops()), hit);
  }

  /// Pre-sizes the index for `expected_paths` distinct paths, so a source
  /// that knows its path population (a sized scenario) interns without
  /// rehashing. Never shrinks.
  void Reserve(std::size_t expected_paths);

  /// Approximate heap footprint of the interned entries, the hop arena
  /// and the index — the value the `feed.intern.bytes` gauge reports.
  /// Zero for a fresh table.
  [[nodiscard]] std::size_t ApproxBytes() const noexcept;

  [[nodiscard]] const AsPath& Path(PathId id) const { return entries_[id].path; }

  /// The distinct ASes of the path, sorted ascending — computed once at
  /// intern time (the per-update sort/dedup the churn analyzer used to
  /// pay is hoisted here).
  [[nodiscard]] const std::vector<AsNumber>& SortedSet(PathId id) const {
    return entries_[id].sorted_set;
  }

  /// FNV-1a hash over SortedSet(id) — identical to the churn analyzer's
  /// historical per-update set hash.
  [[nodiscard]] std::uint64_t SetHash(PathId id) const { return entries_[id].set_hash; }

  /// Content hash of the hop sequence (HashHops, as std::hash<AsPath>),
  /// table-independent.
  [[nodiscard]] std::uint64_t PathHash(PathId id) const { return entries_[id].path_hash; }

  /// The origin AS (the last hop); 0 for the empty path.
  [[nodiscard]] AsNumber Origin(PathId id) const { return ends_[id].origin; }

  /// The AS adjacent to the origin, skipping the origin's prepends; 0 when
  /// no other AS is on the path (AS 0 is never a valid hop, RFC 7607).
  [[nodiscard]] AsNumber OriginUpstream(PathId id) const { return ends_[id].upstream; }

  /// Number of interned paths, including the empty path at id 0.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    AsPath path;
    std::vector<AsNumber> sorted_set;
    std::uint64_t set_hash = 0;
    std::uint64_t path_hash = 0;
  };

  /// Origin and upstream per path, beside the entries: a consumer reading
  /// them for every record touches 8 bytes per path. A deque, like the
  /// entries, so growth neither copies nor over-allocates.
  struct Ends {
    AsNumber origin = 0;
    AsNumber upstream = 0;
  };

  /// One index slot: the top 32 bits of the path's mixed hash (its tag)
  /// and the position of its run in the hop arena. Position 0 holds the
  /// empty path's run, which never enters the index, so it marks a free
  /// slot.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t run = 0;
  };

  /// Arena runs are [id, length, hops...], packed into fixed blocks of
  /// 2^kBlockBits words; a run position is (block << kBlockBits) | offset.
  /// A run longer than a block gets a block of its own.
  static constexpr int kBlockBits = 14;
  static constexpr std::size_t kBlockWords = std::size_t{1} << kBlockBits;

  [[nodiscard]] const AsNumber* Run(std::uint32_t pos) const noexcept {
    return blocks_[pos >> kBlockBits].get() + (pos & (kBlockWords - 1));
  }
  /// Appends the run of path `id` and returns its position.
  std::uint32_t AppendRun(PathId id, std::span<const AsNumber> hops);
  /// Rebuilds the index with `slot_count` (a power of two) slots.
  void Rehash(std::size_t slot_count);

  // deque: entry references stay valid while the table grows.
  std::deque<Entry> entries_;
  std::deque<Ends> ends_;  ///< by PathId
  std::vector<std::unique_ptr<AsNumber[]>> blocks_;
  std::size_t block_used_ = 0;  ///< words used in blocks_.back()
  std::vector<Slot> slots_;     ///< empty until the first non-empty intern
  int shift_ = 32;              ///< 32 - log2(slots_.size()): a tag's top bits pick its home
  std::size_t entry_bytes_ = 0;
  std::size_t arena_bytes_ = 0;
};

/// One update on the stream: BgpUpdate with the owning AsPath replaced by
/// a 32-bit id into the stream's AsPathTable.
struct UpdateRec {
  netbase::SimTime time;
  SessionId session = 0;
  UpdateType type = UpdateType::kAnnounce;
  netbase::Prefix prefix;
  PathId path = kEmptyPath;

  friend bool operator==(const UpdateRec&, const UpdateRec&) = default;
};

/// Converts one record back to the materialized form (copies the path).
[[nodiscard]] BgpUpdate ToBgpUpdate(const UpdateRec& rec, const AsPathTable& table);

/// Interns `update.path` into `table` and returns the compact record.
[[nodiscard]] UpdateRec ToRecord(const BgpUpdate& update, AsPathTable& table);

/// Interns `updates` into `table`: the feed on the record plane, in input
/// order. A filter or sanitizer compares path ids, so intern its RIB and
/// its updates into one table.
[[nodiscard]] std::vector<UpdateRec> InternRecords(AsPathTable& table,
                                                   std::span<const BgpUpdate> updates);

/// Stable sort by (time, session, prefix) — SortUpdates on the record
/// plane, through the same kernel (bgp/feed_order.hpp). The path is not
/// part of the key in either form, so both sorts produce the same
/// permutation of the same feed: std::stable_sort's.
void SortRecords(std::vector<UpdateRec>& records);

/// A pull-based chunked stream of UpdateRec batches.
///
/// `Next` fills `batch` (clearing it first) with the next chunk and
/// returns true, or returns false at end of stream (batch left empty).
/// After the first false, further calls keep returning false. Batches
/// arrive in feed order; concatenating them yields exactly the stream's
/// content.
///
/// Every stream carries (shares) the AsPathTable its records index into;
/// a consumer resolves path ids through `paths()`.
class UpdateStream {
 public:
  using PullFn = std::function<bool(std::vector<UpdateRec>&)>;

  /// An exhausted stream over an empty table.
  UpdateStream();

  UpdateStream(std::shared_ptr<AsPathTable> table, PullFn pull);

  /// Pulls the next batch. Updates `feed.batches`,
  /// `feed.updates_streamed`, and the `feed.peak_resident_updates` gauge
  /// (the largest single batch handed to any consumer so far — the
  /// streaming pipelines' peak hand-off residency).
  bool Next(std::vector<UpdateRec>& batch);

  [[nodiscard]] const std::shared_ptr<AsPathTable>& paths() const noexcept {
    return table_;
  }

 private:
  std::shared_ptr<AsPathTable> table_;
  PullFn pull_;
  bool exhausted_ = false;
};

/// Streams `updates` in batches, interning paths into `table` as batches
/// are pulled. The span is NOT copied: it must outlive the stream.
[[nodiscard]] UpdateStream FromVector(std::shared_ptr<AsPathTable> table,
                                      std::span<const BgpUpdate> updates,
                                      std::size_t batch_size = kDefaultBatchSize);

/// Streams already-compact records (which must index into `table`).
[[nodiscard]] UpdateStream FromRecords(std::shared_ptr<AsPathTable> table,
                                       std::vector<UpdateRec> records,
                                       std::size_t batch_size = kDefaultBatchSize);

/// Drains the stream into compact records (batch-bounded hand-offs, one
/// final materialization).
[[nodiscard]] std::vector<UpdateRec> Drain(UpdateStream& stream);

/// Adapter back to the materialized world: drains the stream and rebuilds
/// full BgpUpdates. Concatenated batches in, vector out — byte-identical
/// to whatever the stream's source would have produced materialized.
[[nodiscard]] std::vector<BgpUpdate> Materialize(UpdateStream stream);

}  // namespace quicksand::bgp::feed
