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
#include <unordered_map>
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
/// FNV hash of that set (the churn analyzer's distinct-set key), and a
/// content hash of the hop sequence. Entries are stable: references
/// returned by the accessors stay valid for the table's lifetime.
///
/// Not thread-safe for concurrent Intern; concurrent read-only access is
/// fine. The deterministic pipelines intern serially (source stages) and
/// read from parallel workers.
class AsPathTable {
 public:
  AsPathTable();

  /// Returns the id of `path`, interning it on first sight. Sets `*hit`
  /// (when non-null) to true iff the path was already interned.
  /// Maintains the `feed.intern.hits` / `feed.intern.misses` counters and
  /// the `feed.paths_interned` / `feed.intern.bytes` gauges.
  PathId Intern(const AsPath& path, bool* hit = nullptr);

  /// Pre-reserves index buckets for `expected_paths` distinct paths, so a
  /// source that knows its path population (a QMRT block table, a sized
  /// scenario) interns without rehash churn. Never shrinks.
  void Reserve(std::size_t expected_paths);

  /// Approximate heap footprint of the interned entries and their index —
  /// the value the `feed.intern.bytes` gauge reports.
  [[nodiscard]] std::size_t ApproxBytes() const noexcept { return approx_bytes_; }

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

  /// Content hash of the hop sequence (std::hash<AsPath>), table-independent.
  [[nodiscard]] std::uint64_t PathHash(PathId id) const { return entries_[id].path_hash; }

  /// Number of interned paths, including the empty path at id 0.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    AsPath path;
    std::vector<AsNumber> sorted_set;
    std::uint64_t set_hash = 0;
    std::uint64_t path_hash = 0;
  };

  // deque: entry references stay valid while the table grows.
  std::deque<Entry> entries_;
  std::unordered_map<AsPath, PathId> index_;
  std::size_t approx_bytes_ = 0;
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
/// plane. The path is not part of the key in either form, so both sorts
/// produce the same permutation of the same feed.
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
