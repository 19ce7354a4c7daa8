#pragma once

// QMRT: compact binary serialization of BGP update streams.
//
// Real collectors speak binary MRT because textual archives do not survive
// Internet-scale feed volume; QMRT is this project's equivalent wire
// format, carrying exactly the fields of `BgpUpdate` in self-contained,
// checksummed blocks:
//
//   block   := "QMRT" version:u8 payload_size:u32le checksum:u32le payload
//   payload := path_table record*
//   path_table entry := stream_path_id:varint hop_bytes:varint hop:varint*
//
// Inside a payload every integer is an LEB128 varint; record timestamps
// are zigzag-delta-encoded against the previous record of the same block;
// AS paths are written once into a per-block intern table and referenced
// by local id, so a month of updates reusing a handful of paths pays for
// each path once per block, not once per announcement. Prefixes store the
// length plus only the significant network bytes. The checksum (folded
// FNV-1a-64 over 8-byte lanes of the payload) makes corruption fail
// closed: a damaged block is rejected whole, never half-decoded.
//
// Each table entry additionally names the path's *stream* id — the dense
// id the encoder assigned the path on first sight anywhere in the stream.
// A decoder reading blocks in sequence memoizes stream id → interned
// PathId and skips the hop bytes (and the hash-and-intern) of every path
// it has already seen, so interning work across a whole stream is
// proportional to the number of DISTINCT paths, not to the sum of block
// table sizes. Hops are length-prefixed in bytes (`hop_bytes`), so that
// skip is one offset add. The hop bytes are still present in every
// entry, so the memo is purely an accelerator:
//
// Blocks are self-contained — each carries its own path table (full hop
// bytes, usable with an empty memo) and delta base — so decode can start
// at any block boundary and a lost block costs exactly its records.
// Decode is zero-copy in the streaming sense: the source decodes straight
// from the input bytes into `feed::UpdateRec` batches with no per-record
// allocation and no intermediate text; paths are hashed and interned once
// per distinct path per stream.
//
// The text `mrt::` codec stays as the debug adapter: text→binary→text is
// a byte-identical round trip (docs/ARCHITECTURE.md, "Wire formats").
//
// Two decode modes mirror the text parser: strict (throws naming the bad
// block's index) and lenient (skips the damaged block, counts it, and
// resynchronizes on the next magic — docs/ROBUSTNESS.md).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/update.hpp"

namespace quicksand::bgp::qmrt {

/// The four magic bytes opening every block.
inline constexpr char kMagic[4] = {'Q', 'M', 'R', 'T'};

/// Current (and only) format version.
inline constexpr std::uint8_t kVersion = 1;

/// Fixed block header: magic(4) + version(1) + payload_size(4) + checksum(4).
inline constexpr std::size_t kHeaderBytes = 13;
inline constexpr std::size_t kVersionOffset = 4;
inline constexpr std::size_t kPayloadSizeOffset = 5;
inline constexpr std::size_t kChecksumOffset = 9;

/// Folded FNV-1a-64 over 8-byte lanes of `bytes` — the per-block payload
/// checksum. Exposed so tests and tools can craft or repair blocks.
[[nodiscard]] std::uint32_t Checksum(std::string_view bytes) noexcept;

struct EncodeOptions {
  /// Records per block. Also the decoder's natural batch granularity: one
  /// block decodes into at most this many resident records.
  std::size_t block_records = feed::kDefaultBatchSize;
};

/// Incremental block encoder: records are appended and serialized blocks
/// are flushed to the output as they fill, so encoding a stream never
/// builds a whole-dump copy. One encoder serves one record source: every
/// `Add(rec, table)` call must pass the same table, and the `BgpUpdate`
/// overload (which interns into an internal table) must not be mixed with
/// the record overload — the encoder's path-id bookkeeping is keyed on
/// that single table's ids and throws `std::logic_error` on a mix.
class BlockEncoder {
 public:
  explicit BlockEncoder(std::ostream& out, EncodeOptions options = {});
  ~BlockEncoder();

  BlockEncoder(const BlockEncoder&) = delete;
  BlockEncoder& operator=(const BlockEncoder&) = delete;

  void Add(const BgpUpdate& update);
  void Add(const feed::UpdateRec& rec, const feed::AsPathTable& table);

  /// Serializes and writes the partial block, if any. Called by the
  /// destructor; call explicitly to observe write errors.
  void Flush();

  [[nodiscard]] std::size_t written_records() const noexcept { return written_records_; }
  [[nodiscard]] std::size_t written_blocks() const noexcept { return written_blocks_; }
  [[nodiscard]] std::size_t written_bytes() const noexcept { return written_bytes_; }

 private:
  struct PendingRecord {
    feed::UpdateRec rec;
    std::uint32_t local_path = 0;  ///< index into block_paths_ (announce only)
  };

  /// What the encoder knows about one table path: its stream id, assigned
  /// densely on first sight, and its local id in the open block.
  struct PathSlot {
    std::uint32_t stream_id;
    std::uint32_t local_id;
  };

  std::uint32_t LocalPathId(feed::PathId id);

  std::ostream* out_;
  EncodeOptions options_;
  feed::AsPathTable own_table_;  ///< backs the BgpUpdate overload
  /// The one table this encoder's ids refer to (set on first Add).
  const feed::AsPathTable* bound_table_ = nullptr;
  /// Indexed by table PathId. Flush clears the local ids of block_paths_.
  std::vector<PathSlot> path_slots_;
  std::uint32_t next_stream_id_ = 0;
  std::vector<PendingRecord> pending_;
  /// The open block's path table: table PathIds in first-seen order.
  std::vector<feed::PathId> block_paths_;
  std::size_t written_records_ = 0;
  std::size_t written_blocks_ = 0;
  std::size_t written_bytes_ = 0;
};

/// Encodes `updates` to a QMRT byte string.
[[nodiscard]] std::string Encode(std::span<const BgpUpdate> updates,
                                 EncodeOptions options = {});

/// Drains `stream` into `out` block by block; returns the number of
/// records written. This is the binary sink endpoint, the sibling of
/// `mrt::WriteStream`.
std::size_t WriteStream(std::ostream& out, feed::UpdateStream stream,
                        EncodeOptions options = {});

/// What lenient decoding dropped, plus volume counters.
struct DecodeStats {
  std::size_t blocks = 0;          ///< blocks decoded successfully
  std::size_t records = 0;         ///< records emitted
  std::size_t skipped_blocks = 0;  ///< damaged blocks dropped (lenient mode)
  /// The first few errors, each "block <n>: <cause>".
  std::vector<std::string> first_errors;
};

struct DecodeOptions {
  /// Records per emitted batch (0 = feed::kDefaultBatchSize). Peak
  /// resident decoded-but-unemitted records are additionally bounded by
  /// the encoder's block_records, since decode is block-at-a-time.
  std::size_t batch_size = feed::kDefaultBatchSize;
  /// Lenient mode skips damaged blocks (counting them and resyncing on
  /// the next magic); strict mode throws naming the block index.
  bool lenient = false;
  std::size_t max_recorded_errors = 8;
  /// When set, receives the final DecodeStats once the stream is drained.
  std::shared_ptr<DecodeStats> stats;
};

/// Exposes QMRT bytes as a chunked `feed::UpdateStream`, decoding one
/// block at a time as batches are pulled and interning each block-table
/// path once into `table`. The bytes are NOT copied and must outlive the
/// stream. This is the binary source endpoint (`mrt::ParseStream`'s
/// fast sibling).
[[nodiscard]] feed::UpdateStream DecodeStream(std::shared_ptr<feed::AsPathTable> table,
                                              std::string_view bytes,
                                              DecodeOptions options = {});

/// Batch decode: every block of `bytes` straight into one record vector,
/// interning into `table`. Same strict/lenient semantics as DecodeStream
/// but without the per-batch hand-off copies — the bulk form of the
/// binary source for consumers that want the whole feed resident anyway.
[[nodiscard]] std::vector<feed::UpdateRec> DecodeRecords(feed::AsPathTable& table,
                                                         std::string_view bytes,
                                                         DecodeOptions options = {});

}  // namespace quicksand::bgp::qmrt
