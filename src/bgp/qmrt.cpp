#include "bgp/qmrt.hpp"

#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "netbase/prefix.hpp"
#include "obs/metrics.hpp"

namespace quicksand::bgp::qmrt {

namespace {

/// Thrown by payload decoding; callers translate to strict throws or
/// lenient skip-and-count.
struct BlockError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- varint / zigzag primitives -----------------------------------------

void PutVarint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// LEB128 decode with overflow detection: more than 10 bytes, or payload
/// bits past bit 63, fail closed.
std::uint64_t GetVarint(std::string_view bytes, std::size_t& offset) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (offset >= bytes.size()) throw BlockError("truncated varint");
    const auto byte = static_cast<std::uint8_t>(bytes[offset++]);
    const std::uint64_t payload = byte & 0x7F;
    if (shift == 63 && payload > 1) throw BlockError("varint overflow");
    value |= payload << shift;
    if ((byte & 0x80) == 0) return value;
  }
  throw BlockError("varint overflow");
}

/// GetVarint without per-byte bounds tests, for callers that proved 10
/// readable bytes in advance (the record fast path). Overflow detection
/// is identical.
std::uint64_t GetVarintUnchecked(std::string_view bytes, std::size_t& offset) {
  std::uint64_t value = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const auto byte = static_cast<std::uint8_t>(bytes[offset++]);
    const std::uint64_t payload = byte & 0x7F;
    if (shift == 63 && payload > 1) throw BlockError("varint overflow");
    value |= payload << shift;
    if ((byte & 0x80) == 0) return value;
  }
  throw BlockError("varint overflow");
}

/// One-byte inline fast path in front of GetVarintUnchecked. Almost every
/// varint in a record (type flags aside) is a single byte — session ids,
/// time deltas, local path ids — so the common case is a load, a test and
/// an increment with no call.
inline std::uint64_t GetVarintFast(std::string_view bytes, std::size_t& offset) {
  const auto byte = static_cast<std::uint8_t>(bytes[offset]);
  if ((byte & 0x80) == 0) {
    ++offset;
    return byte;
  }
  return GetVarintUnchecked(bytes, offset);
}

std::uint64_t Zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t Unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void PutU32le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t GetU32le(std::string_view bytes, std::size_t offset) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[offset])) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[offset + 1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[offset + 2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[offset + 3])) << 24);
}

/// Record flags: bit 0 = withdraw; the rest are reserved and must be zero
/// (a cheap corruption tripwire on top of the checksum).
constexpr std::uint8_t kFlagWithdraw = 0x01;
constexpr std::uint8_t kReservedFlagMask = 0xFE;

/// "Not yet assigned" sentinel for the encoder's stream and local path ids.
constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

/// Decode-side stream-id memo cap: ids at or above this are interned from
/// their hop bytes every block instead of cached, bounding the memo at
/// 64 MiB no matter what a hostile file claims.
constexpr std::uint64_t kMaxCachedStreamId = 1ull << 24;

}  // namespace

std::uint32_t Checksum(std::string_view bytes) noexcept {
  // FNV-1a over 8-byte little-endian lanes (tail bytes one at a time):
  // one multiply per word instead of per byte keeps the integrity pass a
  // small fraction of decode time at Internet-scale feed volume.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  for (; end - p >= 8; p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);  // compiles to one load on little-endian
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);  // keep the checksum platform-stable
#endif
    h ^= word;
    h *= 0x100000001b3ULL;
  }
  for (; p != end; ++p) {
    h ^= static_cast<std::uint8_t>(*p);
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::uint32_t>(h >> 32) ^ static_cast<std::uint32_t>(h);
}

// --- encoding ------------------------------------------------------------

BlockEncoder::BlockEncoder(std::ostream& out, EncodeOptions options)
    : out_(&out), options_(options) {
  if (options_.block_records == 0) options_.block_records = feed::kDefaultBatchSize;
}

BlockEncoder::~BlockEncoder() {
  try {
    Flush();
  } catch (...) {
    // Destructors must not throw; call Flush() explicitly to see errors.
  }
}

std::uint32_t BlockEncoder::LocalPathId(feed::PathId id) {
  if (path_slots_.size() <= id) path_slots_.resize(id + std::size_t{1}, PathSlot{kNoId, kNoId});
  PathSlot& slot = path_slots_[id];
  if (slot.local_id == kNoId) {
    // Local ids follow first sight in the block, stream ids first sight
    // in the stream.
    slot.local_id = static_cast<std::uint32_t>(block_paths_.size());
    block_paths_.push_back(id);
    if (slot.stream_id == kNoId) slot.stream_id = next_stream_id_++;
  }
  return slot.local_id;
}

void BlockEncoder::Add(const BgpUpdate& update) {
  Add(feed::ToRecord(update, own_table_), own_table_);
}

void BlockEncoder::Add(const feed::UpdateRec& rec, const feed::AsPathTable& table) {
  // Ids are only meaningful within one table; silently mixing tables would
  // alias unrelated paths in the per-stream bookkeeping.
  if (bound_table_ == nullptr) {
    bound_table_ = &table;
  } else if (bound_table_ != &table) {
    throw std::logic_error("qmrt: BlockEncoder fed from more than one AsPathTable");
  }
  PendingRecord pending;
  pending.rec = rec;
  if (rec.type == UpdateType::kAnnounce) {
    pending.local_path = LocalPathId(rec.path);
  }
  pending_.push_back(pending);
  if (pending_.size() >= options_.block_records) Flush();
}

void BlockEncoder::Flush() {
  if (pending_.empty()) return;

  std::string payload;
  // Rough pre-size: ~10 bytes per record plus the path table.
  payload.reserve(pending_.size() * 10 + block_paths_.size() * 16);

  // Per-block path intern table: each distinct path once, tagged with its
  // stream id so sequential decoders can skip paths they have memoized.
  PutVarint(payload, block_paths_.size());
  std::string hop_scratch;
  for (const feed::PathId id : block_paths_) {
    PutVarint(payload, path_slots_[id].stream_id);
    // Hops are length-prefixed in BYTES (not hop count) so a decoder that
    // has the path memoized skips the entry with one offset add.
    hop_scratch.clear();
    for (const AsNumber hop : bound_table_->Path(id)) PutVarint(hop_scratch, hop);
    PutVarint(payload, hop_scratch.size());
    payload.append(hop_scratch);
  }

  PutVarint(payload, pending_.size());
  std::int64_t prev_time = 0;
  for (const PendingRecord& p : pending_) {
    const feed::UpdateRec& rec = p.rec;
    const std::uint8_t flags = rec.type == UpdateType::kWithdraw ? kFlagWithdraw : 0;
    payload.push_back(static_cast<char>(flags));
    PutVarint(payload, Zigzag(rec.time.seconds - prev_time));
    prev_time = rec.time.seconds;
    PutVarint(payload, rec.session);
    const int length = rec.prefix.length();
    payload.push_back(static_cast<char>(length));
    const std::uint32_t network = rec.prefix.network().value();
    for (int bits = 0; bits < length; bits += 8) {
      payload.push_back(static_cast<char>((network >> (24 - bits)) & 0xFF));
    }
    if (rec.type == UpdateType::kAnnounce) PutVarint(payload, p.local_path);
  }

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof kMagic);
  header.push_back(static_cast<char>(kVersion));
  PutU32le(header, static_cast<std::uint32_t>(payload.size()));
  PutU32le(header, Checksum(payload));

  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  out_->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!*out_) throw std::runtime_error("qmrt: write failed");

  written_records_ += pending_.size();
  written_blocks_ += 1;
  written_bytes_ += header.size() + payload.size();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("qmrt.blocks_encoded", obs::Stability::kRun).Increment();
  registry.GetCounter("qmrt.records_encoded", obs::Stability::kRun)
      .Increment(pending_.size());
  registry.GetCounter("qmrt.bytes_encoded", obs::Stability::kRun)
      .Increment(header.size() + payload.size());

  pending_.clear();
  for (const feed::PathId id : block_paths_) path_slots_[id].local_id = kNoId;
  block_paths_.clear();
}

std::string Encode(std::span<const BgpUpdate> updates, EncodeOptions options) {
  std::ostringstream out;
  BlockEncoder encoder(out, options);
  for (const BgpUpdate& u : updates) encoder.Add(u);
  encoder.Flush();
  return std::move(out).str();
}

std::size_t WriteStream(std::ostream& out, feed::UpdateStream stream,
                        EncodeOptions options) {
  BlockEncoder encoder(out, options);
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) encoder.Add(rec, *stream.paths());
  }
  encoder.Flush();
  return encoder.written_records();
}

// --- decoding ------------------------------------------------------------

namespace {

/// "Not yet seen" sentinel in the decoder's stream-id -> PathId memo.
constexpr feed::PathId kNoPathId = 0xFFFFFFFFu;

/// Decodes one block payload (already checksum-verified), appending
/// records to `out` and interning paths into `table`. Throws BlockError
/// on any structural damage; the caller rolls back `out`, so a damaged
/// block never half-emits (fail closed). `stream_memo` (stream path id ->
/// interned PathId) persists across the blocks of one stream; paths it
/// already holds have their hop bytes skipped instead of re-hashed.
/// Interns and memo entries from a block that later fails are NOT rolled
/// back — they are content-addressed side tables, so a retained entry is
/// still correct.
void DecodePayload(std::string_view payload, feed::AsPathTable& table,
                   std::vector<feed::PathId>& stream_memo,
                   std::vector<feed::UpdateRec>& out) {
  std::size_t offset = 0;

  // Path table: intern each distinct path once per stream; records below
  // reference them by local id with no per-record hashing.
  const std::uint64_t path_count = GetVarint(payload, offset);
  if (path_count > payload.size()) throw BlockError("implausible path count");
  // No per-block table.Reserve hint: insertion's geometric index growth
  // amortizes; callers that know the final distinct-path count can
  // Reserve once up front.
  std::vector<feed::PathId> local_paths;
  local_paths.reserve(path_count);
  std::vector<AsNumber> hops;
  for (std::uint64_t i = 0; i < path_count; ++i) {
    const std::uint64_t stream_id = GetVarint(payload, offset);
    if (stream_id > 0xFFFFFFFFULL) throw BlockError("stream path id overflow");
    const std::uint64_t hop_bytes = GetVarint(payload, offset);
    if (hop_bytes > payload.size() - offset) {
      throw BlockError("implausible hop byte count");
    }
    const std::size_t hops_end = offset + static_cast<std::size_t>(hop_bytes);
    if (stream_id < stream_memo.size() && stream_memo[stream_id] != kNoPathId) {
      // Already interned earlier in this stream: the byte-length prefix
      // makes the skip a single offset add, independent of hop count.
      offset = hops_end;
      local_paths.push_back(stream_memo[stream_id]);
      continue;
    }
    hops.clear();
    while (offset < hops_end) {
      const std::uint64_t as = GetVarint(payload, offset);
      if (as > 0xFFFFFFFFULL) throw BlockError("AS number overflow");
      hops.push_back(static_cast<AsNumber>(as));
    }
    if (offset != hops_end) throw BlockError("misaligned hop bytes");
    const feed::PathId id = table.Intern(hops);
    if (stream_id < kMaxCachedStreamId) {
      if (stream_memo.size() <= stream_id) {
        stream_memo.resize(static_cast<std::size_t>(stream_id) + 1, kNoPathId);
      }
      stream_memo[static_cast<std::size_t>(stream_id)] = id;
    }
    local_paths.push_back(id);
  }

  const std::uint64_t record_count = GetVarint(payload, offset);
  if (record_count > payload.size()) throw BlockError("implausible record count");
  // No exact reserve here: when `out` accumulates a whole stream (the
  // DecodeRecords bulk path) a size()+record_count reserve would force a
  // reallocation per block — push_back's geometric growth amortizes.
  std::int64_t prev_time = 0;
  // A record reads at most 1 (flags) + 10 (time) + 10 (session) + 1
  // (prefix length) + 4 (network bytes) + 10 (path id) = 36 bytes, so any
  // record starting this far from the end can use unchecked reads — every
  // per-byte bounds test is hoisted into this one slack comparison. The
  // semantic checks (flags, overflow, ranges) are identical on both paths.
  constexpr std::size_t kMaxRecordBytes = 36;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    const bool fast = payload.size() - offset >= kMaxRecordBytes;
    if (!fast && offset >= payload.size()) throw BlockError("truncated record");
    const auto flags = static_cast<std::uint8_t>(payload[offset++]);
    if ((flags & kReservedFlagMask) != 0) throw BlockError("reserved flag bits set");
    feed::UpdateRec rec;
    rec.type = (flags & kFlagWithdraw) != 0 ? UpdateType::kWithdraw
                                            : UpdateType::kAnnounce;
    const std::int64_t delta = Unzigzag(fast ? GetVarintFast(payload, offset)
                                             : GetVarint(payload, offset));
    rec.time.seconds = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(prev_time) + static_cast<std::uint64_t>(delta));
    prev_time = rec.time.seconds;
    const std::uint64_t session =
        fast ? GetVarintFast(payload, offset) : GetVarint(payload, offset);
    if (session > 0xFFFFFFFFULL) throw BlockError("session id overflow");
    rec.session = static_cast<SessionId>(session);
    if (!fast && offset >= payload.size()) throw BlockError("truncated record");
    const int length = static_cast<std::uint8_t>(payload[offset++]);
    if (length > 32) throw BlockError("prefix length > 32");
    std::uint32_t network = 0;
    if (fast) {
      // Branchless network load: read four bytes (the slack check above
      // guarantees readability), keep the (length+7)/8 significant ones.
      // Bits between `length` and the byte boundary survive the byte mask
      // exactly as in the per-byte loop; the canonicality check below
      // rejects them identically.
      const int nbytes = (length + 7) >> 3;
      const std::uint32_t raw =
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[offset])) << 24) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[offset + 1])) << 16) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[offset + 2])) << 8) |
          static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[offset + 3]));
      network = nbytes == 0 ? 0 : raw & (0xFFFFFFFFu << ((4 - nbytes) * 8));
      offset += static_cast<std::size_t>(nbytes);
    } else {
      for (int bits = 0; bits < length; bits += 8) {
        if (offset >= payload.size()) throw BlockError("truncated prefix");
        network |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(payload[offset++]))
                   << (24 - bits);
      }
    }
    if ((network & ~netbase::Prefix::MaskFor(length)) != 0) {
      throw BlockError("noncanonical prefix (host bits set)");
    }
    rec.prefix = netbase::Prefix(netbase::Ipv4Address(network), length);
    if (rec.type == UpdateType::kAnnounce) {
      const std::uint64_t local =
          fast ? GetVarintFast(payload, offset) : GetVarint(payload, offset);
      if (local >= local_paths.size()) throw BlockError("path id out of range");
      rec.path = local_paths[static_cast<std::size_t>(local)];
    } else {
      rec.path = feed::kEmptyPath;
    }
    out.push_back(rec);
  }
  if (offset != payload.size()) throw BlockError("trailing bytes in payload");
}

/// Decode-side cursor over a QMRT byte range. One instance per stream;
/// strict/lenient policy lives here so DecodeStream and DecodeRecords
/// share it.
struct BlockCursor {
  std::string_view bytes;
  DecodeOptions options;
  std::size_t offset = 0;
  std::size_t block_index = 0;  ///< blocks attempted so far (error labels)
  /// stream path id -> interned PathId, shared by every block of this
  /// stream (the decode-side half of the encoder's stream-id tagging).
  std::vector<feed::PathId> stream_memo;
  DecodeStats stats;
  bool finished = false;

  void RecordError(const std::string& cause) {
    if (stats.first_errors.size() < options.max_recorded_errors) {
      stats.first_errors.push_back("block " + std::to_string(block_index) + ": " + cause);
    }
  }

  [[noreturn]] void Fail(const std::string& cause) {
    throw std::runtime_error("qmrt: block " + std::to_string(block_index) + ": " + cause);
  }

  /// Skips to the next magic at or after `from` (lenient resync).
  void Resync(std::size_t from) {
    const std::string_view magic(kMagic, sizeof kMagic);
    const std::size_t next = bytes.find(magic, from);
    offset = next == std::string_view::npos ? bytes.size() : next;
  }

  /// Decodes the next block into `out`. Returns false at (or after
  /// skipping to) end of input. Lenient mode drops damaged blocks whole
  /// and resynchronizes; strict mode throws naming the block index.
  bool NextBlock(feed::AsPathTable& table, std::vector<feed::UpdateRec>& out) {
    while (offset < bytes.size()) {
      const std::size_t remaining = bytes.size() - offset;
      if (remaining < kHeaderBytes) {
        if (!options.lenient) Fail("truncated header");
        RecordError("truncated header");
        ++stats.skipped_blocks;
        offset = bytes.size();
        return false;
      }
      if (std::memcmp(bytes.data() + offset, kMagic, sizeof kMagic) != 0) {
        if (!options.lenient) Fail("bad magic");
        RecordError("bad magic");
        ++stats.skipped_blocks;
        ++block_index;
        Resync(offset + 1);
        continue;
      }
      const auto version = static_cast<std::uint8_t>(bytes[offset + kVersionOffset]);
      if (version != kVersion) {
        const std::string cause = "unknown version " + std::to_string(version);
        if (!options.lenient) Fail(cause);
        RecordError(cause);
        ++stats.skipped_blocks;
        ++block_index;
        // The layout behind an unknown version is unknown: resync on magic.
        Resync(offset + kHeaderBytes);
        continue;
      }
      const std::uint32_t payload_size = GetU32le(bytes, offset + kPayloadSizeOffset);
      if (payload_size > remaining - kHeaderBytes) {
        if (!options.lenient) Fail("truncated block");
        RecordError("truncated block");
        ++stats.skipped_blocks;
        ++block_index;
        // The size field itself may be the corrupt byte: resync on magic
        // rather than trusting it past end of input.
        Resync(offset + 1);
        continue;
      }
      const std::string_view payload = bytes.substr(offset + kHeaderBytes, payload_size);
      if (Checksum(payload) != GetU32le(bytes, offset + kChecksumOffset)) {
        if (!options.lenient) Fail("checksum mismatch");
        RecordError("checksum mismatch");
        ++stats.skipped_blocks;
        ++block_index;
        offset += kHeaderBytes + payload_size;
        continue;
      }
      const std::size_t out_mark = out.size();
      try {
        DecodePayload(payload, table, stream_memo, out);
      } catch (const BlockError& error) {
        out.resize(out_mark);  // never half-emit a damaged block
        if (!options.lenient) Fail(error.what());
        RecordError(error.what());
        ++stats.skipped_blocks;
        ++block_index;
        offset += kHeaderBytes + payload_size;
        continue;
      }
      offset += kHeaderBytes + payload_size;
      ++block_index;
      ++stats.blocks;
      stats.records += out.size() - out_mark;
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("qmrt.blocks_decoded", obs::Stability::kRun).Increment();
      registry.GetCounter("qmrt.records_decoded", obs::Stability::kRun)
          .Increment(out.size() - out_mark);
      registry.GetCounter("qmrt.bytes_decoded", obs::Stability::kRun)
          .Increment(kHeaderBytes + payload_size);
      return true;
    }
    return false;
  }

  /// Publishes final stats once the input is exhausted.
  void Finish() {
    if (finished) return;
    finished = true;
    if (stats.skipped_blocks > 0) {
      // Lazily registered, like bgp.mrt.bad_lines: a clean decode leaves
      // no skip metric behind.
      obs::MetricsRegistry::Global()
          .GetCounter("qmrt.blocks_skipped", obs::Stability::kRun)
          .Increment(stats.skipped_blocks);
    }
    if (options.stats) *options.stats = stats;
  }
};

}  // namespace

feed::UpdateStream DecodeStream(std::shared_ptr<feed::AsPathTable> table,
                                std::string_view bytes, DecodeOptions options) {
  struct State {
    BlockCursor cursor;
    std::vector<feed::UpdateRec> pending;
    std::size_t next = 0;
  };
  auto state = std::make_shared<State>();
  state->cursor.bytes = bytes;
  state->cursor.options = options;
  const std::size_t batch_size =
      options.batch_size == 0 ? feed::kDefaultBatchSize : options.batch_size;

  feed::AsPathTable* raw_table = table.get();
  return feed::UpdateStream(
      std::move(table),
      [state = std::move(state), raw_table, batch_size](std::vector<feed::UpdateRec>& out) {
        // Drop the already-emitted prefix so the buffer stays bounded by
        // one block plus one batch.
        if (state->next > 0) {
          state->pending.erase(
              state->pending.begin(),
              state->pending.begin() + static_cast<std::ptrdiff_t>(state->next));
          state->next = 0;
        }
        while (state->pending.size() < batch_size &&
               state->cursor.NextBlock(*raw_table, state->pending)) {
        }
        if (state->pending.empty()) {
          state->cursor.Finish();
          return false;
        }
        const std::size_t end = std::min(batch_size, state->pending.size());
        out.assign(state->pending.begin(),
                   state->pending.begin() + static_cast<std::ptrdiff_t>(end));
        state->next = end;
        return true;
      });
}

std::vector<feed::UpdateRec> DecodeRecords(feed::AsPathTable& table,
                                           std::string_view bytes,
                                           DecodeOptions options) {
  BlockCursor cursor;
  cursor.bytes = bytes;
  cursor.options = options;
  std::vector<feed::UpdateRec> out;
  // One upfront capacity hint from the header chain: records average well
  // over 12 payload bytes, so payload_total/12 over-reserves slightly and
  // avoids the growth copies of accumulating ~n/12 records a block at a
  // time. Purely a hint — a garbled header just ends the scan, and
  // push_back still grows past it if the estimate is short.
  std::uint64_t payload_total = 0;
  for (std::size_t at = 0; at + kHeaderBytes <= bytes.size();) {
    if (std::string_view(bytes).substr(at, sizeof kMagic) !=
        std::string_view(kMagic, sizeof kMagic)) {
      break;
    }
    const std::uint32_t payload_size = GetU32le(bytes, at + kPayloadSizeOffset);
    if (payload_size > bytes.size() - at - kHeaderBytes) break;
    payload_total += payload_size;
    at += kHeaderBytes + payload_size;
  }
  out.reserve(static_cast<std::size_t>(payload_total / 12));
  while (cursor.NextBlock(table, out)) {
  }
  cursor.Finish();
  return out;
}

}  // namespace quicksand::bgp::qmrt
