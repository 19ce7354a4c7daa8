#include "bgp/mrt.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/errno_context.hpp"

namespace quicksand::bgp::mrt {

namespace {

/// Longest slice of an offending line quoted in error messages. Keeps a
/// megabyte garbage line from producing a megabyte exception string.
constexpr std::size_t kMaxQuotedLine = 96;

std::string QuoteForError(std::string_view line) {
  if (line.size() <= kMaxQuotedLine) return std::string(line);
  std::string out(line.substr(0, kMaxQuotedLine));
  out += "... (";
  out += std::to_string(line.size());
  out += " bytes)";
  return out;
}

std::string DescribeBadLine(std::size_t line_number, std::string_view line) {
  return "line " + std::to_string(line_number) + ": '" + QuoteForError(line) + "'";
}

/// Upper bound on data lines, used to pre-reserve output vectors: one per
/// newline, plus a possible unterminated final line.
std::size_t LineCountBound(std::string_view text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
}

}  // namespace

std::string ToLine(const BgpUpdate& update) {
  std::string out = std::to_string(update.time.seconds);
  out += '|';
  out += std::to_string(update.session);
  out += '|';
  out += update.type == UpdateType::kAnnounce ? 'A' : 'W';
  out += '|';
  out += update.prefix.ToString();
  out += '|';
  if (update.type == UpdateType::kAnnounce) out += update.path.ToString();
  return out;
}

namespace {

/// Scans the decimal digits at `p` as std::from_chars would into an
/// unsigned type whose maximum is `Max`: at least one digit, leading zeros
/// allowed, no sign, and a value above Max fails (no wraparound). Returns
/// the first character past the digits, or nullptr on no digit or
/// overflow.
template <std::uint64_t Max>
const char* ScanDigits(const char* p, const char* end, std::uint64_t& value) {
  const char* const first = p;
  std::uint64_t v = 0;
  for (; p != end; ++p) {
    const auto digit = static_cast<std::uint64_t>(static_cast<unsigned char>(*p)) - '0';
    if (digit > 9) break;
    if (v > (Max - digit) / 10) return nullptr;
    v = v * 10 + digit;
  }
  if (p == first) return nullptr;
  value = v;
  return p;
}

/// A signed field as std::from_chars reads it, then bounded to [0, Max]
/// as the grammar bounds it: an optional '-' (so "-0" reads as 0 and any
/// other negative value fails), then digits.
template <std::uint64_t Max>
const char* ScanNonNegative(const char* p, const char* end, std::uint64_t& value) {
  const bool negative = p != end && *p == '-';
  const char* const past = ScanDigits<Max>(negative ? p + 1 : p, end, value);
  if (past == nullptr || (negative && value != 0)) return nullptr;
  return past;
}

/// True iff `p` is the field separator (and not the end of the line).
bool AtBar(const char* p, const char* end) { return p != nullptr && p != end && *p == '|'; }

BgpUpdate ToUpdate(const ParsedLine& line) {
  return BgpUpdate{line.time, line.session, line.type, line.prefix, AsPath(line.hops)};
}

}  // namespace

bool ParseLine(std::string_view line, ParsedLine& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  std::uint64_t value = 0;

  p = ScanNonNegative<std::numeric_limits<std::int64_t>::max()>(p, end, value);
  if (!AtBar(p, end)) return false;
  out.time.seconds = static_cast<std::int64_t>(value);

  p = ScanDigits<std::numeric_limits<SessionId>::max()>(p + 1, end, value);
  if (!AtBar(p, end)) return false;
  out.session = static_cast<SessionId>(value);

  if (end - p < 3 || p[2] != '|') return false;
  if (p[1] == 'A') {
    out.type = UpdateType::kAnnounce;
  } else if (p[1] == 'W') {
    out.type = UpdateType::kWithdraw;
  } else {
    return false;
  }
  p += 3;

  // The prefix, as netbase::Prefix::Parse reads it: four octets of at most
  // 255 without leading zeros, '/', a length in [0, 32], no host bits.
  std::uint32_t address = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (p == end || *p != '.') return false;
      ++p;
    }
    const char* const first = p;
    p = ScanDigits<255>(p, end, value);
    if (p == nullptr || (p - first > 1 && *first == '0')) return false;
    address = (address << 8) | static_cast<std::uint32_t>(value);
  }
  if (p == end || *p != '/') return false;
  p = ScanNonNegative<32>(p + 1, end, value);
  if (!AtBar(p, end)) return false;
  const int length = static_cast<int>(value);
  if ((address & ~netbase::Prefix::MaskFor(length)) != 0) return false;
  out.prefix = netbase::Prefix(netbase::Ipv4Address(address), length);
  ++p;

  // The path field is the rest of the line, stray '|'s included.
  out.hops.clear();
  if (out.type == UpdateType::kWithdraw) return p == end;  // withdrawals carry no path
  // Space-separated AS numbers; one above 4294967295 fails the line.
  while (p != end) {
    while (p != end && *p == ' ') ++p;
    if (p == end) break;
    p = ScanDigits<std::numeric_limits<AsNumber>::max()>(p, end, value);
    if (p == nullptr || (p != end && *p != ' ')) return false;
    out.hops.push_back(static_cast<AsNumber>(value));
  }
  return !out.hops.empty();
}

std::optional<BgpUpdate> ParseLine(std::string_view line) {
  ParsedLine fields;
  if (!ParseLine(line, fields)) return std::nullopt;
  return BgpUpdate{fields.time, fields.session, fields.type, fields.prefix,
                   AsPath(std::move(fields.hops))};
}

std::string ToText(const std::vector<BgpUpdate>& updates) {
  std::string out;
  for (const BgpUpdate& u : updates) {
    out += ToLine(u);
    out += '\n';
  }
  return out;
}

void StreamParser::ConsumeLine(std::string_view line, const Sink& sink) {
  ++line_number_;
  if (line.empty() || line.front() == '#') return;
  ++stats_.total_lines;
  if (ParseLine(line, line_)) {
    ++stats_.parsed;
    sink(line_);
    return;
  }
  if (!options_.lenient) {
    throw std::runtime_error("mrt: malformed " + DescribeBadLine(line_number_, line));
  }
  ++stats_.bad_lines;
  if (stats_.first_errors.size() < options_.max_recorded_errors) {
    stats_.first_errors.push_back(DescribeBadLine(line_number_, line));
  }
}

void StreamParser::Feed(std::string_view chunk, const Sink& sink) {
  if (finished_) throw std::logic_error("mrt: StreamParser::Feed after Finish");
  std::size_t start = 0;
  while (true) {
    const auto nl = chunk.find('\n', start);
    if (nl == std::string_view::npos) {
      pending_.append(chunk.substr(start));
      return;
    }
    if (pending_.empty()) {
      ConsumeLine(chunk.substr(start, nl - start), sink);
    } else {
      // A previous chunk ended mid-line; complete it before parsing.
      pending_.append(chunk.substr(start, nl - start));
      ConsumeLine(pending_, sink);
      pending_.clear();
    }
    start = nl + 1;
  }
}

void StreamParser::Finish(const Sink& sink) {
  if (finished_) return;
  finished_ = true;
  if (!pending_.empty()) {
    // The dump's final line had no trailing newline.
    std::string last;
    last.swap(pending_);
    ConsumeLine(last, sink);
  }
  if (options_.lenient && stats_.bad_lines > 0) {
    // Lazily registered: a clean dump leaves no bgp.mrt.* metric behind,
    // keeping fault-free bench JSON identical to pre-fault-layer runs.
    obs::MetricsRegistry::Global()
        .GetCounter("bgp.mrt.bad_lines")
        .Increment(stats_.bad_lines);
  }
}

void StreamParser::Feed(std::string_view chunk, std::vector<BgpUpdate>& out) {
  Feed(chunk, [&out](const ParsedLine& line) { out.push_back(ToUpdate(line)); });
}

void StreamParser::Finish(std::vector<BgpUpdate>& out) {
  Finish([&out](const ParsedLine& line) { out.push_back(ToUpdate(line)); });
}

std::vector<BgpUpdate> ParseText(std::string_view text) {
  std::vector<BgpUpdate> out;
  out.reserve(LineCountBound(text));
  StreamParser parser;
  parser.Feed(text, out);
  parser.Finish(out);
  return out;
}

namespace {

/// Yields the next chunk of input (valid until the next call), or false
/// at the end.
using ChunkSource = std::function<bool(std::string_view&)>;

/// Pull-side state shared by ParseStream and ParseFileStream: a chunk
/// producer feeds the incremental parser, which interns each line's hop
/// buffer straight into a record of the batch being filled, until a full
/// batch is available (or input ends). Records parsed past the batch's end
/// carry over to the next pull, so a batch never exceeds batch_size.
feed::UpdateStream MakeParserStream(std::shared_ptr<feed::AsPathTable> table,
                                    const ParseStreamOptions& options,
                                    ChunkSource next_chunk) {
  struct State {
    StreamParser parser;
    ChunkSource next_chunk;
    std::vector<feed::UpdateRec> carry;  ///< parsed past the last batch's end
    bool input_done = false;
    std::shared_ptr<ParseStats> stats_out;
  };
  auto state = std::make_shared<State>();
  state->parser = StreamParser(
      {.lenient = options.lenient, .max_recorded_errors = options.max_recorded_errors});
  state->next_chunk = std::move(next_chunk);
  state->stats_out = options.stats;
  const std::size_t batch_size =
      options.batch_size == 0 ? feed::kDefaultBatchSize : options.batch_size;

  feed::AsPathTable* raw_table = table.get();
  return feed::UpdateStream(
      std::move(table),
      [state = std::move(state), raw_table, batch_size](std::vector<feed::UpdateRec>& out) {
        out.swap(state->carry);
        const StreamParser::Sink sink = [&out, raw_table](const ParsedLine& line) {
          out.push_back({line.time, line.session, line.type, line.prefix,
                         line.hops.empty() ? feed::kEmptyPath : raw_table->Intern(line.hops)});
        };
        std::string_view chunk;
        while (!state->input_done && out.size() < batch_size) {
          if (state->next_chunk(chunk)) {
            state->parser.Feed(chunk, sink);
          } else {
            state->parser.Finish(sink);
            state->input_done = true;
            if (state->stats_out) *state->stats_out = state->parser.stats();
          }
        }
        if (out.size() > batch_size) {
          state->carry.assign(out.begin() + static_cast<std::ptrdiff_t>(batch_size), out.end());
          out.resize(batch_size);
        }
        return !out.empty();
      });
}

/// The one chunked file reader: opens `path` (errno context on failure)
/// and yields its next `chunk_bytes`-sized chunk, false at end of file.
ChunkSource FileChunks(std::string path, std::size_t chunk_bytes) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) {
    throw std::runtime_error("mrt: cannot open '" + path + "': " + util::ErrnoDetail());
  }
  if (chunk_bytes == 0) chunk_bytes = 1;
  return [in = std::move(in), chunk_bytes, path = std::move(path),
          buffer = std::string()](std::string_view& chunk) mutable {
    buffer.resize(chunk_bytes);
    in->read(buffer.data(), static_cast<std::streamsize>(chunk_bytes));
    if (in->bad()) {
      throw std::runtime_error("mrt: read failed for '" + path + "': " + util::ErrnoDetail());
    }
    const auto got = static_cast<std::size_t>(in->gcount());
    chunk = std::string_view(buffer).substr(0, got);
    return got > 0;
  };
}

}  // namespace

feed::UpdateStream ParseStream(std::shared_ptr<feed::AsPathTable> table,
                               std::string_view text, ParseStreamOptions options) {
  const std::size_t chunk_bytes = options.chunk_bytes == 0 ? 1 : options.chunk_bytes;
  return MakeParserStream(
      std::move(table), options,
      [text, chunk_bytes, offset = std::size_t{0}](std::string_view& chunk) mutable {
        if (offset >= text.size()) return false;
        chunk = text.substr(offset, chunk_bytes);
        offset += chunk.size();
        return true;
      });
}

feed::UpdateStream ParseFileStream(std::shared_ptr<feed::AsPathTable> table,
                                   std::string path, ParseStreamOptions options) {
  return MakeParserStream(std::move(table), options,
                          FileChunks(std::move(path), options.chunk_bytes));
}

void StreamWriter::Write(const BgpUpdate& update) {
  *out_ << ToLine(update) << '\n';
  ++written_;
}

void StreamWriter::Write(const feed::UpdateRec& rec, const feed::AsPathTable& table) {
  Write(feed::ToBgpUpdate(rec, table));
}

std::size_t WriteStream(std::ostream& out, feed::UpdateStream stream) {
  StreamWriter writer(out);
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) writer.Write(rec, *stream.paths());
  }
  return writer.written();
}

void WriteFile(const std::string& path, const std::vector<BgpUpdate>& updates) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("mrt: cannot open '" + path +
                             "' for writing: " + util::ErrnoDetail());
  }
  StreamWriter writer(out);
  for (const BgpUpdate& u : updates) writer.Write(u);
  if (!out) {
    throw std::runtime_error("mrt: write failed for '" + path + "': " + util::ErrnoDetail());
  }
}

std::vector<BgpUpdate> ReadFile(const std::string& path) {
  const auto next_chunk = FileChunks(path, ParseStreamOptions{}.chunk_bytes);
  std::vector<BgpUpdate> out;
  StreamParser parser;
  for (std::string_view chunk; next_chunk(chunk);) parser.Feed(chunk, out);
  parser.Finish(out);
  return out;
}

}  // namespace quicksand::bgp::mrt
