#include "bgp/mrt.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
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

std::optional<BgpUpdate> ParseLine(std::string_view line) {
  // Split into exactly five '|'-separated fields.
  std::string_view fields[5];
  std::size_t start = 0;
  for (int i = 0; i < 5; ++i) {
    if (i == 4) {
      fields[i] = line.substr(start);
      break;
    }
    const auto bar = line.find('|', start);
    if (bar == std::string_view::npos) return std::nullopt;
    fields[i] = line.substr(start, bar - start);
    start = bar + 1;
  }

  BgpUpdate update;
  {
    // std::from_chars into int64: rejects signs-only, trailing junk, and
    // overflow outright (no stoul-style wraparound).
    auto [ptr, ec] = std::from_chars(fields[0].data(), fields[0].data() + fields[0].size(),
                                     update.time.seconds);
    if (ec != std::errc{} || ptr != fields[0].data() + fields[0].size()) return std::nullopt;
    if (update.time.seconds < 0) return std::nullopt;  // pre-epoch timestamp
  }
  {
    auto [ptr, ec] = std::from_chars(fields[1].data(), fields[1].data() + fields[1].size(),
                                     update.session);
    if (ec != std::errc{} || ptr != fields[1].data() + fields[1].size()) return std::nullopt;
  }
  if (fields[2] == "A") {
    update.type = UpdateType::kAnnounce;
  } else if (fields[2] == "W") {
    update.type = UpdateType::kWithdraw;
  } else {
    return std::nullopt;
  }
  if (fields[3].empty()) return std::nullopt;  // empty prefix field
  auto prefix = netbase::Prefix::Parse(fields[3]);
  if (!prefix) return std::nullopt;
  update.prefix = *prefix;
  if (update.type == UpdateType::kAnnounce) {
    // AsPath::Parse uses from_chars into uint32, so AS tokens above
    // 4294967295 fail the parse instead of wrapping.
    auto path = AsPath::Parse(fields[4]);
    if (!path || path->empty()) return std::nullopt;
    update.path = std::move(*path);
  } else if (!fields[4].empty()) {
    return std::nullopt;  // withdrawals carry no path
  }
  return update;
}

std::string ToText(const std::vector<BgpUpdate>& updates) {
  std::string out;
  for (const BgpUpdate& u : updates) {
    out += ToLine(u);
    out += '\n';
  }
  return out;
}

void StreamParser::ConsumeLine(std::string_view line, std::vector<BgpUpdate>& out) {
  ++line_number_;
  if (line.empty() || line.front() == '#') return;
  ++stats_.total_lines;
  auto update = ParseLine(line);
  if (update) {
    ++stats_.parsed;
    out.push_back(std::move(*update));
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

void StreamParser::Feed(std::string_view chunk, std::vector<BgpUpdate>& out) {
  if (finished_) throw std::logic_error("mrt: StreamParser::Feed after Finish");
  std::size_t start = 0;
  while (true) {
    const auto nl = chunk.find('\n', start);
    if (nl == std::string_view::npos) {
      pending_.append(chunk.substr(start));
      return;
    }
    if (pending_.empty()) {
      ConsumeLine(chunk.substr(start, nl - start), out);
    } else {
      // A previous chunk ended mid-line; complete it before parsing.
      pending_.append(chunk.substr(start, nl - start));
      ConsumeLine(pending_, out);
      pending_.clear();
    }
    start = nl + 1;
  }
}

void StreamParser::Finish(std::vector<BgpUpdate>& out) {
  if (finished_) return;
  finished_ = true;
  if (!pending_.empty()) {
    // The dump's final line had no trailing newline.
    std::string last;
    last.swap(pending_);
    ConsumeLine(last, out);
  }
  if (options_.lenient && stats_.bad_lines > 0) {
    // Lazily registered: a clean dump leaves no bgp.mrt.* metric behind,
    // keeping fault-free bench JSON identical to pre-fault-layer runs.
    obs::MetricsRegistry::Global()
        .GetCounter("bgp.mrt.bad_lines")
        .Increment(stats_.bad_lines);
  }
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

/// Pull-side state shared by ParseStream and ParseFileStream: a chunk
/// producer feeds the incremental parser until a full batch of records is
/// available (or input ends), so resident parsed-but-unemitted updates
/// stay bounded by batch_size + one chunk's worth.
feed::UpdateStream MakeParserStream(std::shared_ptr<feed::AsPathTable> table,
                                    const ParseStreamOptions& options,
                                    std::function<bool(std::string&)> next_chunk) {
  struct State {
    StreamParser parser;
    std::function<bool(std::string&)> next_chunk;
    std::string chunk;
    std::vector<BgpUpdate> parsed;  ///< parsed but not yet emitted
    std::size_t next = 0;
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
        // Drop the already-emitted prefix so the buffer stays bounded.
        if (state->next > 0) {
          state->parsed.erase(state->parsed.begin(),
                              state->parsed.begin() + static_cast<std::ptrdiff_t>(state->next));
          state->next = 0;
        }
        while (!state->input_done && state->parsed.size() < batch_size) {
          if (state->next_chunk(state->chunk)) {
            state->parser.Feed(state->chunk, state->parsed);
          } else {
            state->parser.Finish(state->parsed);
            state->input_done = true;
            if (state->stats_out) *state->stats_out = state->parser.stats();
          }
        }
        if (state->next >= state->parsed.size()) return false;
        const std::size_t end = std::min(state->next + batch_size, state->parsed.size());
        out.reserve(end - state->next);
        for (; state->next < end; ++state->next) {
          out.push_back(feed::ToRecord(state->parsed[state->next], *raw_table));
        }
        return true;
      });
}

/// The one chunked file reader: opens `path` (errno context on failure)
/// and yields its next `chunk_bytes`-sized chunk, false at end of file.
std::function<bool(std::string&)> FileChunks(std::string path, std::size_t chunk_bytes) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) {
    throw std::runtime_error("mrt: cannot open '" + path + "': " + util::ErrnoDetail());
  }
  if (chunk_bytes == 0) chunk_bytes = 1;
  return [in = std::move(in), chunk_bytes, path = std::move(path)](std::string& chunk) {
    chunk.resize(chunk_bytes);
    in->read(chunk.data(), static_cast<std::streamsize>(chunk_bytes));
    if (in->bad()) {
      throw std::runtime_error("mrt: read failed for '" + path + "': " + util::ErrnoDetail());
    }
    const auto got = static_cast<std::size_t>(in->gcount());
    chunk.resize(got);
    return got > 0;
  };
}

}  // namespace

feed::UpdateStream ParseStream(std::shared_ptr<feed::AsPathTable> table,
                               std::string_view text, ParseStreamOptions options) {
  const std::size_t chunk_bytes = options.chunk_bytes == 0 ? 1 : options.chunk_bytes;
  return MakeParserStream(
      std::move(table), options,
      [text, chunk_bytes, offset = std::size_t{0}](std::string& chunk) mutable {
        if (offset >= text.size()) return false;
        const std::size_t n = std::min(chunk_bytes, text.size() - offset);
        chunk.assign(text.substr(offset, n));
        offset += n;
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
  for (std::string chunk; next_chunk(chunk);) parser.Feed(chunk, out);
  parser.Finish(out);
  return out;
}

}  // namespace quicksand::bgp::mrt
