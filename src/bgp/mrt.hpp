#pragma once

// Textual MRT-like serialization of BGP update streams.
//
// Real RIPE RIS archives are binary MRT; this project uses an equivalent
// line-oriented format carrying exactly the fields the analysis needs:
//
//   <unix-seconds>|<session>|A|<prefix>|<as-path>
//   <unix-seconds>|<session>|W|<prefix>|
//
// The format is lossless for BgpUpdate and diff-friendly, so dumps can be
// inspected and checked into test fixtures.
//
// Two parsing modes exist: strict (throws on the first malformed line,
// for trusted fixtures) and lenient (skips bad lines and reports what it
// dropped — the mode the fault-tolerant pipeline uses on real-world or
// fault-injected archives, where a corrupt line must cost one record, not
// the whole dataset; see docs/ROBUSTNESS.md).
//
// Both modes run on the incremental `StreamParser`, which accepts input
// in arbitrary byte chunks (a chunk boundary may split a line mid-record)
// and behaves identically to whole-text parsing. The strict whole-dump
// ParseText is a thin adapter over it, and `ParseStream` exposes the
// parser as a chunked `feed::UpdateStream` source in either mode — its
// `lenient` option is the one lenient entry point (docs/ARCHITECTURE.md).

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/update.hpp"

namespace quicksand::bgp::mrt {

/// Serializes one update to its line form (no trailing newline).
[[nodiscard]] std::string ToLine(const BgpUpdate& update);

/// Parses one line. Returns nullopt on malformed input. Rejects, besides
/// outright syntax errors: negative timestamps, AS numbers or session ids
/// that overflow their 32-bit types, empty prefixes, and announcements
/// without a path.
[[nodiscard]] std::optional<BgpUpdate> ParseLine(std::string_view line);

/// Serializes a stream of updates, one per line.
[[nodiscard]] std::string ToText(const std::vector<BgpUpdate>& updates);

/// What lenient parsing dropped.
struct ParseStats {
  std::size_t total_lines = 0;  ///< non-blank, non-comment lines seen
  std::size_t parsed = 0;
  std::size_t bad_lines = 0;
  /// The first few errors, each "line <n>: '<truncated content>'".
  std::vector<std::string> first_errors;
};

/// Incremental push parser: feed it byte chunks cut at ANY boundary (a
/// chunk may end mid-line) and it produces exactly the records whole-text
/// parsing would. Blank lines and lines starting with '#' are skipped;
/// line numbers are 1-based over the whole input, comments included.
///
/// Strict mode (lenient == false) throws std::runtime_error from Feed or
/// Finish naming the first bad line's number and a truncated copy of its
/// content. Lenient mode records drop statistics instead, capping the
/// recorded error descriptions at `max_recorded_errors`, and bumps the
/// `bgp.mrt.bad_lines` counter on Finish() when anything was dropped (so
/// a clean dump registers no metric at all).
class StreamParser {
 public:
  struct Options {
    bool lenient = false;
    std::size_t max_recorded_errors = 8;
  };

  StreamParser() = default;
  explicit StreamParser(Options options) : options_(options) {}

  /// Parses every complete line in `chunk` (plus whatever was buffered
  /// from previous chunks), appending records to `out`. The trailing
  /// partial line, if any, is buffered for the next Feed/Finish.
  void Feed(std::string_view chunk, std::vector<BgpUpdate>& out);

  /// Flushes the buffered final line (a dump need not end in '\n') and
  /// commits the bad-line counter. Idempotent.
  void Finish(std::vector<BgpUpdate>& out);

  [[nodiscard]] const ParseStats& stats() const noexcept { return stats_; }

 private:
  void ConsumeLine(std::string_view line, std::vector<BgpUpdate>& out);

  Options options_;
  std::string pending_;  ///< partial trailing line from the last chunk
  std::size_t line_number_ = 0;
  ParseStats stats_;
  bool finished_ = false;
};

/// Parses a whole dump strictly; blank lines and lines starting with '#'
/// are skipped. Throws std::runtime_error naming the first bad line's
/// number and a truncated copy of its content (long lines are capped, so
/// a megabyte of garbage yields a readable message). The output vector is
/// pre-reserved from a newline count, so a RIS-sized dump parses without
/// reallocation churn.
[[nodiscard]] std::vector<BgpUpdate> ParseText(std::string_view text);

/// Options for the chunked stream sources.
struct ParseStreamOptions {
  std::size_t batch_size = feed::kDefaultBatchSize;
  /// Bytes handed to the StreamParser per pull (file reads and text
  /// slicing alike); boundaries may split lines mid-record.
  std::size_t chunk_bytes = 64 * 1024;
  bool lenient = false;
  std::size_t max_recorded_errors = 8;
  /// When set, receives the final ParseStats once the stream is drained.
  std::shared_ptr<ParseStats> stats;
};

/// Exposes a dump as a chunked `feed::UpdateStream`: `text` is sliced
/// into `chunk_bytes` pieces and run through StreamParser as batches are
/// pulled, interning paths into `table`. The text is NOT copied and must
/// outlive the stream. Strict mode throws from Next() on a bad line.
[[nodiscard]] feed::UpdateStream ParseStream(std::shared_ptr<feed::AsPathTable> table,
                                             std::string_view text,
                                             ParseStreamOptions options = {});

/// Same, reading `path` incrementally (no whole-file slurp: peak text
/// residency is one chunk). Throws std::runtime_error if the file cannot
/// be opened; read or parse errors surface from Next().
[[nodiscard]] feed::UpdateStream ParseFileStream(std::shared_ptr<feed::AsPathTable> table,
                                                 std::string path,
                                                 ParseStreamOptions options = {});

/// Incremental writer: one line per update, streamed to `out` as records
/// arrive (no whole-dump string is ever built).
class StreamWriter {
 public:
  explicit StreamWriter(std::ostream& out) : out_(&out) {}

  void Write(const BgpUpdate& update);
  void Write(const feed::UpdateRec& rec, const feed::AsPathTable& table);

  /// Updates written so far.
  [[nodiscard]] std::size_t written() const noexcept { return written_; }

 private:
  std::ostream* out_;
  std::size_t written_ = 0;
};

/// Drains `stream` into `out` line by line; returns the number of updates
/// written. Composed with ParseStream this gives the incremental
/// serialize -> parse round trip the fault sweep pipes its corruption leg
/// through.
std::size_t WriteStream(std::ostream& out, feed::UpdateStream stream);

/// Writes updates to a file. Throws std::runtime_error if it cannot open.
void WriteFile(const std::string& path, const std::vector<BgpUpdate>& updates);

/// Reads updates from a file through the incremental parser, in the
/// fixed-size chunks of ParseFileStream's file reader (the file is never
/// slurped into one string). Throws std::runtime_error on I/O or parse
/// errors.
[[nodiscard]] std::vector<BgpUpdate> ReadFile(const std::string& path);

}  // namespace quicksand::bgp::mrt
