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
// One line grammar (`ParseLine(line, fields)`) reads a line into a reused
// `ParsedLine`, whose hop buffer keeps its capacity, and one incremental
// `StreamParser` owns line splitting, line numbers, `ParseStats` and the
// strict/lenient policy, handing each well-formed line to a sink. Strict
// mode throws on the first malformed line (for trusted fixtures);
// lenient mode skips bad lines and reports what it dropped — the mode the
// fault-tolerant pipeline uses on real-world or fault-injected archives,
// where a corrupt line must cost one record, not the whole dataset (see
// docs/ROBUSTNESS.md).
//
// `ParseStream` and `ParseFileStream` are the record-plane sources: each
// line's hop buffer is interned straight into the stream's AsPathTable,
// so a line costs no heap allocation once its path is known. `ParseLine`,
// `ParseText` and `ReadFile` build path-owning `BgpUpdate`s from the same
// grammar for the materialized callers (docs/ARCHITECTURE.md).

#include <functional>
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

/// One line's fields as the grammar reads them. Meant to be reused across
/// lines: `hops` keeps its capacity, so parsing allocates nothing per line.
struct ParsedLine {
  netbase::SimTime time;
  SessionId session = 0;
  UpdateType type = UpdateType::kAnnounce;
  netbase::Prefix prefix;
  std::vector<AsNumber> hops;  ///< empty for withdrawals
};

/// The line grammar. Fills `out` and returns true iff `line` is
/// well-formed; on false, `out` holds unspecified fields. Rejects, besides
/// outright syntax errors: negative timestamps, AS numbers or session ids
/// that overflow their 32-bit types, empty or non-canonical prefixes,
/// announcements without a path, and withdrawals with one.
[[nodiscard]] bool ParseLine(std::string_view line, ParsedLine& out);

/// The same grammar into a path-owning update. Returns nullopt on
/// malformed input.
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
/// chunk may end mid-line) and it hands the sink exactly the lines
/// whole-text parsing would. Blank lines and lines starting with '#' are
/// skipped; line numbers are 1-based over the whole input, comments
/// included.
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

  /// Receives each well-formed line. The fields are the parser's reused
  /// buffer: valid only for the duration of the call.
  using Sink = std::function<void(const ParsedLine&)>;

  StreamParser() = default;
  explicit StreamParser(Options options) : options_(options) {}

  /// Parses every complete line in `chunk` (plus whatever was buffered
  /// from previous chunks), handing each well-formed one to `sink`. The
  /// trailing partial line, if any, is buffered for the next Feed/Finish.
  void Feed(std::string_view chunk, const Sink& sink);

  /// Flushes the buffered final line (a dump need not end in '\n') and
  /// commits the bad-line counter. Idempotent.
  void Finish(const Sink& sink);

  /// The same, appending path-owning updates to `out`.
  void Feed(std::string_view chunk, std::vector<BgpUpdate>& out);
  void Finish(std::vector<BgpUpdate>& out);

  [[nodiscard]] const ParseStats& stats() const noexcept { return stats_; }

 private:
  void ConsumeLine(std::string_view line, const Sink& sink);

  Options options_;
  std::string pending_;  ///< partial trailing line from the last chunk
  std::size_t line_number_ = 0;
  ParseStats stats_;
  ParsedLine line_;  ///< reused across lines
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
/// pulled, each line's path interned into `table` as it is parsed (ids
/// follow line order). The text is NOT copied and must outlive the
/// stream. Strict mode throws from Next() on a bad line.
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
