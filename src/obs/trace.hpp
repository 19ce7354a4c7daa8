#pragma once

// Streamed trace events for pipeline runs.
//
// The sink writes JSONL — one Chrome trace_event object per line, which
// streams safely even if the process dies mid-run. Two event kinds exist:
// 'X' complete events (obs::ScopedSpan emits one per closed span) and 'i'
// instants (the resource sampler's `prof.sample`, the session-reset
// filter's summary). docs/OBSERVABILITY.md shows how to wrap the lines
// into the JSON-array form chrome://tracing and Perfetto load.
//
// Library code traces through the process-global sink (GlobalTrace()),
// which is null — tracing disabled, near-zero cost — until a harness
// installs one (bench binaries do on `--trace <path>`).

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stopwatch.hpp"

namespace quicksand::obs {

/// Streams trace events to a JSONL file. Thread-safe; lines are globally
/// ordered by the sink lock.
class TraceSink {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Throws std::runtime_error if the file cannot be opened.
  explicit TraceSink(const std::string& jsonl_path);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  ~TraceSink();

  /// A point event, at depth 0.
  void Instant(std::string_view name, const Args& args = {});
  /// A self-contained span ('X' complete event) that just finished: its
  /// start timestamp is now minus `dur_us`, so complete events from
  /// concurrent threads cannot interleave into a torn pairing.
  void Complete(std::string_view name, std::int64_t dur_us, int depth, int tid,
                const Args& args = {});

 private:
  std::mutex mutex_;
  Stopwatch clock_;
  std::ofstream out_;
};

/// Process-global sink used by library instrumentation; null = disabled.
[[nodiscard]] TraceSink* GlobalTrace() noexcept;
/// Installs (or clears, with nullptr) the global sink. The caller keeps
/// ownership and must outlive any traced calls.
void SetGlobalTrace(TraceSink* sink) noexcept;

}  // namespace quicksand::obs
