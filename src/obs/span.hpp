#pragma once

// Hierarchical profiling spans.
//
// A `ScopedSpan` brackets a region of work and understands *nesting*:
// every span knows its parent on the same thread, accumulates the wall
// time its children consumed, and reports both inclusive (total) and
// exclusive (self) time.
// Spans are the substrate `--profile` builds its per-region breakdown on.
//
// A span does two independent things when it closes:
//
//   * if a global TraceSink is installed, it emits one Chrome
//     `'X'` (complete) event carrying its start timestamp, duration,
//     nesting depth, and thread id. Complete events are self-contained,
//     so spans opened concurrently on pool threads cannot tear each
//     other's pairing;
//   * if the global `SpanRegistry` is enabled (bench `--profile` does
//     this), it folds {calls, total wall, self wall, threads seen} into
//     the per-span-name aggregate.
//
// When neither is active a span costs two relaxed atomic loads — cheap
// enough for the coarse pipeline boundaries this layer instruments, and
// the reason library code can use ScopedSpan unconditionally.
//
// Determinism contract: span aggregation never writes to the metrics
// registry, and the bench JSON's `spans{}` section (bench/common.hpp) is
// left out of scripts/check_bench_json.py's deterministic view, so a
// profiled run compares equal to an unprofiled one. Call counts at
// deterministically-placed callsites are themselves deterministic — the
// span tests hold summaries to that across thread counts.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quicksand::obs {

/// Aggregate for one span name.
struct SpanStats {
  std::uint64_t calls = 0;
  std::int64_t total_us = 0;  ///< inclusive wall time
  std::int64_t self_us = 0;   ///< total minus time spent in child spans
  int max_depth = 0;          ///< deepest nesting level observed (root = 0)
  std::uint64_t threads = 0;  ///< distinct threads that closed this span
};

/// Process-wide span aggregation, keyed by span name. Disabled (and
/// costless) by default; `bench::BenchContext` enables it under
/// `--profile`. Thread-safe.
class SpanRegistry {
 public:
  [[nodiscard]] static SpanRegistry& Global();

  void Enable(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  /// Folds one closed span into the aggregate for `name`.
  void Record(std::string_view name, std::int64_t total_us, std::int64_t self_us,
              int depth, std::uint64_t thread_id);

  /// Name-sorted aggregates (deterministic iteration order).
  [[nodiscard]] std::vector<std::pair<std::string, SpanStats>> Summary() const;

  /// Drops every aggregate (for tests and repeated in-process runs).
  void Reset();

 private:
  SpanRegistry();
  ~SpanRegistry();
  struct Impl;
  Impl* impl_;
};

/// Small sequential id for the calling thread (main thread and pool
/// workers get distinct ids in first-use order, starting at 1). Used for
/// trace attribution; stable for the thread's lifetime.
[[nodiscard]] std::uint64_t CurrentThreadId() noexcept;

/// RAII profiling span. Construct on the stack only; spans on one thread
/// must close in LIFO order (guaranteed by scoping).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      std::vector<std::pair<std::string, std::string>> args = {});
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  bool active_ = false;
  int depth_ = 0;
  std::int64_t start_us_ = 0;       // sink-relative when tracing, else epoch-relative
  std::int64_t child_us_ = 0;       // accumulated inclusive time of direct children
  ScopedSpan* parent_ = nullptr;    // innermost open span on this thread
  std::string name_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace quicksand::obs
