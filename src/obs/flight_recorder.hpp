#pragma once

// Per-stage flight recorder for streaming pipelines.
//
// A pipeline stage that moves batches (the feed data plane's parse,
// sanitize and churn steps, but anything batch-shaped qualifies)
// registers a named `FlightRecorder::Stage` and records, per batch: item
// count, hand-off bytes, and the wall time spent producing it. Because
// pull pipelines nest — a stage's `Next` includes all upstream work —
// each stage also records the time it spent *inside its upstream's*
// `Next`, and the recorder reports `self = wall - upstream`, the stage's
// own cost.
//
// Stages are kept in registration order (pipeline order), so a snapshot
// renders directly as the parse → sanitize → churn breakdown table that
// `fig3_left_churn --profile` prints and embeds as the bench JSON
// `stages[]` section.
//
// The recorder is disabled (and empty) by default; `--profile` enables
// it. Counts (batches, items, bytes, peak batch size) are pure functions
// of the feed content and batch-size knobs, so they are byte-identical
// across thread counts; only the `*_us` fields are wall-clock
// (serialized under `_ms` names — see scripts/check_bench_json.py).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quicksand::obs {

/// Point-in-time copy of one stage's accounting.
struct StageStats {
  std::uint64_t batches = 0;
  std::uint64_t items = 0;          ///< updates moved through the stage
  std::uint64_t bytes = 0;          ///< hand-off bytes (items * record size)
  std::uint64_t peak_resident = 0;  ///< largest single batch (items)
  std::int64_t wall_us = 0;         ///< inclusive time in the stage's pulls
  std::int64_t upstream_us = 0;     ///< of which: time inside upstream pulls

  /// The stage's own cost: inclusive minus upstream.
  [[nodiscard]] std::int64_t self_us() const noexcept {
    return wall_us > upstream_us ? wall_us - upstream_us : 0;
  }
};

/// Registry of named pipeline stages, in registration (pipeline) order.
/// Thread-safe; per-batch recording is lock-free on the stage cell.
class FlightRecorder {
 public:
  /// One stage's live accounting cell. References returned by GetStage
  /// stay valid until Reset().
  class Stage {
   public:
    /// Records one delivered batch.
    void AddBatch(std::uint64_t items, std::uint64_t bytes) noexcept {
      batches_.fetch_add(1, std::memory_order_relaxed);
      items_.fetch_add(items, std::memory_order_relaxed);
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      std::uint64_t peak = peak_resident_.load(std::memory_order_relaxed);
      while (items > peak &&
             !peak_resident_.compare_exchange_weak(peak, items,
                                                   std::memory_order_relaxed)) {
      }
    }
    /// Records pre-aggregated counts (sink stages tally their input
    /// stream and report once at the end instead of per batch).
    void AddCounts(std::uint64_t batches, std::uint64_t items,
                   std::uint64_t bytes, std::uint64_t peak_batch) noexcept {
      batches_.fetch_add(batches, std::memory_order_relaxed);
      items_.fetch_add(items, std::memory_order_relaxed);
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      std::uint64_t peak = peak_resident_.load(std::memory_order_relaxed);
      while (peak_batch > peak &&
             !peak_resident_.compare_exchange_weak(peak, peak_batch,
                                                   std::memory_order_relaxed)) {
      }
    }
    /// Adds inclusive wall time spent inside this stage's pulls (all
    /// pulls, including the final empty one).
    void AddWall(std::int64_t us) noexcept {
      wall_us_.fetch_add(us, std::memory_order_relaxed);
    }
    /// Adds wall time this stage spent pulling its upstream.
    void AddUpstream(std::int64_t us) noexcept {
      upstream_us_.fetch_add(us, std::memory_order_relaxed);
    }

    [[nodiscard]] StageStats Snapshot() const noexcept {
      StageStats s;
      s.batches = batches_.load(std::memory_order_relaxed);
      s.items = items_.load(std::memory_order_relaxed);
      s.bytes = bytes_.load(std::memory_order_relaxed);
      s.peak_resident = peak_resident_.load(std::memory_order_relaxed);
      s.wall_us = wall_us_.load(std::memory_order_relaxed);
      s.upstream_us = upstream_us_.load(std::memory_order_relaxed);
      return s;
    }

   private:
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> items_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> peak_resident_{0};
    std::atomic<std::int64_t> wall_us_{0};
    std::atomic<std::int64_t> upstream_us_{0};
  };

  [[nodiscard]] static FlightRecorder& Global();

  void Enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_release);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Returns the cell for `name`, registering it (at the end of the
  /// pipeline order) on first use.
  [[nodiscard]] Stage& GetStage(std::string_view name);

  /// Stage accounting in registration order.
  [[nodiscard]] std::vector<std::pair<std::string, StageStats>> Snapshot() const;

  /// Drops every stage. Outstanding Stage references become invalid —
  /// only call between pipeline runs (tests, repeated in-process runs).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::vector<std::pair<std::string, std::unique_ptr<Stage>>> stages_;
};

}  // namespace quicksand::obs
