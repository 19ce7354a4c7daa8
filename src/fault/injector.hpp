#pragma once

// Seed-deterministic fault injection for the collector → analysis
// pipeline (the executable half of fault/fault_plan.hpp).
//
// One injector serves all three choke points. Every public method is
// const and derives its randomness from a named substream —
// Rng(mix(seed, purpose, index)) — so calls are order-independent,
// repeatable, and identical across thread counts. Injected damage is
// tallied both in the returned stats structs and in lazily registered
// `fault.*` metrics (a zero-rate plan registers nothing and perturbs
// nothing, byte for byte).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/feed.hpp"
#include "bgp/update.hpp"
#include "fault/fault_plan.hpp"
#include "netbase/rng.hpp"

namespace quicksand::fault {

/// What text-level injection did to an MRT dump.
struct TextFaultStats {
  std::size_t input_lines = 0;
  std::size_t corrupted = 0;
  std::size_t truncated = 0;
  std::size_t duplicated = 0;
  std::size_t reordered = 0;

  [[nodiscard]] std::size_t total_faults() const noexcept {
    return corrupted + truncated + duplicated + reordered;
  }
};

/// A perturbed MRT dump.
struct FaultedText {
  std::string text;
  TextFaultStats stats;
};

/// One session's outage schedule: half-open [down, up) intervals in
/// ascending, non-overlapping order.
struct FlapSchedule {
  bgp::SessionId session = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> down;
};

/// What stream-level injection did to an update feed.
struct StreamFaultStats {
  std::size_t input_updates = 0;
  std::size_t output_updates = 0;
  std::size_t dropped_down = 0;      ///< lost inside an outage
  std::size_t dropped_loss = 0;      ///< iid loss outside outages
  std::size_t delayed = 0;           ///< delivered late (stream re-sorted)
  std::size_t resync_injected = 0;   ///< re-announcements emitted on recovery
  std::size_t flapped_sessions = 0;
  std::size_t flaps = 0;

  [[nodiscard]] std::size_t dropped() const noexcept {
    return dropped_down + dropped_loss;
  }
};

/// A perturbed feed, time-ordered: records on the table the inputs index
/// (PerturbRecords) or materialized updates (PerturbStream).
template <typename Update>
struct Faulted {
  std::vector<Update> updates;
  StreamFaultStats stats;
};
using FaultedRecords = Faulted<bgp::feed::UpdateRec>;
using FaultedStream = Faulted<bgp::BgpUpdate>;

/// Attempt/retry tally for one retried file operation.
struct IoFaultStats {
  std::size_t attempts = 0;
  std::size_t injected_failures = 0;
  std::size_t retries = 0;
  double total_backoff_ms = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Choke point 1 — MRT text. Applies per-line corruption, truncation,
  /// duplication, and reordering-within-jitter-window. Lines the dice
  /// spare are copied byte-exactly.
  [[nodiscard]] FaultedText CorruptText(std::string_view text) const;

  /// The outage schedule for `session` — a pure function of (seed,
  /// session), independent of any stream content. Sessions the flap dice
  /// spare get an empty schedule.
  [[nodiscard]] FlapSchedule ScheduleFor(bgp::SessionId session) const;

  /// Choke point 2 — collector sessions. Applies flap schedules (updates
  /// inside an outage are missed; on recovery the session re-announces
  /// its current table), iid loss, and bounded delivery delay. The
  /// result is re-sorted into canonical order. `initial_rib` seeds each
  /// session's table so resync bursts announce the right state. Both
  /// inputs must index one AsPathTable; the output indexes it too. Only
  /// each session's input order matters, not how sessions interleave.
  [[nodiscard]] FaultedRecords PerturbRecords(
      std::span<const bgp::feed::UpdateRec> initial_rib,
      std::span<const bgp::feed::UpdateRec> updates) const;

  /// PerturbRecords on materialized feeds: interns both into a private
  /// table and materializes the result.
  [[nodiscard]] FaultedStream PerturbStream(
      std::span<const bgp::BgpUpdate> initial_rib,
      std::span<const bgp::BgpUpdate> updates) const;

  /// Choke point 3 — file I/O. mrt::ReadFile / mrt::WriteFile wrapped in
  /// util::Retry, with transient failures injected before the real
  /// operation at the plan's io.failure_rate (never more than
  /// io.max_consecutive in a row, so a sufficient retry budget always
  /// succeeds). `op_index` distinguishes substreams when one run performs
  /// several operations on the same path.
  [[nodiscard]] std::vector<bgp::BgpUpdate> ReadMrtFile(const std::string& path,
                                                        IoFaultStats* stats = nullptr,
                                                        std::uint64_t op_index = 0) const;
  void WriteMrtFile(const std::string& path, const std::vector<bgp::BgpUpdate>& updates,
                    IoFaultStats* stats = nullptr, std::uint64_t op_index = 0) const;

 private:
  /// Independent generator for (purpose, index) — the substream scheme
  /// every decision flows through.
  [[nodiscard]] netbase::Rng Substream(std::string_view purpose,
                                       std::uint64_t index) const;

  template <typename Fn>
  auto RetriedIo(std::string_view purpose, const std::string& path,
                 std::uint64_t op_index, IoFaultStats* stats, Fn&& fn) const;

  FaultPlan plan_;
};

}  // namespace quicksand::fault
