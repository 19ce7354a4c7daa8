#pragma once

// Flight-recorder adapters for the streaming feed data plane.
//
// `ProfiledStream` wraps a source stream so that every batch moving
// through it is recorded into the process-global `obs::FlightRecorder`
// under a stage name: batch count, update count, hand-off bytes, peak
// batch residency, and wall time. A stage that consumes a stream — a
// whole-feed transform such as the sanitizer, or a sink such as churn
// analysis — is recorded from the outside instead: `TalliedStream`
// accounts its input, and `RecordSinkStage` subtracts the time spent
// waiting on that input from the stage's wall time, so the recorder
// attributes *self* time (own cost) per stage. That is the parse →
// sanitize → churn breakdown `fig3_left_churn --profile` prints.
//
// When the recorder is disabled (everything but `--profile`)
// `ProfiledStream` returns its argument unchanged and `RecordSinkStage`
// records nothing: zero overhead, zero extra stream layers, and the
// `feed.*` metrics are untouched. When enabled, each wrapper adds one
// stream layer, so the run-class `feed.batches` / `feed.updates_streamed`
// counters count the extra hand-off (documented in
// docs/OBSERVABILITY.md); stream *content* is never altered.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "bgp/feed.hpp"

namespace quicksand::bgp::feed {

/// Wraps a source (or any already-built) stream: its pulls are recorded
/// under `name` with no upstream to subtract — inclusive time IS self
/// time. Identity when the flight recorder is disabled.
[[nodiscard]] UpdateStream ProfiledStream(std::string name, UpdateStream stream);

/// Running totals for a stream wrapped by TalliedStream — the consumer
/// side of sink accounting: a sink stage's self time is its overall wall
/// time minus `wall_us` (the time it spent waiting on its input).
struct StreamTally {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> items{0};
  std::atomic<std::uint64_t> peak_batch{0};
  std::atomic<std::int64_t> wall_us{0};  ///< inclusive time inside Next
};

/// Wraps `stream` so every pull updates `tally`. Unlike ProfiledStream
/// this is unconditional (the caller already decided to profile);
/// content is unchanged.
[[nodiscard]] UpdateStream TalliedStream(UpdateStream stream,
                                         std::shared_ptr<StreamTally> tally);

/// Records a stage that consumes a stream rather than re-emitting one
/// (the sanitizer's drain, churn analysis) into the flight recorder:
/// `tally` is the accounting of the stage's input stream — its counts are
/// the row's batches and updates — and `wall_us` the stage's overall wall
/// time; the difference is the stage's self cost. No-op when the
/// recorder is disabled.
void RecordSinkStage(const std::string& name, const StreamTally& tally,
                     std::int64_t wall_us);

}  // namespace quicksand::bgp::feed
