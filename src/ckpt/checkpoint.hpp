#pragma once

// CheckpointWriter / ResumeLoader — the crash-safety layer for long sweeps
// (docs/ROBUSTNESS.md, "Crash safety & resume").
//
// A CheckpointWriter collects per-shard serialized accumulators as the
// sweep completes them and periodically (every `every` newly recorded
// shards, plus a final Flush) rewrites the snapshot file atomically.
// Because each write is a full write-temp → fsync → rename replacement, a
// kill at ANY instant leaves either the previous complete snapshot or the
// new complete snapshot — never a torn one.
//
// A ResumeLoader validates a snapshot against the sweep's config+seed
// fingerprint and shard count before handing back the completed payloads;
// anything suspicious (missing file, truncation, bit flips, fingerprint or
// shard-count mismatch) is rejected with a diagnostic and the sweep falls
// back to a fresh run — resume never crashes and never silently mixes
// configurations.
//
// Telemetry (`ckpt.*`) is registered obs::Stability::kRun: snapshot sizes
// and cadence depend on which shards happened to finish first, which is
// scheduling-dependent even though the sweep's *output* is not. Counters
// are only registered once a writer/loader actually exists, so runs
// without checkpoint flags emit byte-identical bench JSON.
//
// Fault hook: QUICKSAND_CKPT_ABORT_AFTER=<n> hard-kills the process
// (std::_Exit, no destructors — a stand-in for SIGKILL) right after the
// n-th newly recorded shard is flushed. The kill-and-resume smoke test
// (scripts/resume_smoke.sh, CI "resume-smoke") uses it to assert resumed
// output is byte-identical to an uninterrupted run. A malformed or
// negative value makes the CheckpointWriter constructor throw
// std::runtime_error naming the variable.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "ckpt/snapshot.hpp"

namespace quicksand::ckpt {

class CheckpointWriter {
 public:
  struct Options {
    std::string path;                ///< snapshot file to (re)write
    std::uint64_t fingerprint = 0;   ///< config+seed identity of the sweep
    std::uint64_t total_shards = 0;  ///< shard count of the full sweep
    std::size_t every = 1;           ///< snapshot cadence, in newly recorded shards
  };

  explicit CheckpointWriter(Options options);

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Seeds shards already completed by a previous run (from ResumeLoader)
  /// so every snapshot this writer emits stays complete. Seeded shards do
  /// not count toward the `every` cadence or the abort-after fault hook.
  void Seed(std::map<std::uint64_t, std::string> payloads);

  /// Records one completed shard. Thread-safe; flushes a snapshot every
  /// `every` newly recorded shards.
  void Record(std::uint64_t shard, std::string payload);

  /// Writes a snapshot of everything recorded so far. Call once at sweep
  /// end so the final snapshot covers all shards.
  void Flush();

  [[nodiscard]] std::size_t new_records() const;

 private:
  void WriteLocked();

  Options options_;
  std::size_t abort_after_;  ///< 0 = fault hook disabled
  mutable std::mutex mutex_;
  Snapshot snapshot_;
  std::size_t new_records_ = 0;
};

/// What a resume attempt found.
struct ResumeResult {
  bool resumed = false;  ///< payloads are valid and fingerprint-matched
  std::string error;     ///< why the snapshot was rejected, when !resumed
  std::map<std::uint64_t, std::string> payloads;
  std::uint64_t first_incomplete = 0;  ///< resume cursor (0 when !resumed)
};

class ResumeLoader {
 public:
  /// Loads and validates `path`. Rejection (any corruption or identity
  /// mismatch) is a normal outcome, reported via `error` and logged;
  /// callers rerun the sweep from scratch. Never throws.
  [[nodiscard]] static ResumeResult Load(const std::string& path,
                                         std::uint64_t expected_fingerprint,
                                         std::uint64_t expected_total_shards) noexcept;
};

}  // namespace quicksand::ckpt
