#include "ckpt/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/parse_num.hpp"

namespace quicksand::ckpt {

// A malformed or negative value throws rather than silently turning a
// kill leg into an uninterrupted run.
std::size_t AbortAfterFromEnv() {
  constexpr const char* kName = "QUICKSAND_CKPT_ABORT_AFTER";
  const std::int64_t value = util::EnvInt64(kName, 0);
  if (value < 0) {
    throw std::runtime_error(std::string(kName) + ": negative shard count " +
                             std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

CheckpointWriter::CheckpointWriter(Options options)
    : options_(std::move(options)), abort_after_(AbortAfterFromEnv()) {
  snapshot_.fingerprint = options_.fingerprint;
  snapshot_.total_shards = options_.total_shards;
}

void CheckpointWriter::Seed(std::map<std::uint64_t, std::string> payloads) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [shard, payload] : payloads) {
    snapshot_.payloads.insert_or_assign(shard, std::move(payload));
  }
}

void CheckpointWriter::Record(std::uint64_t shard, std::string payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::MetricsRegistry::Global()
      .GetCounter("ckpt.shards_recorded", obs::Stability::kRun)
      .Increment();
  snapshot_.payloads.insert_or_assign(shard, std::move(payload));
  ++new_records_;
  WriteLocked();
  if (new_records_ == abort_after_) {
    // Fault hook: the shard is persisted; die as hard as SIGKILL would.
    std::fprintf(stderr,
                 "[quicksand ckpt] QUICKSAND_CKPT_ABORT_AFTER=%zu reached after "
                 "recording shard %llu — hard-aborting (snapshot %s is complete "
                 "up to %zu shards)\n",
                 abort_after_, static_cast<unsigned long long>(shard),
                 options_.path.c_str(), snapshot_.payloads.size());
    std::_Exit(42);
  }
}

void CheckpointWriter::Flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  WriteLocked();
}

std::size_t CheckpointWriter::new_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return new_records_;
}

void CheckpointWriter::WriteLocked() {
  const std::string encoded = EncodeSnapshot(snapshot_);
  util::WriteFileAtomic(options_.path, encoded);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ckpt.snapshots_written", obs::Stability::kRun).Increment();
  registry.GetCounter("ckpt.snapshot_bytes", obs::Stability::kRun)
      .Increment(encoded.size());
}

ResumeResult ResumeLoader::Load(const std::string& path,
                                std::uint64_t expected_fingerprint,
                                std::uint64_t expected_total_shards) noexcept {
  ResumeResult result;
  SnapshotLoad load = LoadSnapshotFile(path);
  if (load.ok && load.snapshot.fingerprint != expected_fingerprint) {
    load.ok = false;
    load.error = path + ": fingerprint mismatch (snapshot is from a different "
                        "config/seed; refusing to mix sweeps)";
  }
  if (load.ok && load.snapshot.total_shards != expected_total_shards) {
    load.ok = false;
    load.error = path + ": shard-count mismatch (snapshot covers a different sweep)";
  }
  if (load.ok && !load.snapshot.payloads.empty() &&
      std::prev(load.snapshot.payloads.end())->first >= expected_total_shards) {
    load.ok = false;
    load.error = path + ": shard index out of range";
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (!load.ok) {
    registry.GetCounter("ckpt.resume.rejected", obs::Stability::kRun).Increment();
    obs::LogWarn("ckpt.resume",
                 "snapshot rejected, falling back to a fresh run: " + load.error);
    result.error = std::move(load.error);
    return result;
  }
  result.resumed = true;
  result.first_incomplete = load.snapshot.FirstIncompleteShard();
  result.payloads = std::move(load.snapshot.payloads);
  registry.GetCounter("ckpt.resume.shards_loaded", obs::Stability::kRun)
      .Increment(result.payloads.size());
  registry.GetGauge("ckpt.resume.first_incomplete", obs::Stability::kRun)
      .Set(static_cast<std::int64_t>(result.first_incomplete));
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    obs::LogInfo("ckpt.resume",
                 "resuming from " + path + ": " +
                     std::to_string(result.payloads.size()) + "/" +
                     std::to_string(expected_total_shards) +
                     " shards complete, first incomplete shard " +
                     std::to_string(result.first_incomplete));
  }
  return result;
}

}  // namespace quicksand::ckpt
