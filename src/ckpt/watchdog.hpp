#pragma once

// Stage watchdog: detects shards that exceed a wall-clock deadline and
// fails fast with a diagnostic dump instead of wedging CI.
//
// Each in-flight shard arms an entry (via the RAII ShardGuard) and disarms
// it on completion. A monitor thread scans the armed set; the first entry
// older than the deadline trips the watchdog: the handler gets a dump of
// the stuck shard and everything else in flight. The default handler
// prints the dump to stderr and std::_Exit(3)s — a hung sweep turns into a
// fast, attributable failure. Tests and harnesses install their own
// handler to observe trips without dying.
//
// The watchdog measures wall time only and never touches sweep output, so
// runs with and without it are byte-identical (the "ckpt.watchdog.trips"
// counter is registered obs::Stability::kRun, and only when a trip
// actually fires).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace quicksand::ckpt {

class Watchdog {
 public:
  /// One armed (or stuck) shard, as handed to the trip handler.
  struct ShardStatus {
    std::string stage;
    std::uint64_t shard = 0;
    double elapsed_ms = 0;
  };

  struct Trip {
    ShardStatus stuck;                   ///< the shard that blew the deadline
    std::vector<ShardStatus> in_flight;  ///< everything armed at trip time
    double deadline_ms = 0;
  };

  using Handler = std::function<void(const Trip&)>;

  /// `on_trip` defaults to: dump diagnostics to stderr, std::_Exit(3).
  explicit Watchdog(std::chrono::milliseconds deadline, Handler on_trip = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Arm(std::string_view stage, std::uint64_t shard);
  void Disarm(std::string_view stage, std::uint64_t shard);

  /// Trips observed so far (only meaningful with a non-exiting handler).
  [[nodiscard]] std::size_t trips() const;

  [[nodiscard]] std::chrono::milliseconds deadline() const noexcept {
    return deadline_;
  }

  /// Renders a trip the way the default handler prints it (one line per
  /// in-flight shard); exposed so harnesses can reuse the format.
  [[nodiscard]] static std::string FormatTrip(const Trip& trip);

 private:
  struct Entry {
    std::string stage;
    std::uint64_t shard = 0;
    std::chrono::steady_clock::time_point start;
    bool tripped = false;
  };

  void MonitorLoop();

  const std::chrono::milliseconds deadline_;
  Handler on_trip_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::size_t trips_ = 0;
  bool stop_ = false;
  std::thread monitor_;
};

/// RAII arm/disarm for one shard; inert when `watchdog` is null (the
/// disabled pass-through path).
class ShardGuard {
 public:
  ShardGuard(Watchdog* watchdog, std::string_view stage, std::uint64_t shard)
      : watchdog_(watchdog), stage_(stage), shard_(shard) {
    if (watchdog_ != nullptr) watchdog_->Arm(stage_, shard_);
  }

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

  ~ShardGuard() {
    if (watchdog_ != nullptr) watchdog_->Disarm(stage_, shard_);
  }

 private:
  Watchdog* watchdog_;
  std::string stage_;
  std::uint64_t shard_;
};

}  // namespace quicksand::ckpt
