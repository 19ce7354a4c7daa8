#include "ckpt/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace quicksand::ckpt {

namespace {

[[nodiscard]] double ElapsedMs(std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

void DefaultHandler(const Watchdog::Trip& trip) {
  std::fputs(Watchdog::FormatTrip(trip).c_str(), stderr);
  std::fflush(stderr);
  std::_Exit(3);
}

}  // namespace

Watchdog::Watchdog(std::chrono::milliseconds deadline, Handler on_trip)
    : deadline_(deadline),
      on_trip_(on_trip ? std::move(on_trip) : Handler(DefaultHandler)),
      monitor_([this] { MonitorLoop(); }) {}

Watchdog::~Watchdog() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  monitor_.join();
}

void Watchdog::Arm(std::string_view stage, std::uint64_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(
      {std::string(stage), shard, std::chrono::steady_clock::now(), false});
}

void Watchdog::Disarm(std::string_view stage, std::uint64_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& entry) {
                                 return entry.shard == shard && entry.stage == stage;
                               });
  if (it != entries_.end()) entries_.erase(it);
}

std::size_t Watchdog::trips() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

std::string Watchdog::FormatTrip(const Trip& trip) {
  char line[256];
  std::snprintf(line, sizeof line,
                "[quicksand ckpt] WATCHDOG: stage '%s' shard %llu exceeded the "
                "%.0f ms deadline (%.0f ms elapsed) — failing fast\n",
                trip.stuck.stage.c_str(),
                static_cast<unsigned long long>(trip.stuck.shard),
                trip.deadline_ms, trip.stuck.elapsed_ms);
  std::string out = line;
  out += "[quicksand ckpt] in-flight shards at trip time:\n";
  for (const ShardStatus& status : trip.in_flight) {
    std::snprintf(line, sizeof line, "[quicksand ckpt]   %s shard %llu: %.0f ms\n",
                  status.stage.c_str(),
                  static_cast<unsigned long long>(status.shard),
                  status.elapsed_ms);
    out += line;
  }
  return out;
}

void Watchdog::MonitorLoop() {
  const auto poll = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(5), deadline_ / 8);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, poll, [this] { return stop_; });
    if (stop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (Entry& entry : entries_) {
      if (entry.tripped || now - entry.start < deadline_) continue;
      entry.tripped = true;
      ++trips_;
      Trip trip;
      trip.deadline_ms = static_cast<double>(deadline_.count());
      trip.stuck = {entry.stage, entry.shard, ElapsedMs(entry.start, now)};
      for (const Entry& armed : entries_) {
        trip.in_flight.push_back(
            {armed.stage, armed.shard, ElapsedMs(armed.start, now)});
      }
      obs::MetricsRegistry::Global()
          .GetCounter("ckpt.watchdog.trips", obs::Stability::kRun)
          .Increment();
      // Run the handler outside the lock: it may Arm/Disarm (or exit).
      Handler handler = on_trip_;
      lock.unlock();
      handler(trip);
      lock.lock();
      break;  // entries_ may have changed; rescan on the next poll
    }
  }
}

}  // namespace quicksand::ckpt
