#pragma once

// Background resource sampler for `--profile` runs.
//
// A single daemon thread wakes at a fixed cadence and samples (1) the
// process's resident set size from /proc/self/statm and (2) any
// registry-tracked counters/gauges it was configured with (residency
// gauges like `feed.peak_resident_updates`, allocation-shaped counters
// like `feed.intern.misses`). Each tick:
//
//   * tracks the peak RSS seen and the tick count, published to the
//     metrics registry as the `prof.rss_peak_kb` / `prof.samples` gauges
//     — registered lazily on Start(), so a run that never starts the
//     sampler (anything without `--profile`) snapshots identically to a
//     build without it;
//   * if a global TraceSink is installed, emits one `prof.sample`
//     instant event carrying the sampled values, giving traces a
//     memory/residency overlay alongside the span waterfall.
//
// Sample counts and RSS depend on the OS and scheduling, never on the
// seed, so `prof.*` is registered obs::Stability::kRun. So is every
// overlay metric the sampler reads: it samples run-shaped residency.
//
// Off by default; bench::BenchContext starts one under `--profile`.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace quicksand::obs {

class ResourceSampler {
 public:
  struct Options {
    std::chrono::milliseconds cadence{50};
    /// kRun registry counter names to include in each trace sample.
    std::vector<std::string> counters;
    /// kRun registry gauge names to include in each trace sample.
    std::vector<std::string> gauges;
  };

  ResourceSampler() : ResourceSampler(Options{}) {}
  explicit ResourceSampler(Options options);
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;
  /// Stops the thread if still running.
  ~ResourceSampler();

  /// Spawns the sampling thread (idempotent). Takes one immediate sample
  /// so even a short-lived run records its footprint.
  void Start();
  /// Takes a final sample, stops and joins the thread (idempotent).
  void Stop();

  [[nodiscard]] bool running() const noexcept { return thread_.joinable(); }
  /// Peak resident set observed so far, in KiB (0 before the first sample,
  /// and on platforms without /proc).
  [[nodiscard]] std::int64_t peak_rss_kb() const noexcept {
    return peak_rss_kb_.load(std::memory_order_relaxed);
  }
  /// Samples taken so far.
  [[nodiscard]] std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Current resident set size in KiB, or -1 when unavailable (no
  /// /proc/self/statm on this platform).
  [[nodiscard]] static std::int64_t CurrentRssKb();

 private:
  void SampleOnce();
  void Run();

  Options options_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  std::atomic<std::int64_t> peak_rss_kb_{0};
  std::atomic<std::uint64_t> samples_{0};
};

}  // namespace quicksand::obs
