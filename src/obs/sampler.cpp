#include "obs/sampler.hpp"

#include <cstdio>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quicksand::obs {

ResourceSampler::ResourceSampler(Options options) : options_(std::move(options)) {}

ResourceSampler::~ResourceSampler() { Stop(); }

std::int64_t ResourceSampler::CurrentRssKb() {
#if defined(__linux__)
  // statm field 2 is the resident page count; no allocation on this path.
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return -1;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return -1;
  const long page_bytes = ::sysconf(_SC_PAGESIZE);
  if (page_bytes <= 0) return -1;
  return static_cast<std::int64_t>(resident_pages * (page_bytes / 1024));
#else
  return -1;
#endif
}

void ResourceSampler::SampleOnce() {
  const std::int64_t rss_kb = CurrentRssKb();
  if (rss_kb > peak_rss_kb_.load(std::memory_order_relaxed)) {
    peak_rss_kb_.store(rss_kb, std::memory_order_relaxed);
  }
  samples_.fetch_add(1, std::memory_order_relaxed);

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("prof.rss_peak_kb", Stability::kRun)
      .Set(peak_rss_kb_.load(std::memory_order_relaxed));
  registry.GetGauge("prof.samples", Stability::kRun)
      .Set(static_cast<std::int64_t>(samples_.load(std::memory_order_relaxed)));

  if (TraceSink* sink = GlobalTrace()) {
    std::vector<std::pair<std::string, std::string>> args;
    args.reserve(1 + options_.counters.size() + options_.gauges.size());
    args.emplace_back("rss_kb", std::to_string(rss_kb));
    for (const std::string& name : options_.counters) {
      args.emplace_back(name, std::to_string(
                                  registry.GetCounter(name, Stability::kRun).value()));
    }
    for (const std::string& name : options_.gauges) {
      args.emplace_back(name,
                        std::to_string(registry.GetGauge(name, Stability::kRun).value()));
    }
    sink->Instant("prof.sample", args);
  }
}

void ResourceSampler::Run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    if (wake_.wait_for(lock, options_.cadence, [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void ResourceSampler::Start() {
  if (thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
  }
  // Sample synchronously before the thread exists: even a start/stop
  // with no tick in between records the footprint.
  SampleOnce();
  thread_ = std::thread([this] { Run(); });
}

void ResourceSampler::Stop() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  thread_.join();
  // One final sample so the exported peak covers the full run.
  SampleOnce();
}

}  // namespace quicksand::obs
