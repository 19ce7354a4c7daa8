#include "obs/span.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <unordered_set>

#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace quicksand::obs {

namespace {

/// Innermost open span on this thread (parent of the next span opened).
thread_local ScopedSpan* t_open_span = nullptr;
thread_local int t_span_depth = 0;

/// Process-wide monotonic epoch for span durations when no sink is
/// installed (durations only need a consistent basis, not a shared one).
std::int64_t ProcessNowUs() {
  static const Stopwatch epoch;
  return epoch.ElapsedUs();
}

std::atomic<bool> g_span_registry_enabled{false};

}  // namespace

std::uint64_t CurrentThreadId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t id = 0;
  if (id == 0) id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

struct SpanRegistry::Impl {
  struct Aggregate {
    SpanStats stats;
    std::unordered_set<std::uint64_t> tids;
  };
  mutable std::mutex mutex;
  std::map<std::string, Aggregate, std::less<>> spans;
};

SpanRegistry::SpanRegistry() : impl_(new Impl) {}
SpanRegistry::~SpanRegistry() { delete impl_; }

SpanRegistry& SpanRegistry::Global() {
  static SpanRegistry registry;
  return registry;
}

void SpanRegistry::Enable(bool on) noexcept {
  g_span_registry_enabled.store(on, std::memory_order_release);
}

bool SpanRegistry::enabled() const noexcept {
  return g_span_registry_enabled.load(std::memory_order_acquire);
}

void SpanRegistry::Record(std::string_view name, std::int64_t total_us,
                          std::int64_t self_us, int depth, std::uint64_t thread_id) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->spans.find(name);
  if (it == impl_->spans.end()) {
    it = impl_->spans.emplace(std::string(name), Impl::Aggregate{}).first;
  }
  Impl::Aggregate& agg = it->second;
  agg.stats.calls += 1;
  agg.stats.total_us += total_us;
  agg.stats.self_us += self_us;
  if (depth > agg.stats.max_depth) agg.stats.max_depth = depth;
  agg.tids.insert(thread_id);
}

std::vector<std::pair<std::string, SpanStats>> SpanRegistry::Summary() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<std::string, SpanStats>> out;
  out.reserve(impl_->spans.size());
  for (const auto& [name, agg] : impl_->spans) {
    SpanStats stats = agg.stats;
    stats.threads = agg.tids.size();
    out.emplace_back(name, stats);
  }
  return out;
}

void SpanRegistry::Reset() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.clear();
}

ScopedSpan::ScopedSpan(std::string_view name,
                       std::vector<std::pair<std::string, std::string>> args) {
  const bool aggregate = SpanRegistry::Global().enabled();
  const bool tracing = GlobalTrace() != nullptr;
  if (!aggregate && !tracing) return;
  active_ = true;
  name_ = name;
  args_ = std::move(args);
  parent_ = t_open_span;
  depth_ = t_span_depth;
  t_open_span = this;
  ++t_span_depth;
  start_us_ = ProcessNowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t total_us = ProcessNowUs() - start_us_;
  const std::int64_t self_us = total_us > child_us_ ? total_us - child_us_ : 0;
  t_open_span = parent_;
  --t_span_depth;
  if (parent_ != nullptr) parent_->child_us_ += total_us;
  const std::uint64_t tid = CurrentThreadId();
  if (SpanRegistry::Global().enabled()) {
    SpanRegistry::Global().Record(name_, total_us, self_us, depth_, tid);
  }
  if (TraceSink* sink = GlobalTrace()) {
    // One self-contained 'X' event per span: concurrent spans on pool
    // threads cannot tear each other's pairing.
    sink->Complete(name_, total_us, depth_, static_cast<int>(tid), args_);
  }
}

}  // namespace quicksand::obs
