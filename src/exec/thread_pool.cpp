#include "exec/thread_pool.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace quicksand::exec {

std::size_t HardwareThreads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ResolveThreads(std::size_t threads) noexcept {
  return threads == 0 ? HardwareThreads() : threads;
}

ThreadPool::ThreadPool(std::size_t initial_workers) {
  EnsureWorkers(initial_workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::EnsureWorkers(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  static obs::Counter& started = obs::MetricsRegistry::Global().GetCounter(
      "exec.pool.workers_started", obs::Stability::kRun);
  while (workers_.size() < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
    started.Increment();
  }
}

std::size_t ThreadPool::WorkerCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::Submit(std::function<void()> task) {
  static obs::Counter& submitted = obs::MetricsRegistry::Global().GetCounter(
      "exec.pool.tasks_submitted", obs::Stability::kRun);
  static obs::Gauge& queue_peak = obs::MetricsRegistry::Global().GetGauge(
      "exec.pool.queue_depth_peak", obs::Stability::kRun);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    const auto depth = static_cast<std::int64_t>(queue_.size());
    if (depth > queue_peak.value()) queue_peak.Set(depth);
  }
  submitted.Increment();
  wake_.notify_one();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked: must
  return *pool;  // outlive every static destructor that might still submit
}

void ThreadPool::WorkerLoop() {
  static obs::Counter& run = obs::MetricsRegistry::Global().GetCounter(
      "exec.pool.tasks_run", obs::Stability::kRun);
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    run.Increment();
  }
}

}  // namespace quicksand::exec
