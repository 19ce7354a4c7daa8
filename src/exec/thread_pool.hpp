#pragma once

// Deterministic parallel execution substrate.
//
// A plain fixed-size worker pool with a FIFO task queue. The pool itself
// makes no determinism promises — scheduling is whatever the OS gives us —
// so the determinism contract lives one layer up, in parallel.hpp: work is
// decomposed into index-addressed tasks whose outputs are combined in
// index order, and per-task randomness comes from pre-forked Rng
// substreams, never from a shared generator. The pool only supplies the
// concurrency.
//
// Its telemetry (`exec.pool.*`: tasks run, peak queue depth, workers
// started) is registered obs::Stability::kRun: those values legitimately
// depend on thread count and scheduling (see docs/OBSERVABILITY.md).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quicksand::exec {

/// Number of threads "0 = default" resolves to: the hardware concurrency,
/// or 1 if it cannot be determined.
[[nodiscard]] std::size_t HardwareThreads() noexcept;

/// Resolves a user-facing thread knob: 0 means HardwareThreads(), any
/// other value is taken literally (values above the hardware count are
/// allowed — useful for testing the concurrent paths on small machines).
[[nodiscard]] std::size_t ResolveThreads(std::size_t threads) noexcept;

/// Fixed-capacity worker pool. Tasks are arbitrary callables; completion
/// tracking is the caller's business (parallel.hpp uses a latch per batch,
/// which keeps one pool shareable by independent call sites).
class ThreadPool {
 public:
  /// Starts with `initial_workers` threads (0 = none; workers can be added
  /// later with EnsureWorkers).
  explicit ThreadPool(std::size_t initial_workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: pending tasks that never ran are dropped. Callers
  /// that need completion must track it themselves before destruction.
  ~ThreadPool();

  /// Grows the pool to at least `count` workers. Never shrinks.
  void EnsureWorkers(std::size_t count);

  [[nodiscard]] std::size_t WorkerCount() const;

  /// Enqueues one task. Thread-safe. Tasks must not throw — wrap and
  /// capture exceptions at the call site (parallel.hpp does).
  void Submit(std::function<void()> task);

  /// The process-wide pool used by the parallel helpers. Lazily created;
  /// grows on demand and lives for the process lifetime.
  [[nodiscard]] static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace quicksand::exec
