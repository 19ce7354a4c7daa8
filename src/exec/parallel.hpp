#pragma once

// Ordered parallel helpers over an index range — the determinism layer on
// top of ThreadPool.
//
// The contract every caller relies on (and tests assert):
//
//   * Work is addressed by index: task i computes exactly the same value
//     no matter which thread runs it or how many threads exist. Callers
//     must therefore give each task its own state — in particular its own
//     netbase::Rng substream, pre-forked *serially* from a root generator
//     keyed by task index — and never touch a shared generator from
//     inside the loop body.
//   * Results are combined in index order: ParallelMap writes slot i of
//     the output vector, so same-seed output is byte-identical between
//     `threads=1` and `threads=N` (scripts/check_bench_json.py --compare
//     enforces this across the bench suite).
//   * `threads <= 1` (after ResolveThreads) runs inline on the caller's
//     thread with no pool interaction and no synchronization.
//
// Exceptions thrown by a task cancel the remaining chunks, and the first
// one is rethrown on the calling thread after the batch drains.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <latch>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace quicksand::exec {

namespace detail {

/// Picks a chunk size from the problem size alone, not from the thread
/// count: 64 chunks keeps self-scheduling balanced for any sane worker
/// count.
[[nodiscard]] inline std::size_t AutoGrain(std::size_t n) noexcept {
  const std::size_t grain = (n + 63) / 64;
  return grain == 0 ? 1 : grain;
}

/// Runs `chunk(begin, end)` over [0, n) on `workers` threads (the caller
/// counts as one), self-scheduling `grain`-sized chunks off a shared
/// cursor. Rethrows the first task exception on the caller's thread.
template <typename ChunkFn>
void RunChunked(std::size_t workers, std::size_t n, std::size_t grain, ChunkFn&& chunk) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto drive = [&]() noexcept {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      try {
        chunk(begin, end);
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  const std::size_t helpers = workers - 1;
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(helpers);
  std::latch done(static_cast<std::ptrdiff_t>(helpers));
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.Submit([&drive, &done] {
      drive();
      done.count_down();
    });
  }
  drive();
  done.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

/// Calls `fn(i)` for every i in [0, n), on up to `threads` threads
/// (0 = hardware concurrency). `grain` is the number of consecutive
/// indices a worker claims at a time (0 = automatic).
template <typename Fn>
void ParallelFor(std::size_t threads, std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  const std::size_t workers = std::min(ResolveThreads(threads), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  static obs::Counter& batches = obs::MetricsRegistry::Global().GetCounter(
      "exec.parallel.batches", obs::Stability::kRun);
  static obs::Counter& items = obs::MetricsRegistry::Global().GetCounter(
      "exec.parallel.items", obs::Stability::kRun);
  batches.Increment();
  items.Increment(n);
  if (grain == 0) grain = detail::AutoGrain(n);
  detail::RunChunked(workers, n, grain, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Maps `fn(i)` over [0, n) into a vector whose slot i holds task i's
/// result — output order is index order regardless of scheduling.
template <typename Fn,
          typename R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>>
[[nodiscard]] std::vector<R> ParallelMap(std::size_t threads, std::size_t n, Fn&& fn,
                                         std::size_t grain = 0) {
  std::vector<std::optional<R>> slots(n);
  ParallelFor(
      threads, n, [&](std::size_t i) { slots[i].emplace(fn(i)); }, grain);
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace quicksand::exec
