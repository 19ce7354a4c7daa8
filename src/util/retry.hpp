#pragma once

// Bounded retry with deterministic exponential backoff + jitter.
//
// The pipeline's file I/O (and, under fault injection, any transient
// failure the injector simulates) is retried through this helper rather
// than ad-hoc loops. Backoff values are a pure function of the RetryPolicy
// and the caller-supplied netbase::Rng, so a fault-injected run with a
// fixed seed retries — and backs off — identically every time (the
// quicksand::exec determinism contract extends to failure handling; see
// docs/ROBUSTNESS.md).
//
// Sleeping is pluggable: the default sleeper really sleeps, while tests
// and benches install a recording no-op so retried runs stay fast and
// their wall clock stays out of the deterministic output.

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "netbase/rng.hpp"
#include "obs/metrics.hpp"

namespace quicksand::util {

/// How often and how patiently to retry.
struct RetryPolicy {
  /// Total attempts, including the first (must be >= 1).
  std::size_t max_attempts = 4;
  /// Backoff before retry k (1-based) is base * 2^(k-1), capped below,
  /// then jittered.
  double base_backoff_ms = 10.0;
  double max_backoff_ms = 1000.0;
  /// Jitter fraction in [0, 1]: the backoff is scaled by a factor drawn
  /// uniformly from [1 - jitter/2, 1 + jitter/2] to de-synchronize
  /// contending retriers.
  double jitter = 0.5;
  /// Called with each backoff in milliseconds. Defaults to really
  /// sleeping; replace with a no-op for simulated time.
  std::function<void(double ms)> sleeper;
};

/// What a Retry call did — attempts made and time (not) slept.
struct RetryStats {
  std::size_t attempts = 0;   ///< calls to fn, including the successful one
  std::size_t retries = 0;    ///< attempts - 1 if it ever failed
  double total_backoff_ms = 0;
};

/// The backoff before 1-based retry `retry_number`, jittered from `rng`.
/// Exposed for tests; Retry() uses it internally.
[[nodiscard]] inline double BackoffMs(const RetryPolicy& policy, std::size_t retry_number,
                                      netbase::Rng& rng) noexcept {
  double backoff = policy.base_backoff_ms;
  for (std::size_t k = 1; k < retry_number && backoff < policy.max_backoff_ms; ++k) {
    backoff *= 2;
  }
  if (backoff > policy.max_backoff_ms) backoff = policy.max_backoff_ms;
  const double factor = 1.0 + policy.jitter * (rng.UniformDouble() - 0.5);
  return backoff * factor;
}

/// Bucket bounds for the `util.retry.attempts` histogram: attempt counts
/// are small integers, so exact low buckets tell the whole story.
[[nodiscard]] inline std::vector<double> RetryAttemptBuckets() {
  return {1, 2, 3, 4, 6, 8, 12, 16};
}

/// Records one finished retried operation in the `obs` histograms. Only
/// called for operations that actually failed at least once, so fault-free
/// runs register nothing (the lazy-registration contract of
/// docs/ROBUSTNESS.md). `util.retry.attempts` counts are exact integers
/// (deterministic for seeded runs at any thread count); the per-sleep
/// distribution lands in `util.retry.backoff_ms`, registered
/// obs::Stability::kRun as wall-clock-shaped. The old opaque totals
/// (`util.retry.retries` / `util.retry.giveups`) stay for compatibility.
inline void ObserveRetryOutcome(const RetryStats& tally) {
  obs::MetricsRegistry::Global()
      .GetHistogram("util.retry.attempts", RetryAttemptBuckets())
      .Observe(static_cast<double>(tally.attempts));
}

/// Calls `fn` up to policy.max_attempts times, backing off between
/// attempts. Any exception from `fn` triggers a retry; the last attempt's
/// exception propagates. Returns fn's value (void allowed). `stats`, when
/// given, receives the attempt/backoff tally. Global metrics (registered
/// only when a failure actually occurs, so fault-free runs leave no
/// trace): the `util.retry.retries` / `util.retry.giveups` counters, plus
/// `util.retry.attempts` and `util.retry.backoff_ms` histograms — session
/// reconnect and retried-I/O behavior is a visible distribution in bench
/// JSON, not just an opaque total.
template <typename Fn>
auto Retry(const RetryPolicy& policy, netbase::Rng& rng, Fn&& fn,
           RetryStats* stats = nullptr) {
  const std::size_t max_attempts = policy.max_attempts == 0 ? 1 : policy.max_attempts;
  RetryStats local;
  for (std::size_t attempt = 1;; ++attempt) {
    ++local.attempts;
    try {
      if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
        fn();
        if (local.retries > 0) ObserveRetryOutcome(local);
        if (stats != nullptr) *stats = local;
        return;
      } else {
        auto result = fn();
        if (local.retries > 0) ObserveRetryOutcome(local);
        if (stats != nullptr) *stats = local;
        return result;
      }
    } catch (...) {
      if (attempt >= max_attempts) {
        obs::MetricsRegistry::Global().GetCounter("util.retry.giveups").Increment();
        ObserveRetryOutcome(local);
        if (stats != nullptr) *stats = local;
        throw;
      }
      ++local.retries;
      obs::MetricsRegistry::Global().GetCounter("util.retry.retries").Increment();
      const double backoff = BackoffMs(policy, attempt, rng);
      local.total_backoff_ms += backoff;
      obs::MetricsRegistry::Global()
          .GetHistogram("util.retry.backoff_ms",
                        obs::MetricsRegistry::DefaultLatencyBucketsMs(),
                        obs::Stability::kRun)
          .Observe(backoff);
      if (policy.sleeper) {
        policy.sleeper(backoff);
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
    }
  }
}

}  // namespace quicksand::util
