#pragma once

// Declarative fault model for the collector → analysis pipeline.
//
// A FaultPlan says *what* can go wrong and how often; a FaultInjector
// (fault/injector.hpp) turns the plan into concrete, seed-deterministic
// perturbations. Three choke points are modelled, mirroring the artifact
// classes real RIS data exhibits:
//
//   * MRT text streams — corrupted, truncated, duplicated, and locally
//     reordered lines (archive damage, interleaved dump writers);
//   * collector sessions — flap schedules (down intervals during which
//     updates are missed), resync bursts on recovery (the session
//     re-announces its table — the very artifact the session-reset filter
//     exists for), and per-update loss/delay;
//   * file I/O — transient read/write failures, retried through
//     util::Retry with deterministic backoff.
//
// Determinism contract: every decision an injector makes is a pure
// function of (plan.seed, choke point, index) — never of wall clock,
// thread count, or call interleaving. Two injectors built from equal
// plans make identical decisions, and a plan with all rates at zero is an
// exact pass-through (see docs/ROBUSTNESS.md).

#include <cstdint>

#include "netbase/sim_time.hpp"
#include "util/retry.hpp"

namespace quicksand::fault {

/// Per-line faults on textual MRT dumps.
struct MrtFaultRates {
  double corrupt_rate = 0;    ///< overwrite one byte with garbage
  double truncate_rate = 0;   ///< cut the line short
  double duplicate_rate = 0;  ///< emit the line twice
  /// Swap the line with its successor when their timestamps are within
  /// the jitter window (injector.cpp) — produces genuinely out-of-order
  /// streams without teleporting updates across the measurement window.
  double reorder_rate = 0;
};

/// Per-session delivery faults on update streams.
struct SessionFaultRates {
  /// Probability a given session has a flap schedule at all. A flapping
  /// session's outage count and lengths are drawn with fixed means
  /// (injector.cpp); on recovery it re-announces its current table (a
  /// resync burst) — the downstream sanitizer is expected to collapse it.
  double flap_rate = 0;
  double loss_rate = 0;   ///< iid per-update loss outside outages
  double delay_rate = 0;  ///< iid per-update delivery delay
  std::int64_t max_delay_s = 240;
};

/// Transient file-I/O failures.
struct IoFaultRates {
  double failure_rate = 0;  ///< per attempt
  /// Never inject more consecutive failures than this for one operation,
  /// so a retry budget of max_consecutive+1 attempts always succeeds —
  /// injected I/O faults degrade throughput, never correctness.
  std::size_t max_consecutive = 2;
};

/// The complete fault model for one pipeline run.
struct FaultPlan {
  std::uint64_t seed = 42;
  /// Measurement window; flap schedules are drawn inside it.
  std::int64_t window_s = netbase::duration::kMonth;
  MrtFaultRates mrt;
  SessionFaultRates session;
  IoFaultRates io;
  /// Policy for the injector's retried file I/O wrappers.
  util::RetryPolicy retry;

  /// The fault-sweep knob: one headline rate applied across the board —
  /// text faults and per-update loss/delay at `rate`, session flaps at
  /// 2*rate (so a 10% sweep point flaps ~1 in 5 sessions), I/O failures
  /// at 5*rate (a run performs only a handful of file operations versus
  /// hundreds of thousands of per-line/per-update draws, so per-attempt
  /// failures need amplification to register on a sweep at all). Retries
  /// never sleep (benches stay fast).
  [[nodiscard]] static FaultPlan Scaled(double rate, std::uint64_t seed,
                                        std::int64_t window_s) {
    FaultPlan plan;
    plan.seed = seed;
    plan.window_s = window_s;
    plan.mrt.corrupt_rate = rate;
    plan.mrt.truncate_rate = rate;
    plan.mrt.duplicate_rate = rate;
    plan.mrt.reorder_rate = rate;
    plan.session.flap_rate = rate * 2 > 1.0 ? 1.0 : rate * 2;
    plan.session.loss_rate = rate;
    plan.session.delay_rate = rate;
    plan.io.failure_rate = rate * 5 > 0.9 ? 0.9 : rate * 5;
    plan.retry.max_attempts = plan.io.max_consecutive + 2;
    plan.retry.sleeper = [](double) {};
    return plan;
  }
};

}  // namespace quicksand::fault
