#pragma once

// Per-peer session supervision for quicksandd.
//
// A resident monitor only earns its longitudinal picture if its collector
// sessions survive the real world: peers flap, transports hang, and a
// naive reconnect loop either hammers a sick peer or gives up. Each peer
// session is therefore driven by a small BGP-shaped state machine
// (quagga's bgpd FSM, reduced to what a collector consumer needs):
//
//   Idle --Start--> Connecting --ok--> Established
//     Connecting --fail/timeout--> Backoff --retry--> Connecting
//     Established --hold timer expiry / peer close--> Backoff   (a *flap*)
//
// Robustness mechanics, all deterministic in the explicit `now_s` every
// call takes (the daemon never reads a clock itself):
//   * hold timer / keepalive deadlines — liveness is detected by silence,
//     exactly like BGP: any received record or keepalive refreshes the
//     hold deadline; expiry is a flap;
//   * capped exponential reconnect backoff via util::RetryPolicy /
//     util::BackoffMs, with the jitter drawn from a named substream of
//     (seed, session, attempt) — a pure function, so a restarted daemon
//     recomputes the identical schedule (no RNG state to snapshot);
//   * flap damping with a penalty / half-life model (RFC 2439 shape): each
//     flap adds a fixed penalty which decays exponentially; above the
//     suppress threshold reconnects are deferred until the penalty decays
//     below the reuse threshold, so a pathological peer cannot convert
//     the daemon into a connect storm.
//
// Every decision is a pure function of (config, seed, event sequence,
// clock), which is what lets the chaos harness assert byte-identical
// behavior across warm restarts (docs/DAEMON.md).

#include <cstdint>
#include <string_view>

#include "bgp/update.hpp"
#include "util/retry.hpp"

namespace quicksand::daemon {

struct StateCodec;

enum class SessionState : std::uint8_t {
  kIdle = 0,
  kConnecting = 1,
  kEstablished = 2,
  kBackoff = 3,
};

[[nodiscard]] std::string_view ToString(SessionState state) noexcept;

struct SessionConfig {
  /// A connect attempt that has not resolved by this deadline counts as a
  /// failure.
  std::int64_t connect_timeout_s = 30;
  /// Silence on an established session for this long is a flap (the BGP
  /// hold timer).
  std::int64_t hold_time_s = 180;
  /// How often the daemon side emits keepalives while established.
  std::int64_t keepalive_interval_s = 60;
  /// Reconnect backoff: base_backoff_ms/max_backoff_ms are read in
  /// milliseconds and rounded up to whole seconds (the Clock granularity);
  /// the jitter fraction applies as in util::BackoffMs.
  util::RetryPolicy reconnect{
      .max_attempts = 0,  // unused: a supervisor retries forever
      .base_backoff_ms = 5'000,
      .max_backoff_ms = 300'000,
      .jitter = 0.5,
      .sleeper = nullptr,
  };
  /// Flap damping: penalty added per flap, exponential half-life decay,
  /// suppress above / reuse below thresholds.
  double flap_penalty = 1000;
  double flap_suppress_threshold = 3000;
  double flap_reuse_threshold = 800;
  std::int64_t flap_half_life_s = 900;
};

/// Point-in-time health of one session, as served by the `health` query.
struct SessionHealth {
  bgp::SessionId session = 0;
  SessionState state = SessionState::kIdle;
  std::size_t flaps = 0;
  std::size_t establishments = 0;
  std::size_t connect_failures = 0;
  double penalty = 0;  ///< decayed to the query time
  bool damped = false;
  std::int64_t last_established_s = -1;  ///< -1 = never
  std::int64_t next_deadline_s = -1;     ///< earliest pending timer, -1 = none
};

/// The per-peer state machine. Event methods mutate state; Poll() runs
/// the timers and tells the transport what to do next. Not thread-safe:
/// the daemon serializes all session events on its pump thread.
class SessionSupervisor {
 public:
  enum class Action : std::uint8_t { kNone, kAttemptConnect, kSendKeepalive };

  SessionSupervisor(bgp::SessionId session, SessionConfig config, std::uint64_t seed);

  /// Idle -> Connecting. No-op in any other state.
  void Start(std::int64_t now_s);

  /// Resolution of the outstanding connect attempt.
  void OnConnectResult(std::int64_t now_s, bool ok);

  /// Any inbound liveness (keepalive or data) refreshes the hold timer.
  void OnActivity(std::int64_t now_s);

  /// Orderly or abrupt peer disconnect while established — a flap.
  void OnPeerClose(std::int64_t now_s);

  /// Runs all deadline checks at `now_s` and returns the single action the
  /// transport should take (at most one per call; call until kNone to
  /// drain). Deterministic: same state + same clock => same action.
  [[nodiscard]] Action Poll(std::int64_t now_s);

  [[nodiscard]] SessionState state() const noexcept { return state_; }
  [[nodiscard]] bgp::SessionId session() const noexcept { return session_; }
  [[nodiscard]] std::size_t flaps() const noexcept { return flaps_; }
  [[nodiscard]] std::size_t establishments() const noexcept { return establishments_; }
  [[nodiscard]] std::size_t connect_failures() const noexcept { return connect_failures_; }

  /// The flap-damping penalty decayed to `now_s`.
  [[nodiscard]] double PenaltyAt(std::int64_t now_s) const;

  /// True while reconnects are suppressed by damping.
  [[nodiscard]] bool IsDamped(std::int64_t now_s) const;

  /// Earliest pending timer (connect/hold/keepalive/retry/damping-reuse),
  /// or -1 when idle. Drivers use it to step simulated time efficiently.
  [[nodiscard]] std::int64_t NextDeadlineS(std::int64_t now_s) const;

  [[nodiscard]] SessionHealth Health(std::int64_t now_s) const;

  /// The reconnect backoff, in whole seconds, before 1-based attempt
  /// `failure_number` — a pure function of (seed, session, config), so
  /// restarts recompute identical schedules. Exposed for tests.
  [[nodiscard]] std::int64_t BackoffSeconds(std::size_t failure_number) const;

 private:
  friend struct StateCodec;

  void EnterBackoff(std::int64_t now_s, bool flap);
  void AddPenalty(std::int64_t now_s);

  bgp::SessionId session_ = 0;
  SessionConfig config_;
  std::uint64_t seed_ = 0;

  SessionState state_ = SessionState::kIdle;
  bool connect_requested_ = false;  ///< kAttemptConnect already handed out
  std::int64_t connect_deadline_s = -1;
  std::int64_t hold_deadline_s_ = -1;
  std::int64_t next_keepalive_s_ = -1;
  std::int64_t retry_at_s_ = -1;
  /// Consecutive failed connect attempts since the last establishment —
  /// the exponent of the backoff curve.
  std::size_t consecutive_failures_ = 0;

  std::size_t flaps_ = 0;
  std::size_t establishments_ = 0;
  std::size_t connect_failures_ = 0;
  std::int64_t last_established_s_ = -1;

  /// Damping: penalty as of penalty_time_s_, decayed on read.
  double penalty_ = 0;
  std::int64_t penalty_time_s_ = 0;
  bool suppressed_ = false;
};

}  // namespace quicksand::daemon
