#include "daemon/session.hpp"

#include <algorithm>
#include <cmath>

#include "netbase/rng.hpp"
#include "obs/metrics.hpp"

namespace quicksand::daemon {

namespace {

std::uint64_t Fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Named-substream generator, the fault::FaultInjector scheme: a pure
/// function of (seed, purpose, index), so backoff jitter is identical on
/// every replay and after every restart.
netbase::Rng Substream(std::uint64_t seed, std::string_view purpose,
                       std::uint64_t index) {
  std::uint64_t h = Fnv1a(purpose);
  h ^= index + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return netbase::Rng(seed ^ h);
}

/// Backoff histogram bounds in seconds — reconnect behavior as a visible
/// distribution, not an opaque total.
std::vector<double> BackoffBucketsS() { return {1, 2, 5, 10, 30, 60, 120, 300, 600}; }

}  // namespace

std::string_view ToString(SessionState state) noexcept {
  switch (state) {
    case SessionState::kIdle: return "idle";
    case SessionState::kConnecting: return "connecting";
    case SessionState::kEstablished: return "established";
    case SessionState::kBackoff: return "backoff";
  }
  return "?";
}

SessionSupervisor::SessionSupervisor(bgp::SessionId session, SessionConfig config,
                                     std::uint64_t seed)
    : session_(session), config_(std::move(config)), seed_(seed) {}

std::int64_t SessionSupervisor::BackoffSeconds(std::size_t failure_number) const {
  // Mix the session into the substream index so two peers never share a
  // jitter sequence (de-synchronized reconnect storms).
  netbase::Rng rng = Substream(
      seed_, "daemon.session.backoff",
      (static_cast<std::uint64_t>(session_) << 20) | static_cast<std::uint64_t>(failure_number));
  const double ms = util::BackoffMs(config_.reconnect, failure_number, rng);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(ms / 1000.0)));
}

void SessionSupervisor::Start(std::int64_t now_s) {
  if (state_ != SessionState::kIdle) return;
  state_ = SessionState::kConnecting;
  connect_requested_ = false;
  connect_deadline_s = now_s + config_.connect_timeout_s;
}

void SessionSupervisor::OnConnectResult(std::int64_t now_s, bool ok) {
  if (state_ != SessionState::kConnecting) return;
  if (ok) {
    state_ = SessionState::kEstablished;
    consecutive_failures_ = 0;
    ++establishments_;
    last_established_s_ = now_s;
    hold_deadline_s_ = now_s + config_.hold_time_s;
    next_keepalive_s_ = now_s + config_.keepalive_interval_s;
    obs::MetricsRegistry::Global()
        .GetCounter("daemon.session.establishments", obs::Stability::kRun)
        .Increment();
  } else {
    ++connect_failures_;
    obs::MetricsRegistry::Global()
        .GetCounter("daemon.session.connect_failures", obs::Stability::kRun)
        .Increment();
    EnterBackoff(now_s, /*flap=*/false);
  }
}

void SessionSupervisor::OnActivity(std::int64_t now_s) {
  if (state_ != SessionState::kEstablished) return;
  hold_deadline_s_ = now_s + config_.hold_time_s;
}

void SessionSupervisor::OnPeerClose(std::int64_t now_s) {
  if (state_ != SessionState::kEstablished) return;
  obs::MetricsRegistry::Global()
      .GetCounter("daemon.session.peer_closes", obs::Stability::kRun)
      .Increment();
  EnterBackoff(now_s, /*flap=*/true);
}

SessionSupervisor::Action SessionSupervisor::Poll(std::int64_t now_s) {
  switch (state_) {
    case SessionState::kIdle:
      return Action::kNone;

    case SessionState::kConnecting:
      if (now_s >= connect_deadline_s) {
        ++connect_failures_;
        obs::MetricsRegistry::Global()
            .GetCounter("daemon.session.connect_timeouts", obs::Stability::kRun)
            .Increment();
        EnterBackoff(now_s, /*flap=*/false);
        return Action::kNone;
      }
      if (!connect_requested_) {
        connect_requested_ = true;
        return Action::kAttemptConnect;
      }
      return Action::kNone;

    case SessionState::kEstablished:
      if (now_s >= hold_deadline_s_) {
        // Silence past the hold timer: the peer is gone even if the
        // transport never noticed. This is the flap signal under outage
        // schedules — no explicit down event is required.
        obs::MetricsRegistry::Global()
            .GetCounter("daemon.session.hold_expirations", obs::Stability::kRun)
            .Increment();
        EnterBackoff(now_s, /*flap=*/true);
        return Action::kNone;
      }
      if (now_s >= next_keepalive_s_) {
        next_keepalive_s_ = now_s + config_.keepalive_interval_s;
        return Action::kSendKeepalive;
      }
      return Action::kNone;

    case SessionState::kBackoff:
      if (now_s < retry_at_s_) return Action::kNone;
      if (IsDamped(now_s)) {
        // Backoff expired but damping says the peer is still too flappy;
        // defer until the penalty decays below the reuse threshold.
        obs::MetricsRegistry::Global()
            .GetCounter("daemon.session.damped_deferrals", obs::Stability::kRun)
            .Increment();
        return Action::kNone;
      }
      state_ = SessionState::kConnecting;
      connect_requested_ = true;  // hand out the attempt with the transition
      connect_deadline_s = now_s + config_.connect_timeout_s;
      obs::MetricsRegistry::Global()
          .GetCounter("daemon.session.reconnects", obs::Stability::kRun)
          .Increment();
      return Action::kAttemptConnect;
  }
  return Action::kNone;
}

void SessionSupervisor::EnterBackoff(std::int64_t now_s, bool flap) {
  if (flap) {
    ++flaps_;
    obs::MetricsRegistry::Global()
        .GetCounter("daemon.session.flaps", obs::Stability::kRun)
        .Increment();
    AddPenalty(now_s);
  }
  ++consecutive_failures_;
  const std::int64_t backoff_s = BackoffSeconds(consecutive_failures_);
  retry_at_s_ = now_s + backoff_s;
  state_ = SessionState::kBackoff;
  obs::MetricsRegistry::Global()
      .GetHistogram("daemon.session.backoff_s", BackoffBucketsS(),
                    obs::Stability::kRun)
      .Observe(static_cast<double>(backoff_s));
}

void SessionSupervisor::AddPenalty(std::int64_t now_s) {
  penalty_ = PenaltyAt(now_s) + config_.flap_penalty;
  penalty_time_s_ = now_s;
  if (penalty_ > config_.flap_suppress_threshold) suppressed_ = true;
}

double SessionSupervisor::PenaltyAt(std::int64_t now_s) const {
  if (penalty_ <= 0) return 0;
  const std::int64_t elapsed = now_s - penalty_time_s_;
  if (elapsed <= 0) return penalty_;
  if (config_.flap_half_life_s <= 0) return 0;
  return penalty_ *
         std::exp2(-static_cast<double>(elapsed) /
                   static_cast<double>(config_.flap_half_life_s));
}

bool SessionSupervisor::IsDamped(std::int64_t now_s) const {
  if (!suppressed_) return false;
  // Hysteresis: once suppressed, stay suppressed until the decayed
  // penalty crosses the (lower) reuse threshold.
  return PenaltyAt(now_s) >= config_.flap_reuse_threshold;
}

std::int64_t SessionSupervisor::NextDeadlineS(std::int64_t now_s) const {
  switch (state_) {
    case SessionState::kIdle:
      return -1;
    case SessionState::kConnecting:
      return connect_deadline_s;
    case SessionState::kEstablished:
      return std::min(hold_deadline_s_, next_keepalive_s_);
    case SessionState::kBackoff: {
      if (!IsDamped(now_s)) return retry_at_s_;
      // Earliest instant the penalty decays to the reuse threshold:
      // penalty * 2^(-t/half_life) = reuse  =>  t = half_life * log2(p/reuse).
      const double p = PenaltyAt(now_s);
      if (p <= 0 || config_.flap_reuse_threshold <= 0) return retry_at_s_;
      const double t =
          static_cast<double>(config_.flap_half_life_s) *
          std::log2(p / config_.flap_reuse_threshold);
      const auto reuse_at = now_s + static_cast<std::int64_t>(std::ceil(std::max(0.0, t)));
      return std::max(retry_at_s_, reuse_at);
    }
  }
  return -1;
}

SessionHealth SessionSupervisor::Health(std::int64_t now_s) const {
  SessionHealth health;
  health.session = session_;
  health.state = state_;
  health.flaps = flaps_;
  health.establishments = establishments_;
  health.connect_failures = connect_failures_;
  health.penalty = PenaltyAt(now_s);
  health.damped = IsDamped(now_s);
  health.last_established_s = last_established_s_;
  health.next_deadline_s = NextDeadlineS(now_s);
  return health;
}

}  // namespace quicksand::daemon
