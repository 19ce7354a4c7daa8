#pragma once

// Deterministic replay transport for quicksandd.
//
// The driver plays a generated (or recorded) feed into a Daemon under
// simulated time, acting as every session's transport at once:
//
//   * the feed is interned once into the daemon's path table, and the
//     driver works on those records from then on;
//   * the same fault::FaultInjector both perturbs the feed
//     (PerturbRecords: outage drops, resync bursts, loss, delay) and gates
//     the transport (ScheduleFor: connect attempts fail and keepalives go
//     unanswered while the peer's outage schedule says it is down) — data
//     loss and session liveness are views of one outage, never
//     contradictory;
//   * supervisors are polled every step; kAttemptConnect resolves against
//     the outage schedule, kSendKeepalive elicits peer activity while the
//     peer is up, silence across an outage expires the hold timer (the
//     flap path);
//   * records are delivered in per-session time order while the session
//     is established; records that arrive during backoff wait at the
//     cursor (the collector buffers) and flush on re-establishment.
//
// Everything the driver does is a pure function of (daemon config, fault
// plan, feed, step grid), which is what the chaos harness leans on: a
// driver re-built after a kill, aligned to the snapshot via
// AlignToRestore (cursors from the daemon's offered-record tallies, time
// from the snapshot), replays the identical remainder. Snapshots are only
// written at step boundaries (Tick runs on the grid), so restored time
// always lands back on the grid.
//
// step_s must stay below the session hold time: the driver's keepalive
// round-trip happens at step granularity, and a grid coarser than the
// hold timer would flap healthy sessions.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "bgp/update.hpp"
#include "daemon/quicksandd.hpp"
#include "fault/injector.hpp"

namespace quicksand::daemon {

struct ReplayConfig {
  std::int64_t start_s = 0;
  std::int64_t end_s = netbase::duration::kMonth;
  std::int64_t step_s = 30;
};

class ReplayDriver {
 public:
  /// Interns both feeds once into `daemon.paths()`, perturbs `updates`
  /// against `plan` (rate 0 = exact pass-through) on the record plane and
  /// partitions the result into per-session timelines. The initial RIB
  /// seeds resync bursts and the daemon baseline. Throws
  /// std::invalid_argument if `config.step_s` is not positive: the step
  /// grid would never reach `end_s`.
  ReplayDriver(Daemon& daemon, const fault::FaultPlan& plan,
               std::span<const bgp::BgpUpdate> initial_rib,
               std::span<const bgp::BgpUpdate> updates, ReplayConfig config = {});

  /// Fresh-start path: streams the initial RIB through the daemon's
  /// baseline learning. Skip this after a successful restore — the
  /// snapshot already contains the baseline's effects.
  void Prime();

  /// Restore path: repositions every session cursor from the restored
  /// daemon's offered-record tallies and resumes the step grid at the
  /// snapshot time.
  void AlignToRestore(std::int64_t snapshot_time_s);

  [[nodiscard]] bool Done() const noexcept {
    return started_ && now_ >= config_.end_s;
  }

  /// Advances one step: polls supervisors, resolves transport actions
  /// against outage schedules, delivers due records, pumps and ticks the
  /// daemon. Returns the stepped-to time.
  std::int64_t Step();

  /// Steps until Done().
  void Run();

  [[nodiscard]] std::int64_t Now() const noexcept { return now_; }
  [[nodiscard]] const fault::StreamFaultStats& stream_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const fault::FlapSchedule& ScheduleOf(bgp::SessionId session) const {
    return timelines_.at(session).schedule;
  }

 private:
  struct SessionTimeline {
    std::vector<bgp::feed::UpdateRec> records;  ///< perturbed, time-ordered
    std::size_t cursor = 0;                     ///< next undelivered record
    fault::FlapSchedule schedule;
  };

  [[nodiscard]] static bool PeerUp(const fault::FlapSchedule& schedule,
                                   std::int64_t now_s);
  void StepSession(bgp::SessionId session, SessionTimeline& timeline,
                   std::int64_t now_s);

  Daemon& daemon_;
  fault::FaultInjector injector_;
  std::vector<bgp::feed::UpdateRec> rib_;  ///< indexes daemon_.paths()
  ReplayConfig config_;
  std::map<bgp::SessionId, SessionTimeline> timelines_;
  fault::StreamFaultStats stats_;
  std::int64_t now_ = 0;
  bool started_ = false;
};

}  // namespace quicksand::daemon
