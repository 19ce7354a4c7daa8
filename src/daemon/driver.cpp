#include "daemon/driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace quicksand::daemon {

ReplayDriver::ReplayDriver(Daemon& daemon, const fault::FaultPlan& plan,
                           std::span<const bgp::BgpUpdate> initial_rib,
                           std::span<const bgp::BgpUpdate> updates, ReplayConfig config)
    : daemon_(daemon), injector_(plan), config_(config) {
  if (config_.step_s <= 0) {
    throw std::invalid_argument("ReplayDriver: step_s must be positive");
  }
  rib_ = bgp::feed::InternRecords(*daemon_.paths(), initial_rib);
  const auto records = bgp::feed::InternRecords(*daemon_.paths(), updates);
  // Every session seen anywhere in the feed gets a supervisor-driven
  // timeline, even if faults end up dropping all its updates.
  for (const bgp::feed::UpdateRec& rec : rib_) timelines_[rec.session];
  for (const bgp::feed::UpdateRec& rec : records) timelines_[rec.session];

  const fault::FaultedRecords perturbed = injector_.PerturbRecords(rib_, records);
  stats_ = perturbed.stats;
  for (const auto& rec : perturbed.updates) timelines_[rec.session].records.push_back(rec);
  for (auto& [session, timeline] : timelines_) {
    timeline.schedule = injector_.ScheduleFor(session);
  }
}

void ReplayDriver::Prime() {
  bgp::feed::UpdateStream rib_stream = bgp::feed::FromRecords(daemon_.paths(), rib_);
  daemon_.LearnBaseline(rib_stream);
}

void ReplayDriver::AlignToRestore(std::int64_t snapshot_time_s) {
  for (auto& [session, timeline] : timelines_) {
    timeline.cursor = std::min<std::size_t>(
        static_cast<std::size_t>(daemon_.OfferedRecords(session)),
        timeline.records.size());
  }
  now_ = snapshot_time_s;
  started_ = true;
}

bool ReplayDriver::PeerUp(const fault::FlapSchedule& schedule, std::int64_t now_s) {
  for (const auto& [down, up] : schedule.down) {
    if (now_s >= down && now_s < up) return false;
    if (down > now_s) break;  // intervals are ascending
  }
  return true;
}

void ReplayDriver::StepSession(bgp::SessionId session, SessionTimeline& timeline,
                               std::int64_t now_s) {
  SessionSupervisor& supervisor = daemon_.Session(session);
  supervisor.Start(now_s);  // no-op except on the first step
  const bool up = PeerUp(timeline.schedule, now_s);
  // Drain the supervisor's actions for this instant. The guard bounds a
  // hypothetical FSM bug; a healthy machine yields at most two actions.
  for (int guard = 0; guard < 8; ++guard) {
    const SessionSupervisor::Action action = supervisor.Poll(now_s);
    if (action == SessionSupervisor::Action::kNone) break;
    if (action == SessionSupervisor::Action::kAttemptConnect) {
      supervisor.OnConnectResult(now_s, up);
    } else if (action == SessionSupervisor::Action::kSendKeepalive) {
      // A live peer answers the keepalive; a down peer stays silent and
      // the hold timer eventually expires the session (the flap path).
      if (up) supervisor.OnActivity(now_s);
    }
  }
  if (supervisor.state() != SessionState::kEstablished) return;
  std::vector<bgp::feed::UpdateRec>& records = timeline.records;
  std::size_t end = timeline.cursor;
  while (end < records.size() && records[end].time.seconds <= now_s) ++end;
  if (end == timeline.cursor) return;
  std::vector<bgp::feed::UpdateRec> batch(records.begin() + timeline.cursor,
                                          records.begin() + end);
  timeline.cursor = end;
  static_cast<void>(daemon_.OfferBatch(session, std::move(batch)));
  supervisor.OnActivity(now_s);  // data is liveness
}

std::int64_t ReplayDriver::Step() {
  const std::int64_t now = started_ ? now_ + config_.step_s : config_.start_s;
  started_ = true;
  now_ = now;
  for (auto& [session, timeline] : timelines_) StepSession(session, timeline, now);
  daemon_.Pump();
  daemon_.Tick(now);
  return now;
}

void ReplayDriver::Run() {
  while (!Done()) Step();
}

}  // namespace quicksand::daemon
