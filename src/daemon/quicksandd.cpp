#include "daemon/quicksandd.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "ckpt/payload.hpp"
#include "ckpt/snapshot.hpp"
#include "daemon/state_codec.hpp"
#include "obs/metrics.hpp"

namespace quicksand::daemon {

namespace {

/// Snapshot shard layout: 0 = meta (time, cadence, sessions, ingest
/// tallies), 1 = churn analyzer, 2 = relay monitor.
constexpr std::uint64_t kMetaShard = 0;
constexpr std::uint64_t kChurnShard = 1;
constexpr std::uint64_t kMonitorShard = 2;
constexpr std::uint64_t kTotalShards = 3;

std::string FormatPenalty(double penalty) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", penalty);
  return buffer;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      table_(std::make_shared<bgp::feed::AsPathTable>()),
      churn_(config_.churn),
      monitor_(config_.monitored_prefixes),
      ingest_(config_.budget) {}

void Daemon::LearnBaseline(bgp::feed::UpdateStream& rib) {
  // One drain feeds both consumers: the churn baseline is "first path
  // observed" (exactly what ConsumeRecord does with a fresh state), the
  // monitor *learns* origins/upstreams without alerting. Identical to the
  // batch pipeline's treatment of the initial RIB (AnalyzeChurnStream /
  // LearnBaselineStream).
  std::vector<bgp::feed::UpdateRec> batch;
  while (rib.Next(batch)) {
    for (const bgp::feed::UpdateRec& rec : batch) {
      churn_.ConsumeRecord(rec, *rib.paths());
      monitor_.LearnRecord(rec, *rib.paths());
    }
  }
}

SessionSupervisor& Daemon::Session(bgp::SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(session, std::make_unique<SessionSupervisor>(
                                   session, config_.session, config_.seed))
             .first;
  }
  return *it->second;
}

OfferResult Daemon::OfferBatch(bgp::SessionId session,
                               std::vector<bgp::feed::UpdateRec> batch) {
  return ingest_.Offer(session, std::move(batch));
}

std::size_t Daemon::Pump() {
  std::vector<std::pair<bgp::SessionId, std::vector<bgp::feed::UpdateRec>>> drained;
  const std::size_t records = ingest_.DrainInto(drained);
  for (const auto& [session, batch] : drained) {
    for (const bgp::feed::UpdateRec& rec : batch) {
      churn_.ConsumeRecord(rec, *table_);
      static_cast<void>(monitor_.ConsumeRecord(rec, *table_));
    }
  }
  return records;
}

bool Daemon::Tick(std::int64_t now_s) {
  if (config_.checkpoint_path.empty()) return false;
  if (last_checkpoint_s_ < 0) {
    // First tick starts the cadence; nothing worth snapshotting yet.
    last_checkpoint_s_ = now_s;
    return false;
  }
  if (now_s - last_checkpoint_s_ < config_.checkpoint_every_s) return false;
  return WriteSnapshot(now_s);
}

std::uint64_t Daemon::ConfigFingerprint() const {
  ckpt::FingerprintBuilder fp;
  fp.Add("quicksandd-v1");
  fp.Add(config_.seed);
  fp.Add(static_cast<std::uint64_t>(config_.churn.dwell_threshold_s));
  fp.Add(static_cast<std::uint64_t>(config_.churn.window_end_s));
  std::vector<std::string> prefixes;
  prefixes.reserve(config_.monitored_prefixes.size());
  for (const netbase::Prefix& prefix : config_.monitored_prefixes) {
    prefixes.push_back(prefix.ToString());
  }
  std::sort(prefixes.begin(), prefixes.end());
  for (const std::string& prefix : prefixes) fp.Add(prefix);
  fp.Add(static_cast<std::uint64_t>(config_.session.connect_timeout_s));
  fp.Add(static_cast<std::uint64_t>(config_.session.hold_time_s));
  fp.Add(static_cast<std::uint64_t>(config_.session.keepalive_interval_s));
  fp.Add(config_.session.reconnect.base_backoff_ms);
  fp.Add(config_.session.reconnect.max_backoff_ms);
  fp.Add(std::bit_cast<std::uint64_t>(config_.session.reconnect.jitter));
  fp.Add(std::bit_cast<std::uint64_t>(config_.session.flap_penalty));
  fp.Add(std::bit_cast<std::uint64_t>(config_.session.flap_suppress_threshold));
  fp.Add(std::bit_cast<std::uint64_t>(config_.session.flap_reuse_threshold));
  fp.Add(static_cast<std::uint64_t>(config_.session.flap_half_life_s));
  fp.Add(config_.budget.max_records_per_session);
  fp.Add(config_.budget.max_bytes_per_session);
  fp.Add(std::bit_cast<std::uint64_t>(config_.budget.overload_fraction));
  return fp.Finish();
}

bool Daemon::WriteSnapshot(std::int64_t now_s) {
  if (config_.checkpoint_path.empty()) return false;
  ckpt::Snapshot snapshot;
  snapshot.fingerprint = ConfigFingerprint();
  snapshot.total_shards = kTotalShards;

  ckpt::PayloadWriter meta;
  meta.U64(static_cast<std::uint64_t>(now_s));
  meta.U64(static_cast<std::uint64_t>(last_checkpoint_s_));
  meta.U64(sessions_.size());
  for (const auto& [id, supervisor] : sessions_) {
    meta.U64(id);
    StateCodec::EncodeSession(meta, *supervisor);
  }
  StateCodec::EncodeIngest(meta, ingest_);
  snapshot.payloads[kMetaShard] = meta.Take();

  ckpt::PayloadWriter churn;
  StateCodec::EncodeChurn(churn, churn_);
  snapshot.payloads[kChurnShard] = churn.Take();

  ckpt::PayloadWriter monitor;
  StateCodec::EncodeMonitor(monitor, monitor_);
  snapshot.payloads[kMonitorShard] = monitor.Take();

  ckpt::WriteSnapshotFile(config_.checkpoint_path, snapshot);
  last_checkpoint_s_ = now_s;
  ++snapshots_written_;
  obs::MetricsRegistry::Global()
      .GetCounter("daemon.ckpt.writes", obs::Stability::kRun)
      .Increment();
  return true;
}

RestoreResult Daemon::TryRestore() {
  RestoreResult result;
  if (config_.checkpoint_path.empty()) return result;
  std::error_code ec;
  if (!std::filesystem::exists(config_.checkpoint_path, ec)) return result;

  const ckpt::SnapshotLoad load = ckpt::LoadSnapshotFile(config_.checkpoint_path);
  const auto reject = [&](std::string error) {
    // A rejected snapshot must leave the daemon exactly fresh — a decode
    // failure can strike mid-restore, after some state was mutated.
    churn_ = bgp::ChurnAnalyzer(config_.churn);
    monitor_ = core::RelayMonitor(config_.monitored_prefixes);
    ingest_ = IngestQueue(config_.budget);
    sessions_.clear();
    last_checkpoint_s_ = -1;
    result.restored = false;
    result.error = std::move(error);
    result.snapshot_time_s = -1;
    obs::MetricsRegistry::Global()
        .GetCounter("daemon.ckpt.restore_failures", obs::Stability::kRun)
        .Increment();
    return result;
  };

  if (!load.ok) return reject(load.error);
  if (load.snapshot.fingerprint != ConfigFingerprint()) {
    return reject("snapshot fingerprint does not match daemon config");
  }
  if (load.snapshot.total_shards != kTotalShards ||
      load.snapshot.payloads.size() != kTotalShards) {
    return reject("snapshot shard layout mismatch");
  }

  try {
    ckpt::PayloadReader meta(load.snapshot.payloads.at(kMetaShard));
    result.snapshot_time_s = static_cast<std::int64_t>(meta.U64());
    last_checkpoint_s_ = static_cast<std::int64_t>(meta.U64());
    const std::uint64_t session_count = meta.U64();
    sessions_.clear();
    for (std::uint64_t i = 0; i < session_count; ++i) {
      const auto id = static_cast<bgp::SessionId>(meta.U64());
      StateCodec::DecodeSession(meta, Session(id));
    }
    StateCodec::DecodeIngest(meta, ingest_);

    ckpt::PayloadReader churn(load.snapshot.payloads.at(kChurnShard));
    StateCodec::DecodeChurn(churn, churn_);

    ckpt::PayloadReader monitor(load.snapshot.payloads.at(kMonitorShard));
    StateCodec::DecodeMonitor(monitor, monitor_);
  } catch (const std::runtime_error& error) {
    return reject(std::string("snapshot payload decode failed: ") + error.what());
  }

  result.restored = true;
  obs::MetricsRegistry::Global()
      .GetCounter("daemon.ckpt.restores", obs::Stability::kRun)
      .Increment();
  return result;
}

std::uint64_t Daemon::OfferedRecords(bgp::SessionId session) const {
  const auto it = ingest_.tallies().find(session);
  return it == ingest_.tallies().end() ? 0 : it->second.offered_records;
}

std::string Daemon::FormatAlertLine(const core::Alert& alert) {
  std::string line = "t=" + std::to_string(alert.time.seconds);
  line += " session=" + std::to_string(alert.session);
  line += " kind=";
  line += core::ToString(alert.kind);
  line += " monitored=" + alert.monitored_prefix.ToString();
  line += " announced=" + alert.announced_prefix.ToString();
  line += " suspect=AS" + std::to_string(alert.suspect);
  return line;
}

std::string Daemon::DumpAlerts() const {
  std::string out;
  for (const core::Alert& alert : monitor_.alerts()) {
    out += FormatAlertLine(alert);
    out += '\n';
  }
  return out;
}

std::string Daemon::HandleRequest(std::string_view payload, std::int64_t now_s,
                                  std::int64_t deadline_s) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (deadline_s >= 0 && now_s > deadline_s) {
    // Picked up past its deadline (queued behind load): answering now
    // would hand back stale data the client already gave up on.
    registry.GetCounter("daemon.query.rejected_deadline", obs::Stability::kRun).Increment();
    return ErrResponse("deadline expired at t=" + std::to_string(deadline_s));
  }

  const Request request = ParseRequest(payload);
  if (request.kind == RequestKind::kInvalid) {
    registry.GetCounter("daemon.query.invalid", obs::Stability::kRun).Increment();
    return ErrResponse(request.error);
  }

  const bool expensive =
      request.kind == RequestKind::kAlerts || request.kind == RequestKind::kExposure;
  if (expensive && ingest_.Overloaded()) {
    // Shed policy: under ingest overload the daemon protects its pump
    // thread; ping/health stay available as the ops escape hatch.
    registry.GetCounter("daemon.query.rejected_busy", obs::Stability::kRun).Increment();
    return ErrResponse("busy: ingest backlog of " +
                       std::to_string(ingest_.QueuedRecords()) + " records");
  }

  registry.GetCounter("daemon.query.served", obs::Stability::kRun).Increment();
  switch (request.kind) {
    case RequestKind::kPing:
      return OkResponse("pong");
    case RequestKind::kHealth: {
      std::string body = "sessions=" + std::to_string(sessions_.size());
      body += " queued_records=" + std::to_string(ingest_.QueuedRecords());
      body += " alerts=" + std::to_string(monitor_.alerts().size());
      body += " overloaded=";
      body += ingest_.Overloaded() ? '1' : '0';
      for (const auto& [id, supervisor] : sessions_) {
        const SessionHealth health = supervisor->Health(now_s);
        body += "\nsession=" + std::to_string(id);
        body += " state=";
        body += ToString(health.state);
        body += " flaps=" + std::to_string(health.flaps);
        body += " establishments=" + std::to_string(health.establishments);
        body += " connect_failures=" + std::to_string(health.connect_failures);
        body += " penalty=" + FormatPenalty(health.penalty);
        body += " damped=";
        body += health.damped ? '1' : '0';
        body += " last_established=" + std::to_string(health.last_established_s);
        body += " next_deadline=" + std::to_string(health.next_deadline_s);
      }
      return OkResponse(body);
    }
    case RequestKind::kAlerts: {
      const std::vector<core::Alert> alerts =
          monitor_.AlertsSince(netbase::SimTime{request.alerts_since_s});
      std::string body = "count=" + std::to_string(alerts.size());
      for (const core::Alert& alert : alerts) {
        body += '\n';
        body += FormatAlertLine(alert);
      }
      return OkResponse(body);
    }
    case RequestKind::kExposure: {
      std::string body = "client=AS" + std::to_string(request.client_as);
      for (const netbase::Prefix& prefix : request.prefixes) {
        const std::vector<bgp::AsNumber> on_path = churn_.CurrentOnPathAses(prefix);
        body += "\nprefix=" + prefix.ToString();
        body += " exposed=";
        body += churn_.IsOnPath(request.client_as, prefix) ? '1' : '0';
        body += " on_path=";
        if (on_path.empty()) {
          body += '-';
        } else {
          for (std::size_t i = 0; i < on_path.size(); ++i) {
            if (i > 0) body += ',';
            body += std::to_string(on_path[i]);
          }
        }
      }
      return OkResponse(body);
    }
    case RequestKind::kInvalid:
      break;  // handled above
  }
  return ErrResponse("unreachable");
}

}  // namespace quicksand::daemon
