#pragma once

// quicksandd — the resident monitor daemon (ROADMAP: "Resident monitor
// daemon"). One process owns the live ChurnAnalyzer + RelayMonitor pair,
// ingests collector update streams continuously through supervised
// sessions and bounded queues, answers queries over the length-prefixed
// protocol, and checkpoints itself so a crash resumes instead of
// restarting the measurement window.
//
// The Daemon class is the hub and is deliberately transport-free: session
// supervisors (src/daemon/session.hpp) decide *when* to connect, the
// ingest queue (src/daemon/ingest.hpp) decides *what* to admit, and this
// class decides what the admitted records *mean*. Transports — the replay
// driver in tests/bench, the socket server in examples — push batches in
// via OfferBatch and pump with Pump. All daemon time is an explicit
// `now_s` argument and the daemon reads no clock: the chaos harness and
// the example binary both drive it on simulated time.
//
// Crash-safety contract (docs/DAEMON.md, "Restart semantics"): Tick()
// snapshots at the checkpoint cadence, always from a quiescent point
// (queues drained by Pump first). A daemon restored from its last
// snapshot and re-offered every record after the snapshot's per-session
// offered-record cursors emits the byte-identical subsequent alert
// stream an uninterrupted daemon would.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "core/monitor.hpp"
#include "daemon/ingest.hpp"
#include "daemon/protocol.hpp"
#include "daemon/session.hpp"

namespace quicksand::daemon {

struct DaemonConfig {
  bgp::ChurnParams churn;
  /// The Tor relay prefixes the RelayMonitor protects.
  std::unordered_set<netbase::Prefix> monitored_prefixes;
  SessionConfig session;
  IngestBudget budget;
  /// Seed for the deterministic backoff-jitter substreams.
  std::uint64_t seed = 1;
  /// Snapshot file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Checkpoint cadence in daemon-clock seconds.
  std::int64_t checkpoint_every_s = 300;
  /// Per-request time budget the socket server grants from frame arrival;
  /// a request picked up later than this is rejected with "err deadline".
  /// Not part of the config fingerprint: it shapes query serving, never
  /// replayed analyzer state, so snapshots stay portable across it.
  std::int64_t query_deadline_s = 5;
};

/// Outcome of a restore attempt. `restored == false` with empty `error`
/// means "no snapshot" (fresh start); a non-empty error means a snapshot
/// existed but was rejected (corruption, fingerprint mismatch, codec
/// drift) and the daemon also started fresh.
struct RestoreResult {
  bool restored = false;
  std::string error;
  std::int64_t snapshot_time_s = -1;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);

  /// Learns the pre-attack baseline (initial RIB): monitor origins and
  /// upstreams, churn baselines. Records must index into paths().
  void LearnBaseline(bgp::feed::UpdateStream& rib);

  /// The shared intern table every offered record's path id must index.
  [[nodiscard]] const std::shared_ptr<bgp::feed::AsPathTable>& paths() const noexcept {
    return table_;
  }

  /// The supervisor for `session`, created (Idle) on first use.
  [[nodiscard]] SessionSupervisor& Session(bgp::SessionId session);

  /// Admission-controls one batch from a session's transport.
  OfferResult OfferBatch(bgp::SessionId session, std::vector<bgp::feed::UpdateRec> batch);

  /// Drains every admitted batch (ascending session, FIFO) into the live
  /// analyzers. Returns records consumed. Alerts raised here accumulate
  /// in monitor().alerts().
  std::size_t Pump();

  /// Runs the checkpoint cadence at `now_s`; snapshots when due. Returns
  /// true iff a snapshot was written. Call after Pump so snapshots land
  /// on the drained-queue quiescent point.
  bool Tick(std::int64_t now_s);

  /// Unconditionally snapshots now (queues must be drained). Throws
  /// std::runtime_error on I/O failure; no-op (false) without a
  /// checkpoint path.
  bool WriteSnapshot(std::int64_t now_s);

  /// Attempts to restore from checkpoint_path. Fresh state on any
  /// failure; see RestoreResult.
  RestoreResult TryRestore();

  /// Serves one request payload. `deadline_s >= 0` is the request's
  /// absolute deadline: a request picked up past it is rejected with
  /// "err deadline" instead of served stale (graceful rejection under
  /// overload). Expensive queries are shed with "err busy" while the
  /// ingest plane is overloaded; ping/health always answer.
  [[nodiscard]] std::string HandleRequest(std::string_view payload, std::int64_t now_s,
                                          std::int64_t deadline_s = -1);

  /// Per-session offered-record cursor (admission attempts, accepted or
  /// shed) — the replay position a restarted daemon's transports resume
  /// from.
  [[nodiscard]] std::uint64_t OfferedRecords(bgp::SessionId session) const;

  /// Canonical one-line rendering of an alert; the chaos harness compares
  /// restarted vs uninterrupted daemons on these bytes.
  [[nodiscard]] static std::string FormatAlertLine(const core::Alert& alert);

  /// The full alert log, one FormatAlertLine per line.
  [[nodiscard]] std::string DumpAlerts() const;

  [[nodiscard]] const bgp::ChurnAnalyzer& churn() const noexcept { return churn_; }
  [[nodiscard]] bgp::ChurnAnalyzer& churn() noexcept { return churn_; }
  [[nodiscard]] const core::RelayMonitor& monitor() const noexcept { return monitor_; }
  [[nodiscard]] const IngestQueue& ingest() const noexcept { return ingest_; }
  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t SnapshotsWritten() const noexcept { return snapshots_written_; }

 private:
  /// Config+seed identity; restore refuses snapshots from a different
  /// configuration (they would not replay identically).
  [[nodiscard]] std::uint64_t ConfigFingerprint() const;

  DaemonConfig config_;
  std::shared_ptr<bgp::feed::AsPathTable> table_;
  bgp::ChurnAnalyzer churn_;
  core::RelayMonitor monitor_;
  IngestQueue ingest_;
  std::map<bgp::SessionId, std::unique_ptr<SessionSupervisor>> sessions_;
  std::int64_t last_checkpoint_s_ = -1;
  std::size_t snapshots_written_ = 0;
};

}  // namespace quicksand::daemon
