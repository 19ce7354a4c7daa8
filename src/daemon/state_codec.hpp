#pragma once

// Exact serialization of quicksandd's live state for warm restart.
//
// The daemon's crash-safety contract is byte-level: a daemon restored
// from its last snapshot must emit the *identical* subsequent alert
// stream an uninterrupted daemon would (docs/DAEMON.md, "Restart
// semantics"). That only works if every piece of decision-relevant state
// round-trips exactly:
//
//   * ChurnAnalyzer — per-(session, prefix) baselines, open dwell
//     intervals, distinct-set hashes, drop counts;
//   * RelayMonitor — learned origins/upstreams, the idempotence sets that
//     make alerting exactly-once, the alert log itself, counts;
//   * SessionSupervisor — FSM position, deadlines, failure counts,
//     damping penalty (value + timestamp: decay is recomputed, never
//     stored decayed);
//   * IngestQueue — per-session offer/accept/shed tallies. Queued batches
//     are NOT serialized: the daemon drains queues before snapshotting,
//     so a snapshot always captures an empty-queue quiescent point and
//     replay re-offers from the recorded offered_records cursor.
//
// Encoding rides the ckpt payload layer (exact round-trip fields,
// checksummed snapshots, atomic replace). Unordered containers are
// serialized in sorted order so equal states encode to equal bytes.
// Decode errors throw std::runtime_error (the ckpt convention); the
// daemon treats a failed decode as "no snapshot" and starts fresh.
//
// StateCodec is a friend of the analyzer/monitor/supervisor classes:
// restart fidelity needs their internals, but nothing else does, so the
// public APIs stay narrow.

#include "bgp/churn.hpp"
#include "ckpt/payload.hpp"
#include "core/monitor.hpp"
#include "daemon/ingest.hpp"
#include "daemon/session.hpp"

namespace quicksand::daemon {

struct StateCodec {
  static void EncodeChurn(ckpt::PayloadWriter& w, const bgp::ChurnAnalyzer& analyzer);
  static void DecodeChurn(ckpt::PayloadReader& r, bgp::ChurnAnalyzer& analyzer);

  static void EncodeMonitor(ckpt::PayloadWriter& w, const core::RelayMonitor& monitor);
  static void DecodeMonitor(ckpt::PayloadReader& r, core::RelayMonitor& monitor);

  static void EncodeSession(ckpt::PayloadWriter& w, const SessionSupervisor& session);
  static void DecodeSession(ckpt::PayloadReader& r, SessionSupervisor& session);

  static void EncodeIngest(ckpt::PayloadWriter& w, const IngestQueue& queue);
  static void DecodeIngest(ckpt::PayloadReader& r, IngestQueue& queue);

 private:
  /// One of the four AS sets the monitor keeps per prefix.
  using MonitorSet = util::FlatU64Set core::RelayMonitor::PrefixState::*;
  static void PutMonitorSets(ckpt::PayloadWriter& w, const core::RelayMonitor& monitor,
                             MonitorSet set);
  static void GetMonitorSets(ckpt::PayloadReader& r, core::RelayMonitor& monitor,
                             MonitorSet set);
};

}  // namespace quicksand::daemon
