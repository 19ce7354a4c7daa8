#pragma once

// Real-time control-plane monitoring of Tor relay prefixes (Section 5).
//
// The monitor watches collector update streams for the prefixes hosting
// Tor relays and raises alerts on the classical hijack signatures:
//   * origin change — a monitored prefix announced with an unexpected
//     origin AS (same-prefix hijack / MOAS conflict);
//   * more-specific — an announcement strictly inside a monitored prefix
//     ("particularly effective at detecting ... more-specific" attacks);
//   * new upstream — the origin's first-hop neighbour changes to an AS
//     never seen adjacent to the origin (stealthy path manipulation).
//
// The paper argues that for anonymity "false positives are much more
// acceptable than false negatives", so the default policy is aggressive:
// every signature fires an alert and clients are advised to avoid the
// relay until the anomaly clears.

#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "bgp/feed.hpp"
#include "netbase/prefix.hpp"
#include "netbase/prefix_trie.hpp"
#include "util/flat_index.hpp"

namespace quicksand::daemon {
struct StateCodec;
}  // namespace quicksand::daemon

namespace quicksand::core {

enum class AlertKind : std::uint8_t {
  kOriginChange,
  kMoreSpecific,
  kNewUpstream,
};

[[nodiscard]] std::string_view ToString(AlertKind kind) noexcept;

struct Alert {
  netbase::SimTime time;
  bgp::SessionId session = 0;
  netbase::Prefix monitored_prefix;   ///< the Tor prefix the alert protects
  netbase::Prefix announced_prefix;   ///< what was announced
  AlertKind kind = AlertKind::kOriginChange;
  bgp::AsNumber suspect = 0;          ///< the AS that triggered the alert

  friend bool operator==(const Alert&, const Alert&) = default;
};

/// Per-kind alert totals for one monitor instance. Mirrored into the
/// global metrics registry as `core.monitor.alerts.<kind>` counters.
struct AlertCountSummary {
  std::size_t origin_change = 0;
  std::size_t more_specific = 0;
  std::size_t new_upstream = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return origin_change + more_specific + new_upstream;
  }
  [[nodiscard]] std::size_t Of(AlertKind kind) const noexcept;
  AlertCountSummary& operator+=(const AlertCountSummary& other) noexcept;
};

/// Streaming hijack/interception detector over Tor prefixes.
///
/// Degradation contract (fault-tolerant feeds, docs/ROBUSTNESS.md):
///   * Out-of-order timestamps are harmless: alert decisions depend only
///     on the learned origin/upstream sets and the update's content,
///     never on arrival order or timestamp monotonicity. A reordered
///     stream yields the same alert *set*; only the per-alert `time`
///     fields and arrival order in alerts() reflect the input order.
///   * Alerting is idempotent per anomaly: a duplicate announcement (the
///     signature a lossy session re-announces on resync) re-raises
///     nothing, so AlertCountSummary never double-counts one anomaly.
///     Each (prefix, suspect, kind) alerts exactly once; suppressed
///     repeats are tallied in `core.monitor.duplicate_alerts_suppressed`.
///
/// Each distinct announced prefix is classified once, on first sight
/// (monitored, more-specific of a monitored prefix, or neither), and keeps
/// its learned and alerted AS sets beside its class; a path's origin and
/// upstream come from the AsPathTable. The `core.monitor.*` counters are
/// published once per ConsumeRecord or ConsumeStream call.
class RelayMonitor {
 public:
  /// Monitors the given prefixes. Legitimate origins and upstreams are
  /// learned from the initial RIB (pre-attack ground truth).
  explicit RelayMonitor(std::unordered_set<netbase::Prefix> monitored);

  /// Learns legitimate origins/upstreams from one compact baseline record
  /// whose path id indexes `table`; no alerts are raised.
  void LearnRecord(const bgp::feed::UpdateRec& rec, const bgp::feed::AsPathTable& table);

  /// Drains `stream` (the initial RIB), feeding every record through
  /// LearnRecord.
  void LearnBaselineStream(bgp::feed::UpdateStream& stream);

  /// Processes one compact record whose path id indexes `table`; returns
  /// any alerts it triggered.
  [[nodiscard]] std::vector<Alert> ConsumeRecord(const bgp::feed::UpdateRec& rec,
                                                 const bgp::feed::AsPathTable& table);

  /// Drains `stream`, processing every record as ConsumeRecord does. Alerts
  /// accumulate in alerts(); returns how many this drain raised.
  std::size_t ConsumeStream(bgp::feed::UpdateStream& stream);

  /// Alerts suppressed because the same (prefix, suspect, kind) anomaly
  /// had already alerted.
  [[nodiscard]] std::size_t SuppressedDuplicates() const noexcept {
    return suppressed_duplicates_;
  }

  /// All alerts raised so far, in arrival order.
  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept { return alerts_; }

  /// Alerts with time >= `since`, in arrival order — the resident
  /// daemon's "alerts in the last simulated hour" query. Linear scan;
  /// alert volume is anomaly volume, which stays small by construction.
  [[nodiscard]] std::vector<Alert> AlertsSince(netbase::SimTime since) const;

  /// "How many alerts per kind" without scanning alerts(); O(1).
  [[nodiscard]] const AlertCountSummary& AlertCounts() const noexcept {
    return counts_;
  }

  /// Prefixes currently advised against (any unresolved alert).
  [[nodiscard]] std::set<netbase::Prefix> FlaggedPrefixes() const;

  /// Number of monitored prefixes.
  [[nodiscard]] std::size_t MonitoredCount() const noexcept { return monitored_.size(); }

 private:
  /// The daemon's warm-restart codec serializes learned baselines and
  /// idempotence sets (src/daemon/state_codec.cpp).
  friend struct quicksand::daemon::StateCodec;

  enum class Role : std::uint8_t { kUnrelated, kMonitored, kMoreSpecific };

  /// One announced prefix: its class and its AS sets.
  struct PrefixState {
    netbase::Prefix prefix;
    Role role = Role::kUnrelated;
    /// The monitored prefix an announcement of `prefix` threatens: itself
    /// when monitored, its most specific monitored cover when a
    /// more-specific.
    netbase::Prefix protects;
    /// Monitored: origins and origin-adjacent upstreams seen in the
    /// baseline (upstreams also learned as they alert).
    util::FlatU64Set legit_origins;
    util::FlatU64Set known_upstreams;
    /// The idempotence sets: origins that already raised an origin-change
    /// alert (monitored) or a more-specific alert (more-specific).
    util::FlatU64Set alerted_origins;
    util::FlatU64Set alerted_specifics;
  };

  /// The state of `prefix`, classified and added on first sight. The
  /// reference is invalidated by the next call.
  PrefixState& StateOf(const netbase::Prefix& prefix);
  /// Processes one record: appends its alerts and counts suppressed repeats.
  void Consume(const bgp::feed::UpdateRec& rec, const bgp::feed::AsPathTable& table);
  void Raise(const Alert& alert);
  /// Adds `consumed` and the alerts and suppressed repeats since
  /// (`counts_before`, `suppressed_before`) to the core.monitor.* counters.
  void Publish(std::size_t consumed, const AlertCountSummary& counts_before,
               std::size_t suppressed_before) const;

  std::unordered_set<netbase::Prefix> monitored_;
  netbase::PrefixTrie<int> monitored_trie_;  // value unused; structure only
  std::vector<PrefixState> prefixes_;        // in first-sight order
  util::FlatIndex slot_of_;                  // packed prefix -> index into prefixes_
  std::size_t suppressed_duplicates_ = 0;
  std::vector<Alert> alerts_;
  AlertCountSummary counts_;
};

}  // namespace quicksand::core
