#pragma once

// Relay advisory service — the monitoring framework the paper proposes
// ("each relay could publish the list of any ASes it used to reach each
// destination prefix in the last month. This information can be
// distributed to all Tor clients as part of the Tor network consensus...
// If the monitoring system has a suspicion that a relay might be under
// attack, this information can be broadcasted through the Tor network, so
// clients can avoid selecting this relay.")
//
// The advisor fuses two signals per Tor prefix:
//   * active alerts from the control-plane RelayMonitor (hijack suspicion),
//   * measured path churn (extra on-path ASes over the window),
// and turns them into per-relay advice: a verdict plus a guard-selection
// weight multiplier that plugs straight into PathSelector::PickGuardSet.

#include <cstdint>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bgp/churn.hpp"
#include "core/monitor.hpp"
#include "tor/consensus.hpp"
#include "tor/prefix_map.hpp"

namespace quicksand::core {

enum class RelayVerdict : std::uint8_t {
  kOk,          ///< nothing notable
  kElevated,    ///< churny prefix, new-upstream alert or unmapped relay: downweight
  kAvoid,       ///< active attack suspicion: exclude from selection
};

[[nodiscard]] std::string_view ToString(RelayVerdict verdict) noexcept;

/// One relay's advice.
struct RelayAdvice {
  RelayVerdict verdict = RelayVerdict::kOk;
  double weight_multiplier = 1.0;
  /// Short human-readable reason, e.g. "hijack alert on 78.46.0.0/15".
  std::string reason;
};

/// Builds per-relay advice from measurement and monitoring outputs. A
/// prefix with three or more extra on-path ASes elevates its relays, and
/// kElevated relays get a fixed weight multiplier (advisor.cpp).
class RelayAdvisor {
 public:
  /// Ingests measured churn (after ChurnAnalyzer::Finish()).
  void IngestChurn(const bgp::ChurnAnalyzer& churn);

  /// Ingests control-plane alerts. Strong signatures (origin change,
  /// more-specific) mean "avoid"; weak ones (new upstream — expected
  /// during benign churn) only elevate.
  void IngestAlerts(const std::vector<Alert>& alerts);

  /// Computes advice for every relay in the consensus, resolved through
  /// `prefix_map`. Unmapped relays get kElevated (fail-half-closed: no
  /// measurements means no assurance).
  [[nodiscard]] std::vector<RelayAdvice> Advise(const tor::Consensus& consensus,
                                                const tor::TorPrefixMap& prefix_map) const;

  /// Convenience: per-relay weight multipliers aligned with the consensus
  /// relay list, for PathSelector::PickGuardSet.
  [[nodiscard]] std::vector<double> GuardWeightMultipliers(
      const tor::Consensus& consensus, const tor::TorPrefixMap& prefix_map) const;

 private:
  std::map<netbase::Prefix, std::size_t> extra_ases_;
  std::map<netbase::Prefix, std::size_t> strong_alerts_;
  std::map<netbase::Prefix, std::size_t> weak_alerts_;
};

}  // namespace quicksand::core
