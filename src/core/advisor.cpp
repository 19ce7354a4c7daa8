#include "core/advisor.hpp"

#include <algorithm>

namespace quicksand::core {

namespace {

/// Extra-AS count (per prefix, best vantage) at which advice escalates
/// from kOk to kElevated.
constexpr std::size_t kChurnElevationThreshold = 3;
/// Weight multiplier applied per escalation step (kElevated relays get
/// this factor; kAvoid relays get zero).
constexpr double kElevatedWeight = 0.35;

}  // namespace

std::string_view ToString(RelayVerdict verdict) noexcept {
  switch (verdict) {
    case RelayVerdict::kOk: return "ok";
    case RelayVerdict::kElevated: return "elevated";
    case RelayVerdict::kAvoid: return "avoid";
  }
  return "?";
}

void RelayAdvisor::IngestChurn(const bgp::ChurnAnalyzer& churn) {
  // Best-vantage extra-AS count per prefix (the strongest observer).
  for (const auto& [key, entry] : churn.entries()) {
    auto& current = extra_ases_[key.prefix];
    current = std::max(current, entry.qualifying_extra_ases.size());
  }
}

void RelayAdvisor::IngestAlerts(const std::vector<Alert>& alerts) {
  for (const Alert& alert : alerts) {
    if (alert.kind == AlertKind::kNewUpstream) {
      ++weak_alerts_[alert.monitored_prefix];
    } else {
      ++strong_alerts_[alert.monitored_prefix];
    }
  }
}

std::vector<RelayAdvice> RelayAdvisor::Advise(const tor::Consensus& consensus,
                                              const tor::TorPrefixMap& prefix_map) const {
  std::vector<RelayAdvice> out(consensus.size());
  for (std::size_t i = 0; i < consensus.size(); ++i) {
    RelayAdvice& advice = out[i];
    const auto prefix = prefix_map.PrefixOfRelay(i);
    if (!prefix) {
      advice.verdict = RelayVerdict::kElevated;
      advice.weight_multiplier = kElevatedWeight;
      advice.reason = "relay not covered by any announced prefix";
      continue;
    }
    if (const auto it = strong_alerts_.find(*prefix);
        it != strong_alerts_.end() && it->second > 0) {
      advice.verdict = RelayVerdict::kAvoid;
      advice.weight_multiplier = 0;
      advice.reason = "routing-attack alert on " + prefix->ToString();
      continue;
    }
    bool elevated = false;
    if (const auto it = weak_alerts_.find(*prefix);
        it != weak_alerts_.end() && it->second > 0) {
      elevated = true;
      advice.reason = "path anomaly (new upstream) on " + prefix->ToString();
    }
    if (const auto it = extra_ases_.find(*prefix);
        it != extra_ases_.end() && it->second >= kChurnElevationThreshold) {
      elevated = true;
      if (!advice.reason.empty()) advice.reason += "; ";
      advice.reason += std::to_string(it->second) + " extra on-path ASes on " +
                       prefix->ToString();
    }
    if (elevated) {
      advice.verdict = RelayVerdict::kElevated;
      advice.weight_multiplier = kElevatedWeight;
    } else {
      advice.reason = "no findings";
    }
  }
  return out;
}

std::vector<double> RelayAdvisor::GuardWeightMultipliers(
    const tor::Consensus& consensus, const tor::TorPrefixMap& prefix_map) const {
  const auto advice = Advise(consensus, prefix_map);
  std::vector<double> weights;
  weights.reserve(advice.size());
  for (const RelayAdvice& a : advice) weights.push_back(a.weight_multiplier);
  return weights;
}

}  // namespace quicksand::core
