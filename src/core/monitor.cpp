#include "core/monitor.hpp"

#include "obs/metrics.hpp"

namespace quicksand::core {

namespace {

struct MonitorMetrics {
  obs::Counter& consumed =
      obs::MetricsRegistry::Global().GetCounter("core.monitor.updates_consumed");
  obs::Counter& origin_change =
      obs::MetricsRegistry::Global().GetCounter("core.monitor.alerts.origin_change");
  obs::Counter& more_specific =
      obs::MetricsRegistry::Global().GetCounter("core.monitor.alerts.more_specific");
  obs::Counter& new_upstream =
      obs::MetricsRegistry::Global().GetCounter("core.monitor.alerts.new_upstream");

  static MonitorMetrics& Get() {
    static MonitorMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string_view ToString(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kOriginChange: return "origin-change";
    case AlertKind::kMoreSpecific: return "more-specific";
    case AlertKind::kNewUpstream: return "new-upstream";
  }
  return "?";
}

std::size_t AlertCountSummary::Of(AlertKind kind) const noexcept {
  switch (kind) {
    case AlertKind::kOriginChange: return origin_change;
    case AlertKind::kMoreSpecific: return more_specific;
    case AlertKind::kNewUpstream: return new_upstream;
  }
  return 0;
}

AlertCountSummary& AlertCountSummary::operator+=(const AlertCountSummary& other) noexcept {
  origin_change += other.origin_change;
  more_specific += other.more_specific;
  new_upstream += other.new_upstream;
  return *this;
}

RelayMonitor::RelayMonitor(std::unordered_set<netbase::Prefix> monitored,
                           MonitorParams params)
    : params_(params), monitored_(std::move(monitored)) {
  for (const netbase::Prefix& prefix : monitored_) monitored_trie_.Insert(prefix, 0);
}

void RelayMonitor::LearnRecord(const bgp::feed::UpdateRec& rec,
                               const bgp::feed::AsPathTable& table) {
  const bgp::AsPath& path = table.Path(rec.path);
  if (rec.type != bgp::UpdateType::kAnnounce || path.empty()) return;
  if (!monitored_.contains(rec.prefix)) return;
  const auto& hops = path.hops();
  legit_origins_[rec.prefix].insert(hops.back());
  // The upstream is the AS adjacent to the origin (skipping prepends).
  for (std::size_t i = hops.size(); i-- > 0;) {
    if (hops[i] != hops.back()) {
      known_upstreams_[rec.prefix].insert(hops[i]);
      break;
    }
  }
}

void RelayMonitor::LearnBaselineStream(bgp::feed::UpdateStream& stream) {
  std::vector<bgp::feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const bgp::feed::UpdateRec& rec : batch) LearnRecord(rec, *stream.paths());
  }
}

std::size_t RelayMonitor::ConsumeStream(bgp::feed::UpdateStream& stream) {
  std::size_t raised = 0;
  std::vector<bgp::feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const bgp::feed::UpdateRec& rec : batch) {
      raised += ConsumeRecord(rec, *stream.paths()).size();
    }
  }
  return raised;
}

std::vector<Alert> RelayMonitor::ConsumeRecord(const bgp::feed::UpdateRec& rec,
                                               const bgp::feed::AsPathTable& table) {
  MonitorMetrics& metrics = MonitorMetrics::Get();
  metrics.consumed.Increment();
  std::vector<Alert> raised;
  const bgp::AsPath& path = table.Path(rec.path);
  if (rec.type != bgp::UpdateType::kAnnounce || path.empty()) return raised;
  const netbase::SimTime time = rec.time;
  const bgp::SessionId session = rec.session;
  const netbase::Prefix& prefix = rec.prefix;
  const bgp::AsNumber origin = path.origin();

  if (monitored_.contains(prefix)) {
    const auto origins_it = legit_origins_.find(prefix);
    const bool origin_known =
        origins_it != legit_origins_.end() && origins_it->second.contains(origin);
    if (params_.alert_on_origin_change && !origin_known) {
      // Idempotent: one alert per (prefix, bogus origin). Resync bursts
      // and flapping sessions re-announcing the hijacked route must not
      // double-count the anomaly.
      if (alerted_origins_[prefix].insert(origin).second) {
        raised.push_back(Alert{time, session, prefix, prefix,
                               AlertKind::kOriginChange, origin});
      } else {
        ++suppressed_duplicates_;
        obs::MetricsRegistry::Global()
            .GetCounter("core.monitor.duplicate_alerts_suppressed")
            .Increment();
      }
    }
    if (params_.alert_on_new_upstream && origin_known) {
      const auto& hops = path.hops();
      bgp::AsNumber upstream = 0;
      for (std::size_t i = hops.size(); i-- > 0;) {
        if (hops[i] != hops.back()) {
          upstream = hops[i];
          break;
        }
      }
      if (upstream != 0) {
        auto& known = known_upstreams_[prefix];
        if (!known.contains(upstream)) {
          raised.push_back(Alert{time, session, prefix, prefix,
                                 AlertKind::kNewUpstream, upstream});
          // Learn it: repeat announcements via the same new upstream only
          // alert once (aggressive but not noisy).
          known.insert(upstream);
        }
      }
    }
  } else if (params_.alert_on_more_specific) {
    // An announcement strictly inside a monitored prefix. Idempotent per
    // (announced prefix, origin): repeats of the same carve-out alert once.
    const auto covering = monitored_trie_.MostSpecificCovering(prefix);
    if (covering && covering->first.length() < prefix.length()) {
      if (alerted_specifics_[prefix].insert(origin).second) {
        raised.push_back(Alert{time, session, covering->first, prefix,
                               AlertKind::kMoreSpecific, origin});
      } else {
        ++suppressed_duplicates_;
        obs::MetricsRegistry::Global()
            .GetCounter("core.monitor.duplicate_alerts_suppressed")
            .Increment();
      }
    }
  }

  for (const Alert& alert : raised) {
    switch (alert.kind) {
      case AlertKind::kOriginChange:
        ++counts_.origin_change;
        metrics.origin_change.Increment();
        break;
      case AlertKind::kMoreSpecific:
        ++counts_.more_specific;
        metrics.more_specific.Increment();
        break;
      case AlertKind::kNewUpstream:
        ++counts_.new_upstream;
        metrics.new_upstream.Increment();
        break;
    }
  }
  alerts_.insert(alerts_.end(), raised.begin(), raised.end());
  return raised;
}

std::vector<Alert> RelayMonitor::AlertsSince(netbase::SimTime since) const {
  std::vector<Alert> out;
  for (const Alert& alert : alerts_) {
    if (alert.time >= since) out.push_back(alert);
  }
  return out;
}

std::set<netbase::Prefix> RelayMonitor::FlaggedPrefixes() const {
  std::set<netbase::Prefix> out;
  for (const Alert& alert : alerts_) out.insert(alert.monitored_prefix);
  return out;
}

}  // namespace quicksand::core
