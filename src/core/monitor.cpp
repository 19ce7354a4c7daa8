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

RelayMonitor::RelayMonitor(std::unordered_set<netbase::Prefix> monitored)
    : monitored_(std::move(monitored)) {
  for (const netbase::Prefix& prefix : monitored_) monitored_trie_.Insert(prefix, 0);
}

RelayMonitor::PrefixState& RelayMonitor::StateOf(const netbase::Prefix& prefix) {
  const std::uint64_t key = (std::uint64_t{prefix.network().value()} << 8) |
                            static_cast<std::uint64_t>(prefix.length());
  bool added = false;
  const std::uint32_t slot =
      slot_of_.FindOrInsert(key, static_cast<std::uint32_t>(prefixes_.size()), added);
  if (added) {
    PrefixState& state = prefixes_.emplace_back();
    state.prefix = prefix;
    // A monitored prefix is never also treated as a more-specific, even
    // when another monitored prefix covers it.
    if (monitored_.contains(prefix)) {
      state.role = Role::kMonitored;
      state.protects = prefix;
    } else if (const auto covering = monitored_trie_.MostSpecificCovering(prefix);
               covering && covering->first.length() < prefix.length()) {
      state.role = Role::kMoreSpecific;
      state.protects = covering->first;
    }
  }
  return prefixes_[slot];
}

void RelayMonitor::LearnRecord(const bgp::feed::UpdateRec& rec,
                               const bgp::feed::AsPathTable& table) {
  if (rec.type != bgp::UpdateType::kAnnounce || rec.path == bgp::feed::kEmptyPath) return;
  PrefixState& state = StateOf(rec.prefix);
  if (state.role != Role::kMonitored) return;
  state.legit_origins.Insert(table.Origin(rec.path));
  if (const bgp::AsNumber upstream = table.OriginUpstream(rec.path); upstream != 0) {
    state.known_upstreams.Insert(upstream);
  }
}

void RelayMonitor::LearnBaselineStream(bgp::feed::UpdateStream& stream) {
  std::vector<bgp::feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    const bgp::feed::AsPathTable& table = *stream.paths();
    for (const bgp::feed::UpdateRec& rec : batch) LearnRecord(rec, table);
  }
}

std::vector<Alert> RelayMonitor::ConsumeRecord(const bgp::feed::UpdateRec& rec,
                                               const bgp::feed::AsPathTable& table) {
  const std::size_t first = alerts_.size();
  const AlertCountSummary counts_before = counts_;
  const std::size_t suppressed_before = suppressed_duplicates_;
  Consume(rec, table);
  Publish(1, counts_before, suppressed_before);
  return {alerts_.begin() + static_cast<std::ptrdiff_t>(first), alerts_.end()};
}

std::size_t RelayMonitor::ConsumeStream(bgp::feed::UpdateStream& stream) {
  const std::size_t first = alerts_.size();
  const AlertCountSummary counts_before = counts_;
  const std::size_t suppressed_before = suppressed_duplicates_;
  std::size_t consumed = 0;
  std::vector<bgp::feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    const bgp::feed::AsPathTable& table = *stream.paths();
    for (const bgp::feed::UpdateRec& rec : batch) Consume(rec, table);
    consumed += batch.size();
  }
  Publish(consumed, counts_before, suppressed_before);
  return alerts_.size() - first;
}

void RelayMonitor::Consume(const bgp::feed::UpdateRec& rec,
                           const bgp::feed::AsPathTable& table) {
  if (rec.type != bgp::UpdateType::kAnnounce || rec.path == bgp::feed::kEmptyPath) return;
  PrefixState& state = StateOf(rec.prefix);
  const bgp::AsNumber origin = table.Origin(rec.path);

  if (state.role == Role::kMonitored) {
    if (!state.legit_origins.Contains(origin)) {
      // Idempotent: one alert per (prefix, bogus origin). Resync bursts
      // and flapping sessions re-announcing the hijacked route must not
      // double-count the anomaly.
      if (state.alerted_origins.Insert(origin)) {
        Raise(Alert{rec.time, rec.session, rec.prefix, rec.prefix, AlertKind::kOriginChange,
                    origin});
      } else {
        ++suppressed_duplicates_;
      }
    } else {
      // Learn it: repeat announcements via the same new upstream only
      // alert once (aggressive but not noisy).
      const bgp::AsNumber upstream = table.OriginUpstream(rec.path);
      if (upstream != 0 && state.known_upstreams.Insert(upstream)) {
        Raise(Alert{rec.time, rec.session, rec.prefix, rec.prefix, AlertKind::kNewUpstream,
                    upstream});
      }
    }
  } else if (state.role == Role::kMoreSpecific) {
    // An announcement strictly inside a monitored prefix. Idempotent per
    // (announced prefix, origin): repeats of the same carve-out alert once.
    if (state.alerted_specifics.Insert(origin)) {
      Raise(Alert{rec.time, rec.session, state.protects, rec.prefix, AlertKind::kMoreSpecific,
                  origin});
    } else {
      ++suppressed_duplicates_;
    }
  }
}

void RelayMonitor::Raise(const Alert& alert) {
  switch (alert.kind) {
    case AlertKind::kOriginChange: ++counts_.origin_change; break;
    case AlertKind::kMoreSpecific: ++counts_.more_specific; break;
    case AlertKind::kNewUpstream: ++counts_.new_upstream; break;
  }
  alerts_.push_back(alert);
}

void RelayMonitor::Publish(std::size_t consumed, const AlertCountSummary& counts_before,
                           std::size_t suppressed_before) const {
  // Registered on the first consumed record, as a monitor that never
  // consumed leaves no counter behind.
  if (consumed == 0) return;
  MonitorMetrics& metrics = MonitorMetrics::Get();
  metrics.consumed.Increment(consumed);
  // Skipping zero deltas keeps a record-at-a-time caller at one atomic add.
  const auto add = [](obs::Counter& counter, std::size_t delta) {
    if (delta > 0) counter.Increment(delta);
  };
  add(metrics.origin_change, counts_.origin_change - counts_before.origin_change);
  add(metrics.more_specific, counts_.more_specific - counts_before.more_specific);
  add(metrics.new_upstream, counts_.new_upstream - counts_before.new_upstream);
  if (suppressed_duplicates_ > suppressed_before) {
    // Registered on the first suppressed repeat.
    static obs::Counter& suppressed = obs::MetricsRegistry::Global().GetCounter(
        "core.monitor.duplicate_alerts_suppressed");
    suppressed.Increment(suppressed_duplicates_ - suppressed_before);
  }
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
