#include "daemon/ingest.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace quicksand::daemon {

namespace {

struct IngestMetrics {
  obs::Counter& accepted_batches = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.accepted_batches", obs::Stability::kRun);
  obs::Counter& accepted_records = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.accepted_records", obs::Stability::kRun);
  obs::Counter& shed_batches = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.shed_batches", obs::Stability::kRun);
  obs::Counter& shed_records = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.shed_records", obs::Stability::kRun);
  obs::Counter& stalls = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.stalls", obs::Stability::kRun);
  obs::Counter& resumptions = obs::MetricsRegistry::Global().GetCounter(
      "daemon.ingest.resumptions", obs::Stability::kRun);
  obs::Gauge& queued = obs::MetricsRegistry::Global().GetGauge(
      "daemon.ingest.queued_records", obs::Stability::kRun);
  obs::Gauge& peak = obs::MetricsRegistry::Global().GetGauge(
      "daemon.ingest.peak_queued_records", obs::Stability::kRun);

  static IngestMetrics& Get() {
    static IngestMetrics metrics;
    return metrics;
  }
};

}  // namespace

OfferResult IngestQueue::Offer(bgp::SessionId session,
                               std::vector<bgp::feed::UpdateRec> batch) {
  IngestMetrics& metrics = IngestMetrics::Get();
  SessionQueue& queue = queues_[session];
  IngestSessionTally& tally = tallies_[session];
  tally.offered_records += batch.size();

  const std::size_t incoming = batch.size();
  const std::size_t record_cap = budget_.max_records_per_session;
  const std::size_t byte_cap = budget_.max_bytes_per_session;
  const std::size_t incoming_bytes = incoming * sizeof(bgp::feed::UpdateRec);
  const std::size_t queued_bytes = queue.records * sizeof(bgp::feed::UpdateRec);

  OfferResult result = OfferResult::kAccepted;
  if (record_cap != 0 && queue.records + incoming > record_cap) {
    result = OfferResult::kShedOverRecordBudget;
  } else if (byte_cap != 0 && queued_bytes + incoming_bytes > byte_cap) {
    result = OfferResult::kShedOverByteBudget;
  }

  if (result != OfferResult::kAccepted) {
    // Drop-newest, whole batch (see header). The stall flag converts the
    // next successful offer into a resumption event.
    ++tally.shed_batches;
    tally.shed_records += incoming;
    metrics.shed_batches.Increment();
    metrics.shed_records.Increment(incoming);
    if (!queue.stalled) {
      queue.stalled = true;
      ++tally.stalls;
      metrics.stalls.Increment();
    }
    return result;
  }

  if (queue.stalled) {
    queue.stalled = false;
    ++tally.resumptions;
    metrics.resumptions.Increment();
  }
  tally.accepted_records += incoming;
  queue.records += incoming;
  queued_records_ += incoming;
  queue.batches.push_back(std::move(batch));
  metrics.accepted_batches.Increment();
  metrics.accepted_records.Increment(incoming);
  metrics.queued.Set(static_cast<std::int64_t>(queued_records_));
  if (static_cast<std::int64_t>(queued_records_) > metrics.peak.value()) {
    metrics.peak.Set(static_cast<std::int64_t>(queued_records_));
  }
  return result;
}

std::size_t IngestQueue::DrainInto(
    std::vector<std::pair<bgp::SessionId, std::vector<bgp::feed::UpdateRec>>>& out) {
  std::size_t drained = 0;
  for (auto& [session, queue] : queues_) {
    while (!queue.batches.empty()) {
      std::vector<bgp::feed::UpdateRec> batch = std::move(queue.batches.front());
      queue.batches.pop_front();
      drained += batch.size();
      out.emplace_back(session, std::move(batch));
    }
    queue.records = 0;
  }
  queued_records_ = 0;
  IngestMetrics::Get().queued.Set(0);
  return drained;
}

std::size_t IngestQueue::QueuedRecords(bgp::SessionId session) const {
  const auto it = queues_.find(session);
  return it == queues_.end() ? 0 : it->second.records;
}

bool IngestQueue::Overloaded() const noexcept {
  const std::size_t record_cap = budget_.max_records_per_session;
  if (record_cap == 0 || queues_.empty()) return false;
  const double aggregate_cap =
      static_cast<double>(record_cap) * static_cast<double>(queues_.size());
  return static_cast<double>(queued_records_) >=
         budget_.overload_fraction * aggregate_cap;
}

}  // namespace quicksand::daemon
