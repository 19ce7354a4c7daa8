#include "daemon/state_codec.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace quicksand::daemon {

namespace {

// int64 fields ride U64 via two's-complement round trip (deadlines may
// legitimately be -1).
void PutI64(ckpt::PayloadWriter& w, std::int64_t value) {
  w.U64(static_cast<std::uint64_t>(value));
}
std::int64_t GetI64(ckpt::PayloadReader& r) {
  return static_cast<std::int64_t>(r.U64());
}

void PutPrefix(ckpt::PayloadWriter& w, const netbase::Prefix& prefix) {
  w.U64(prefix.network().value());
  w.U64(static_cast<std::uint64_t>(prefix.length()));
}
netbase::Prefix GetPrefix(ckpt::PayloadReader& r) {
  const auto network = static_cast<std::uint32_t>(r.U64());
  const auto length = static_cast<int>(r.U64());
  return netbase::Prefix(netbase::Ipv4Address(network), length);
}

template <typename T>
void PutSortedU64Set(ckpt::PayloadWriter& w, const T& set) {
  std::vector<std::uint64_t> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  w.U64(sorted.size());
  for (const std::uint64_t value : sorted) w.U64(value);
}

/// A set written by PutSortedU64Set; members that are not strictly
/// ascending make the payload malformed.
template <typename T>
std::vector<T> GetSortedSet(ckpt::PayloadReader& r) {
  const std::uint64_t count = r.U64();
  std::vector<T> out;
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t value = r.U64();
    if (i > 0 && value <= previous) {
      throw std::runtime_error("StateCodec: set members not strictly ascending");
    }
    out.push_back(static_cast<T>(value));
    previous = value;
  }
  return out;
}

void PutAsVector(ckpt::PayloadWriter& w, const std::vector<bgp::AsNumber>& ases) {
  w.U64(ases.size());
  for (const bgp::AsNumber as : ases) w.U64(as);
}
// No reserve from a count read off the payload: an inflated count must
// fail on the missing fields, not allocate first.
std::vector<bgp::AsNumber> GetAsVector(ckpt::PayloadReader& r) {
  const std::uint64_t count = r.U64();
  std::vector<bgp::AsNumber> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(static_cast<bgp::AsNumber>(r.U64()));
  }
  return out;
}

}  // namespace

/// One of the monitor's per-prefix AS sets as a prefix -> set map:
/// prefixes ascending, members sorted, prefixes whose set is empty absent.
void StateCodec::PutMonitorSets(ckpt::PayloadWriter& w, const core::RelayMonitor& monitor,
                                MonitorSet set) {
  std::vector<const core::RelayMonitor::PrefixState*> keys;
  for (const auto& state : monitor.prefixes_) {
    if ((state.*set).size() > 0) keys.push_back(&state);
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto* a, const auto* b) { return a->prefix < b->prefix; });
  w.U64(keys.size());
  std::vector<std::uint64_t> members;
  for (const auto* state : keys) {
    PutPrefix(w, state->prefix);
    members.clear();
    (state->*set).ForEach([&members](std::uint64_t as) { members.push_back(as); });
    PutSortedU64Set(w, members);
  }
}

void StateCodec::GetMonitorSets(ckpt::PayloadReader& r, core::RelayMonitor& monitor,
                                MonitorSet set) {
  for (auto& state : monitor.prefixes_) state.*set = util::FlatU64Set();
  const std::uint64_t entries = r.U64();
  for (std::uint64_t i = 0; i < entries; ++i) {
    util::FlatU64Set& members = monitor.StateOf(GetPrefix(r)).*set;
    const std::uint64_t count = r.U64();
    for (std::uint64_t j = 0; j < count; ++j) {
      members.Insert(static_cast<bgp::AsNumber>(r.U64()));
    }
  }
}

void StateCodec::EncodeChurn(ckpt::PayloadWriter& w, const bgp::ChurnAnalyzer& analyzer) {
  if (analyzer.finished_) {
    throw std::runtime_error("StateCodec: cannot snapshot a finished ChurnAnalyzer");
  }
  w.U64(analyzer.dropped_out_of_order_);
  std::vector<std::uint64_t> seen;
  seen.reserve(analyzer.seen_path_hashes_.size());
  analyzer.seen_path_hashes_.ForEach([&seen](std::uint64_t hash) { seen.push_back(hash); });
  PutSortedU64Set(w, seen);
  std::size_t states = 0;
  for (const auto& part : analyzer.partitions_) states += part.states.size();
  w.U64(states);
  // Keys ascending: partitions are in session order, slots sorted by prefix.
  for (const auto& part : analyzer.partitions_) {
    for (const std::uint32_t slot : part.SlotsByPrefix()) {
      const auto& state = part.states[slot];
      w.U64(part.session);
      PutPrefix(w, part.prefixes[slot]);
      w.Bool(state.has_baseline);
      PutI64(w, state.last_time_s);
      PutAsVector(w, state.baseline);
      PutAsVector(w, state.last_announced);
      w.Bool(state.withdrawn);
      {
        // Open intervals: AS -> opened-at, ASes ascending.
        std::vector<std::pair<bgp::AsNumber, std::int64_t>> open;
        open.reserve(state.open.size());
        for (const auto& interval : state.open) open.emplace_back(interval.as, interval.since);
        std::sort(open.begin(), open.end());
        w.U64(open.size());
        for (const auto& [as, since] : open) {
          w.U64(as);
          PutI64(w, since);
        }
      }
      PutSortedU64Set(w, state.qualifying);
      PutSortedU64Set(w, state.glimpsed);
      PutSortedU64Set(w, state.distinct_sets);
      w.U64(state.announcements);
      w.U64(state.path_changes);
    }
  }
}

void StateCodec::DecodeChurn(ckpt::PayloadReader& r, bgp::ChurnAnalyzer& analyzer) {
  analyzer.finished_ = false;
  analyzer.results_.clear();
  analyzer.dropped_out_of_order_ = r.U64();
  analyzer.seen_path_hashes_ = util::FlatU64Set();
  for (const std::uint64_t hash : GetSortedSet<std::uint64_t>(r)) {
    analyzer.seen_path_hashes_.Insert(hash);
  }
  analyzer.partitions_.clear();
  const std::uint64_t states = r.U64();
  for (std::uint64_t i = 0; i < states; ++i) {
    const auto session = static_cast<bgp::SessionId>(r.U64());
    const netbase::Prefix prefix = GetPrefix(r);
    auto& part = analyzer.PartitionOf(session);
    const std::size_t known = part.states.size();
    auto& state = part.Slot(prefix);
    if (part.states.size() == known) {
      throw std::runtime_error("StateCodec: duplicate churn key");
    }
    state.has_baseline = r.Bool();
    state.last_time_s = GetI64(r);
    state.baseline = GetAsVector(r);
    state.last_announced = GetAsVector(r);
    state.withdrawn = r.Bool();
    const std::uint64_t open = r.U64();
    for (std::uint64_t j = 0; j < open; ++j) {
      const auto as = static_cast<bgp::AsNumber>(r.U64());
      if (!state.open.empty() && as <= state.open.back().as) {
        throw std::runtime_error("StateCodec: open intervals not strictly ascending");
      }
      state.open.push_back({as, GetI64(r)});
    }
    state.qualifying = GetSortedSet<bgp::AsNumber>(r);
    state.glimpsed = GetSortedSet<bgp::AsNumber>(r);
    state.distinct_sets = GetSortedSet<std::uint64_t>(r);
    state.announcements = r.U64();
    state.path_changes = r.U64();
  }
}

void StateCodec::EncodeMonitor(ckpt::PayloadWriter& w, const core::RelayMonitor& monitor) {
  using State = core::RelayMonitor::PrefixState;
  for (const MonitorSet set : {&State::legit_origins, &State::known_upstreams,
                               &State::alerted_origins, &State::alerted_specifics}) {
    PutMonitorSets(w, monitor, set);
  }
  w.U64(monitor.suppressed_duplicates_);
  w.U64(monitor.counts_.origin_change);
  w.U64(monitor.counts_.more_specific);
  w.U64(monitor.counts_.new_upstream);
  w.U64(monitor.alerts_.size());
  for (const core::Alert& alert : monitor.alerts_) {
    PutI64(w, alert.time.seconds);
    w.U64(alert.session);
    PutPrefix(w, alert.monitored_prefix);
    PutPrefix(w, alert.announced_prefix);
    w.U64(static_cast<std::uint64_t>(alert.kind));
    w.U64(alert.suspect);
  }
}

void StateCodec::DecodeMonitor(ckpt::PayloadReader& r, core::RelayMonitor& monitor) {
  using State = core::RelayMonitor::PrefixState;
  for (const MonitorSet set : {&State::legit_origins, &State::known_upstreams,
                               &State::alerted_origins, &State::alerted_specifics}) {
    GetMonitorSets(r, monitor, set);
  }
  monitor.suppressed_duplicates_ = r.U64();
  monitor.counts_.origin_change = r.U64();
  monitor.counts_.more_specific = r.U64();
  monitor.counts_.new_upstream = r.U64();
  monitor.alerts_.clear();
  const std::uint64_t alerts = r.U64();
  for (std::uint64_t i = 0; i < alerts; ++i) {
    core::Alert alert;
    alert.time = netbase::SimTime{GetI64(r)};
    alert.session = static_cast<bgp::SessionId>(r.U64());
    alert.monitored_prefix = GetPrefix(r);
    alert.announced_prefix = GetPrefix(r);
    const std::uint64_t kind = r.U64();
    if (kind > static_cast<std::uint64_t>(core::AlertKind::kNewUpstream)) {
      throw std::runtime_error("StateCodec: bad alert kind");
    }
    alert.kind = static_cast<core::AlertKind>(kind);
    alert.suspect = static_cast<bgp::AsNumber>(r.U64());
    monitor.alerts_.push_back(alert);
  }
}

void StateCodec::EncodeSession(ckpt::PayloadWriter& w, const SessionSupervisor& session) {
  w.U64(session.session_);
  w.U64(static_cast<std::uint64_t>(session.state_));
  w.Bool(session.connect_requested_);
  PutI64(w, session.connect_deadline_s);
  PutI64(w, session.hold_deadline_s_);
  PutI64(w, session.next_keepalive_s_);
  PutI64(w, session.retry_at_s_);
  w.U64(session.consecutive_failures_);
  w.U64(session.flaps_);
  w.U64(session.establishments_);
  w.U64(session.connect_failures_);
  PutI64(w, session.last_established_s_);
  // Penalty is stored (value, timestamp), never pre-decayed: decay is a
  // pure function of the clock, so restore + decay == never-restarted.
  w.Dbl(session.penalty_);
  PutI64(w, session.penalty_time_s_);
  w.Bool(session.suppressed_);
}

void StateCodec::DecodeSession(ckpt::PayloadReader& r, SessionSupervisor& session) {
  const auto id = static_cast<bgp::SessionId>(r.U64());
  if (id != session.session_) {
    throw std::runtime_error("StateCodec: session id mismatch");
  }
  const std::uint64_t state = r.U64();
  if (state > static_cast<std::uint64_t>(SessionState::kBackoff)) {
    throw std::runtime_error("StateCodec: bad session state");
  }
  session.state_ = static_cast<SessionState>(state);
  session.connect_requested_ = r.Bool();
  session.connect_deadline_s = GetI64(r);
  session.hold_deadline_s_ = GetI64(r);
  session.next_keepalive_s_ = GetI64(r);
  session.retry_at_s_ = GetI64(r);
  session.consecutive_failures_ = r.U64();
  session.flaps_ = r.U64();
  session.establishments_ = r.U64();
  session.connect_failures_ = r.U64();
  session.last_established_s_ = GetI64(r);
  session.penalty_ = r.Dbl();
  session.penalty_time_s_ = GetI64(r);
  session.suppressed_ = r.Bool();
}

void StateCodec::EncodeIngest(ckpt::PayloadWriter& w, const IngestQueue& queue) {
  if (queue.QueuedRecords() != 0) {
    throw std::runtime_error(
        "StateCodec: snapshot requires drained ingest queues (quiescent point)");
  }
  w.U64(queue.tallies_.size());
  for (const auto& [session, tally] : queue.tallies_) {
    w.U64(session);
    w.U64(tally.offered_records);
    w.U64(tally.accepted_records);
    w.U64(tally.shed_records);
    w.U64(tally.shed_batches);
    w.U64(tally.stalls);
    w.U64(tally.resumptions);
  }
}

void StateCodec::DecodeIngest(ckpt::PayloadReader& r, IngestQueue& queue) {
  queue.queues_.clear();
  queue.queued_records_ = 0;
  queue.tallies_.clear();
  const std::uint64_t sessions = r.U64();
  for (std::uint64_t i = 0; i < sessions; ++i) {
    const auto session = static_cast<bgp::SessionId>(r.U64());
    IngestSessionTally& tally = queue.tallies_[session];
    tally.offered_records = r.U64();
    tally.accepted_records = r.U64();
    tally.shed_records = r.U64();
    tally.shed_batches = r.U64();
    tally.stalls = r.U64();
    tally.resumptions = r.U64();
    // Re-create the (empty) queue so Overloaded()'s aggregate budget sees
    // the same session population as before the restart.
    queue.queues_[session];
  }
}

}  // namespace quicksand::daemon
