#include "fault/injector.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bgp/mrt.hpp"
#include "obs/metrics.hpp"

namespace quicksand::fault {

namespace {

/// Increments `name` only when n > 0: zero-rate runs register no fault.*
/// metrics, keeping their bench JSON identical to injector-free runs.
void Count(std::string_view name, std::size_t n) {
  if (n > 0) obs::MetricsRegistry::Global().GetCounter(name).Increment(n);
}

std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The leading "<seconds>|" of an MRT line, if well-formed.
std::optional<std::int64_t> LineTime(std::string_view line) {
  const auto bar = line.find('|');
  if (bar == std::string_view::npos) return std::nullopt;
  std::int64_t seconds = 0;
  auto [ptr, ec] = std::from_chars(line.data(), line.data() + bar, seconds);
  if (ec != std::errc{} || ptr != line.data() + bar) return std::nullopt;
  return seconds;
}

constexpr std::string_view kGarbleAlphabet = "#?!~*%@^";

/// Reorder jitter window: a marked line swaps only with a successor at
/// most this many seconds away.
constexpr std::int64_t kReorderJitterS = 120;
/// Mean number of down intervals for a flapping session (>= 1 drawn).
constexpr double kFlapsPerWindow = 2.0;
/// Mean outage length in seconds (exponential, clamped to sane bounds).
constexpr double kMeanDownS = 4.0 * 3600.0;

}  // namespace

netbase::Rng FaultInjector::Substream(std::string_view purpose, std::uint64_t index) const {
  std::uint64_t h = Fnv1a(purpose);
  h ^= index + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return netbase::Rng(plan_.seed ^ h);
}

FaultedText FaultInjector::CorruptText(std::string_view text) const {
  const MrtFaultRates& rates = plan_.mrt;
  FaultedText result;

  // Split into views of `text`, remembering whether the dump ended with a
  // newline so an untouched dump reassembles byte-exactly.
  std::vector<std::string_view> lines;
  bool trailing_newline = false;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
    if (start == text.size()) trailing_newline = true;
  }
  result.stats.input_lines = lines.size();

  // Only a garbled line gets an owned copy (a deque, so the views into
  // earlier copies stay valid); a truncation is a shorter view. The
  // output is a sequence of line indices, a duplicate an index repeated.
  std::deque<std::string> garbled;
  struct Slot {
    std::size_t line;
    bool reorder_marked;
  };
  std::vector<Slot> faulted;
  faulted.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    netbase::Rng rng = Substream("mrt.line", i);
    std::string_view& line = lines[i];
    if (!line.empty() && rng.Bernoulli(rates.corrupt_rate)) {
      const std::size_t pos = rng.UniformInt(0, line.size() - 1);
      std::string& copy = garbled.emplace_back(line);
      copy[pos] = kGarbleAlphabet[rng.UniformInt(0, kGarbleAlphabet.size() - 1)];
      line = copy;
      ++result.stats.corrupted;
    }
    if (!line.empty() && rng.Bernoulli(rates.truncate_rate)) {
      line = line.substr(0, rng.UniformInt(0, line.size() - 1));
      ++result.stats.truncated;
    }
    const bool reorder_marked = rng.Bernoulli(rates.reorder_rate);
    const bool duplicate = rng.Bernoulli(rates.duplicate_rate);
    faulted.push_back({i, reorder_marked});
    if (duplicate) {
      faulted.push_back({i, false});
      ++result.stats.duplicated;
    }
  }

  // Reordering within the jitter window: a marked line trades places with
  // its successor when both carry timestamps at most the window apart —
  // local disorder, never long-range teleportation.
  for (std::size_t i = 0; i + 1 < faulted.size(); ++i) {
    if (!faulted[i].reorder_marked) continue;
    const auto a = LineTime(lines[faulted[i].line]);
    const auto b = LineTime(lines[faulted[i + 1].line]);
    if (!a || !b || *a == *b) continue;
    if (std::llabs(*b - *a) > kReorderJitterS) continue;
    std::swap(faulted[i], faulted[i + 1]);
    ++result.stats.reordered;
  }

  std::size_t bytes = faulted.size();
  for (const Slot& slot : faulted) bytes += lines[slot.line].size();
  result.text.reserve(bytes);
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    result.text += lines[faulted[i].line];
    if (i + 1 < faulted.size() || trailing_newline) result.text += '\n';
  }

  Count("fault.mrt.corrupted", result.stats.corrupted);
  Count("fault.mrt.truncated", result.stats.truncated);
  Count("fault.mrt.duplicated", result.stats.duplicated);
  Count("fault.mrt.reordered", result.stats.reordered);
  return result;
}

FlapSchedule FaultInjector::ScheduleFor(bgp::SessionId session) const {
  const SessionFaultRates& rates = plan_.session;
  FlapSchedule schedule;
  schedule.session = session;
  netbase::Rng rng = Substream("session.flap", session);
  if (!rng.Bernoulli(rates.flap_rate)) return schedule;

  const double drawn = rng.Exponential(kFlapsPerWindow);
  const std::size_t count = std::clamp<std::size_t>(
      static_cast<std::size_t>(drawn + 0.5), 1, 16);
  const std::int64_t max_down = std::max<std::int64_t>(plan_.window_s / 4, 60);
  for (std::size_t f = 0; f < count; ++f) {
    const auto begin = static_cast<std::int64_t>(
        rng.UniformInt(0, static_cast<std::uint64_t>(std::max<std::int64_t>(plan_.window_s - 1, 0))));
    const auto length = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(rng.Exponential(kMeanDownS)), 60, max_down);
    schedule.down.emplace_back(begin, std::min(begin + length, plan_.window_s));
  }
  std::sort(schedule.down.begin(), schedule.down.end());
  // Merge overlaps so the schedule is a disjoint interval list.
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& interval : schedule.down) {
    if (!merged.empty() && interval.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, interval.second);
    } else {
      merged.push_back(interval);
    }
  }
  schedule.down = std::move(merged);
  return schedule;
}

FaultedRecords FaultInjector::PerturbRecords(
    std::span<const bgp::feed::UpdateRec> initial_rib,
    std::span<const bgp::feed::UpdateRec> updates) const {
  const SessionFaultRates& rates = plan_.session;
  FaultedRecords result;
  result.stats.input_updates = updates.size();
  result.updates.reserve(updates.size());

  // One state per session. A session draws only from its own substreams
  // and sees only its own updates, in input order, so one pass over the
  // interleaved input perturbs each session exactly as if it ran alone;
  // the final sort orders the sessions' outputs.
  struct Session {
    FlapSchedule schedule;
    netbase::Rng delivery;
    std::size_t cursor = 0;  // next un-finished down interval
    // The peer's true table, evolved through every update whether or not
    // the collector sees it — resync bursts re-announce *current* state.
    std::unordered_map<netbase::Prefix, bgp::feed::PathId> table = {};
  };
  std::unordered_map<bgp::SessionId, Session> sessions;
  const auto session = [&](bgp::SessionId id) -> Session& {
    auto it = sessions.find(id);
    if (it == sessions.end()) {
      it = sessions.emplace(id, Session{ScheduleFor(id), Substream("session.delivery", id)}).first;
    }
    return it->second;
  };
  // Table order, not prefix order: the final sort keys on the prefix.
  const auto resync = [&](bgp::SessionId id, const Session& s, std::int64_t at) {
    for (const auto& [prefix, path] : s.table) {
      result.updates.push_back(
          {netbase::SimTime{at}, id, bgp::UpdateType::kAnnounce, prefix, path});
      ++result.stats.resync_injected;
    }
  };

  for (const bgp::feed::UpdateRec& rec : initial_rib) {
    Session& s = session(rec.session);
    if (rec.type == bgp::UpdateType::kAnnounce) s.table[rec.prefix] = rec.path;
  }
  for (const bgp::feed::UpdateRec& rec : updates) {
    Session& s = session(rec.session);
    const auto& down = s.schedule.down;
    const std::int64_t t = rec.time.seconds;
    while (s.cursor < down.size() && down[s.cursor].second <= t) {
      resync(rec.session, s, down[s.cursor].second);
      ++s.cursor;
    }
    if (rec.type == bgp::UpdateType::kAnnounce) {
      s.table[rec.prefix] = rec.path;
    } else {
      s.table.erase(rec.prefix);
    }
    // The loop above left t before the current interval's end.
    if (s.cursor < down.size() && down[s.cursor].first <= t) {
      ++result.stats.dropped_down;
      continue;
    }
    if (s.delivery.Bernoulli(rates.loss_rate)) {
      ++result.stats.dropped_loss;
      continue;
    }
    bgp::feed::UpdateRec out = rec;
    if (rates.delay_rate > 0 && s.delivery.Bernoulli(rates.delay_rate)) {
      const auto delay = static_cast<std::int64_t>(s.delivery.UniformInt(
          1, static_cast<std::uint64_t>(std::max<std::int64_t>(rates.max_delay_s, 1))));
      out.time.seconds = std::min(t + delay, plan_.window_s);
      ++result.stats.delayed;
    }
    result.updates.push_back(out);
  }
  for (auto& [id, s] : sessions) {
    result.stats.flapped_sessions += s.schedule.down.empty() ? 0 : 1;
    result.stats.flaps += s.schedule.down.size();
    // Outages that end after the session's last update still resync.
    for (; s.cursor < s.schedule.down.size(); ++s.cursor) {
      const std::int64_t up = s.schedule.down[s.cursor].second;
      if (up <= plan_.window_s) resync(id, s, up);
    }
  }

  bgp::feed::SortRecords(result.updates);
  result.stats.output_updates = result.updates.size();

  Count("fault.session.dropped_down", result.stats.dropped_down);
  Count("fault.session.dropped_loss", result.stats.dropped_loss);
  Count("fault.session.delayed", result.stats.delayed);
  Count("fault.session.resync_injected", result.stats.resync_injected);
  Count("fault.session.flaps", result.stats.flaps);
  return result;
}

FaultedStream FaultInjector::PerturbStream(std::span<const bgp::BgpUpdate> initial_rib,
                                           std::span<const bgp::BgpUpdate> updates) const {
  bgp::feed::AsPathTable table;
  const std::vector<bgp::feed::UpdateRec> rib = bgp::feed::InternRecords(table, initial_rib);
  const FaultedRecords perturbed =
      PerturbRecords(rib, bgp::feed::InternRecords(table, updates));
  FaultedStream result{{}, perturbed.stats};
  result.updates.reserve(perturbed.updates.size());
  for (const bgp::feed::UpdateRec& rec : perturbed.updates) {
    result.updates.push_back(bgp::feed::ToBgpUpdate(rec, table));
  }
  return result;
}

template <typename Fn>
auto FaultInjector::RetriedIo(std::string_view purpose, const std::string& path,
                              std::uint64_t op_index, IoFaultStats* stats,
                              Fn&& fn) const {
  netbase::Rng decisions = Substream(purpose, op_index);
  netbase::Rng backoff = Substream("io.backoff", op_index ^ Fnv1a(purpose));
  IoFaultStats local;
  std::size_t consecutive = 0;
  auto attempt = [&] {
    ++local.attempts;
    if (plan_.io.failure_rate > 0 && consecutive < plan_.io.max_consecutive &&
        decisions.Bernoulli(plan_.io.failure_rate)) {
      ++consecutive;
      ++local.injected_failures;
      throw std::runtime_error("fault: injected transient I/O failure during " +
                               std::string(purpose) + " of '" + path + "'");
    }
    consecutive = 0;
    return fn();
  };
  util::RetryStats retry_stats;
  // Tally on success and on give-up alike: when the budget runs out, the
  // rethrown failure still leaves its injected damage counted.
  const auto finalize = [&] {
    local.retries = retry_stats.retries;
    local.total_backoff_ms = retry_stats.total_backoff_ms;
    Count("fault.io.injected_failures", local.injected_failures);
    if (stats != nullptr) *stats = local;
  };
  struct Finalizer {
    const decltype(finalize)& run;
    ~Finalizer() { run(); }
  } finalizer{finalize};
  return util::Retry(plan_.retry, backoff, attempt, &retry_stats);
}

std::vector<bgp::BgpUpdate> FaultInjector::ReadMrtFile(const std::string& path,
                                                       IoFaultStats* stats,
                                                       std::uint64_t op_index) const {
  return RetriedIo("io.read", path, op_index, stats,
                   [&path] { return bgp::mrt::ReadFile(path); });
}

void FaultInjector::WriteMrtFile(const std::string& path,
                                 const std::vector<bgp::BgpUpdate>& updates,
                                 IoFaultStats* stats, std::uint64_t op_index) const {
  RetriedIo("io.write", path, op_index, stats,
            [&path, &updates] { bgp::mrt::WriteFile(path, updates); });
}

}  // namespace quicksand::fault
