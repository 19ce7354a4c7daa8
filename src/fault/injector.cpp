#include "fault/injector.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <type_traits>

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

}  // namespace

netbase::Rng FaultInjector::Substream(std::string_view purpose, std::uint64_t index) const {
  std::uint64_t h = Fnv1a(purpose);
  h ^= index + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return netbase::Rng(plan_.seed ^ h);
}

FaultedText FaultInjector::CorruptText(std::string_view text) const {
  const MrtFaultRates& rates = plan_.mrt;
  FaultedText result;

  // Split into lines, remembering whether the dump ended with a newline
  // so an untouched dump reassembles byte-exactly.
  struct Line {
    std::string text;
    bool reorder_marked = false;
  };
  std::vector<Line> lines;
  bool trailing_newline = false;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back({std::string(text.substr(start)), false});
      break;
    }
    lines.push_back({std::string(text.substr(start, end - start)), false});
    start = end + 1;
    if (start == text.size()) trailing_newline = true;
  }
  result.stats.input_lines = lines.size();

  std::vector<Line> faulted;
  faulted.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    netbase::Rng rng = Substream("mrt.line", i);
    Line line = std::move(lines[i]);
    if (!line.text.empty() && rng.Bernoulli(rates.corrupt_rate)) {
      const std::size_t pos = rng.UniformInt(0, line.text.size() - 1);
      line.text[pos] = kGarbleAlphabet[rng.UniformInt(0, kGarbleAlphabet.size() - 1)];
      ++result.stats.corrupted;
    }
    if (!line.text.empty() && rng.Bernoulli(rates.truncate_rate)) {
      line.text.resize(rng.UniformInt(0, line.text.size() - 1));
      ++result.stats.truncated;
    }
    line.reorder_marked = rng.Bernoulli(rates.reorder_rate);
    const bool duplicate = rng.Bernoulli(rates.duplicate_rate);
    faulted.push_back(line);
    if (duplicate) {
      faulted.push_back({faulted.back().text, false});
      ++result.stats.duplicated;
    }
  }

  // Reordering within the jitter window: a marked line trades places with
  // its successor when both carry timestamps at most the window apart —
  // local disorder, never long-range teleportation.
  for (std::size_t i = 0; i + 1 < faulted.size(); ++i) {
    if (!faulted[i].reorder_marked) continue;
    const auto a = LineTime(faulted[i].text);
    const auto b = LineTime(faulted[i + 1].text);
    if (!a || !b || *a == *b) continue;
    if (std::llabs(*b - *a) > rates.reorder_jitter_s) continue;
    std::swap(faulted[i], faulted[i + 1]);
    ++result.stats.reordered;
  }

  for (std::size_t i = 0; i < faulted.size(); ++i) {
    result.text += faulted[i].text;
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

  const double drawn = rng.Exponential(std::max(rates.flaps_per_window, 0.1));
  const std::size_t count = std::clamp<std::size_t>(
      static_cast<std::size_t>(drawn + 0.5), 1, 16);
  const std::int64_t max_down = std::max<std::int64_t>(plan_.window_s / 4, 60);
  for (std::size_t f = 0; f < count; ++f) {
    const auto begin = static_cast<std::int64_t>(
        rng.UniformInt(0, static_cast<std::uint64_t>(std::max<std::int64_t>(plan_.window_s - 1, 0))));
    const auto length = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(rng.Exponential(rates.mean_down_s)), 60, max_down);
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

FaultedStream FaultInjector::PerturbStream(std::span<const bgp::BgpUpdate> initial_rib,
                                           std::span<const bgp::BgpUpdate> updates) const {
  const SessionFaultRates& rates = plan_.session;
  FaultedStream result;
  result.stats.input_updates = updates.size();

  // Partition by session, preserving per-session arrival order. Each
  // session is perturbed independently from its own substreams, so the
  // outcome is invariant to how sessions interleave in the input.
  std::map<bgp::SessionId, std::pair<std::vector<const bgp::BgpUpdate*>,
                                     std::vector<const bgp::BgpUpdate*>>>
      by_session;
  for (const bgp::BgpUpdate& u : initial_rib) by_session[u.session].first.push_back(&u);
  for (const bgp::BgpUpdate& u : updates) by_session[u.session].second.push_back(&u);

  for (const auto& [session, streams] : by_session) {
    const FlapSchedule schedule = ScheduleFor(session);
    netbase::Rng delivery = Substream("session.delivery", session);
    if (!schedule.down.empty()) {
      ++result.stats.flapped_sessions;
      result.stats.flaps += schedule.down.size();
    }

    // The peer's true table, evolved through every update whether or not
    // the collector sees it — resync bursts re-announce *current* state.
    std::map<netbase::Prefix, bgp::AsPath> table;
    for (const bgp::BgpUpdate* u : streams.first) {
      if (u->type == bgp::UpdateType::kAnnounce) table[u->prefix] = u->path;
    }

    std::size_t cursor = 0;  // next un-finished down interval
    auto resync = [&](std::int64_t at) {
      if (!rates.resync_on_recovery) return;
      for (const auto& [prefix, path] : table) {
        result.updates.push_back({netbase::SimTime{at}, session,
                                  bgp::UpdateType::kAnnounce, prefix, path});
        ++result.stats.resync_injected;
      }
    };

    for (const bgp::BgpUpdate* u : streams.second) {
      const std::int64_t t = u->time.seconds;
      while (cursor < schedule.down.size() && schedule.down[cursor].second <= t) {
        resync(schedule.down[cursor].second);
        ++cursor;
      }
      if (u->type == bgp::UpdateType::kAnnounce) {
        table[u->prefix] = u->path;
      } else {
        table.erase(u->prefix);
      }
      const bool down = cursor < schedule.down.size() &&
                        schedule.down[cursor].first <= t && t < schedule.down[cursor].second;
      if (down) {
        ++result.stats.dropped_down;
        continue;
      }
      if (delivery.Bernoulli(rates.loss_rate)) {
        ++result.stats.dropped_loss;
        continue;
      }
      bgp::BgpUpdate out = *u;
      if (rates.delay_rate > 0 && delivery.Bernoulli(rates.delay_rate)) {
        const auto delay = static_cast<std::int64_t>(delivery.UniformInt(
            1, static_cast<std::uint64_t>(std::max<std::int64_t>(rates.max_delay_s, 1))));
        out.time.seconds = std::min(t + delay, plan_.window_s);
        ++result.stats.delayed;
      }
      result.updates.push_back(std::move(out));
    }
    // Outages that end after the session's last update still resync.
    while (cursor < schedule.down.size()) {
      if (schedule.down[cursor].second <= plan_.window_s) {
        resync(schedule.down[cursor].second);
      }
      ++cursor;
    }
  }

  bgp::SortUpdates(result.updates);
  result.stats.output_updates = result.updates.size();

  Count("fault.session.dropped_down", result.stats.dropped_down);
  Count("fault.session.dropped_loss", result.stats.dropped_loss);
  Count("fault.session.delayed", result.stats.delayed);
  Count("fault.session.resync_injected", result.stats.resync_injected);
  Count("fault.session.flaps", result.stats.flaps);
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
  auto finalize = [&] {
    local.retries = retry_stats.retries;
    local.total_backoff_ms = retry_stats.total_backoff_ms;
    Count("fault.io.injected_failures", local.injected_failures);
    if (stats != nullptr) *stats = local;
  };
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    util::Retry(plan_.retry, backoff, attempt, &retry_stats);
    finalize();
  } else {
    auto result = util::Retry(plan_.retry, backoff, attempt, &retry_stats);
    finalize();
    return result;
  }
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
