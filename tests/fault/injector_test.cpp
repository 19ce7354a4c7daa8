#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/update.hpp"
#include "obs/metrics.hpp"
#include "record_fixture.hpp"

namespace quicksand::fault {
namespace {

using bgp::AsPath;
using bgp::BgpUpdate;
using bgp::SessionId;
using bgp::UpdateType;
using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

BgpUpdate Withdraw(std::int64_t t, SessionId s, const char* prefix) {
  return {SimTime{t}, s, UpdateType::kWithdraw, Prefix::MustParse(prefix), {}};
}

std::vector<BgpUpdate> SampleStream() {
  std::vector<BgpUpdate> updates;
  for (std::int64_t t = 100; t <= 80000; t += 400) {
    updates.push_back(Announce(t, (t / 400) % 3, "10.0.0.0/8",
                               t % 800 == 100 ? "1 2 3" : "1 4 3"));
    if (t % 1200 == 500) updates.push_back(Withdraw(t + 1, 0, "11.0.0.0/8"));
  }
  bgp::SortUpdates(updates);
  return updates;
}

std::vector<BgpUpdate> SampleRib() {
  return {Announce(0, 0, "10.0.0.0/8", "1 2 3"), Announce(0, 0, "11.0.0.0/8", "1 5"),
          Announce(0, 1, "10.0.0.0/8", "6 3"), Announce(0, 2, "10.0.0.0/8", "7 2 3")};
}

FaultPlan ZeroPlan() {
  FaultPlan plan = FaultPlan::Scaled(0.0, 42, 86400);
  return plan;
}

TEST(FaultInjector, ZeroRateTextIsByteIdenticalPassthrough) {
  const FaultInjector injector(ZeroPlan());
  const std::string text = bgp::mrt::ToText(SampleStream());
  const FaultedText out = injector.CorruptText(text);
  EXPECT_EQ(out.text, text);
  EXPECT_EQ(out.stats.total_faults(), 0u);
  // Without a trailing newline too.
  const std::string no_newline = text.substr(0, text.size() - 1);
  EXPECT_EQ(injector.CorruptText(no_newline).text, no_newline);
}

void ExpectSameStats(const StreamFaultStats& got, const StreamFaultStats& want) {
  EXPECT_EQ(got.input_updates, want.input_updates);
  EXPECT_EQ(got.output_updates, want.output_updates);
  EXPECT_EQ(got.dropped_down, want.dropped_down);
  EXPECT_EQ(got.dropped_loss, want.dropped_loss);
  EXPECT_EQ(got.delayed, want.delayed);
  EXPECT_EQ(got.resync_injected, want.resync_injected);
  EXPECT_EQ(got.flapped_sessions, want.flapped_sessions);
  EXPECT_EQ(got.flaps, want.flaps);
}

TEST(FaultInjector, ZeroRateStreamIsExactPassthrough) {
  const FaultInjector injector(ZeroPlan());
  test::RecordFixture fx;
  const auto rib = fx.Recs(SampleRib());
  const auto updates = fx.Recs(SampleStream());
  const FaultedRecords out = injector.PerturbRecords(rib, updates);
  EXPECT_EQ(out.updates, updates);
  EXPECT_EQ(out.stats.dropped(), 0u);
  EXPECT_EQ(out.stats.resync_injected, 0u);
  EXPECT_EQ(out.stats.flapped_sessions, 0u);
}

TEST(FaultInjector, ZeroRateScheduleIsEmpty) {
  const FaultInjector injector(ZeroPlan());
  for (SessionId s = 0; s < 32; ++s) {
    EXPECT_TRUE(injector.ScheduleFor(s).down.empty());
  }
}

TEST(FaultInjector, TextFaultsAreDeterministicAcrossInjectors) {
  const FaultPlan plan = FaultPlan::Scaled(0.05, 7, 86400);
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  const std::string text = bgp::mrt::ToText(SampleStream());
  const FaultedText fa = a.CorruptText(text);
  const FaultedText fb = b.CorruptText(text);
  EXPECT_EQ(fa.text, fb.text);
  EXPECT_EQ(fa.stats.corrupted, fb.stats.corrupted);
  EXPECT_GT(fa.stats.total_faults(), 0u);
}

TEST(FaultInjector, TextFaultsChangeWithSeed) {
  const std::string text = bgp::mrt::ToText(SampleStream());
  const FaultedText fa = FaultInjector(FaultPlan::Scaled(0.05, 1, 86400)).CorruptText(text);
  const FaultedText fb = FaultInjector(FaultPlan::Scaled(0.05, 2, 86400)).CorruptText(text);
  EXPECT_NE(fa.text, fb.text);
}

TEST(FaultInjector, CorruptedDumpStillParsesLeniently) {
  const FaultInjector injector(FaultPlan::Scaled(0.10, 3, 86400));
  const auto updates = SampleStream();
  const FaultedText out = injector.CorruptText(bgp::mrt::ToText(updates));
  bgp::mrt::ParseStreamOptions options;
  options.lenient = true;
  options.stats = std::make_shared<bgp::mrt::ParseStats>();
  bgp::feed::UpdateStream stream = bgp::mrt::ParseStream(
      std::make_shared<bgp::feed::AsPathTable>(), out.text, options);
  const std::vector<bgp::feed::UpdateRec> parsed = bgp::feed::Drain(stream);
  const bgp::mrt::ParseStats& stats = *options.stats;
  // Faults cost records, never the dataset.
  EXPECT_GT(stats.bad_lines, 0u);
  EXPECT_GT(parsed.size(), updates.size() / 2);
  EXPECT_EQ(stats.parsed + stats.bad_lines, stats.total_lines);
}

/// A fixed dump for the golden digests: 3,000 lines on six sessions, 1 to
/// 40 s apart (so reorders fall inside the jitter window), every seventh
/// a withdrawal.
std::string GoldenDump() {
  std::vector<BgpUpdate> updates;
  std::int64_t t = 1000;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    t += 1 + (i * 7919) % 40;
    BgpUpdate update{SimTime{t}, i % 6, UpdateType::kAnnounce,
                     Prefix(netbase::Ipv4Address((10 + i % 50) << 24), 8),
                     AsPath{65000, 1 + i % 13, 3000 + i % 29}};
    if (i % 7 == 3) {
      update.type = UpdateType::kWithdraw;
      update.path = {};
    }
    updates.push_back(std::move(update));
  }
  return bgp::mrt::ToText(updates);
}

/// FNV-1a over the faulted text, then over every TextFaultStats field.
std::uint64_t FaultedDigest(const FaultedText& faulted) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const char c : faulted.text) mix(static_cast<unsigned char>(c));
  const TextFaultStats& s = faulted.stats;
  for (const std::size_t field :
       {s.input_lines, s.corrupted, s.truncated, s.duplicated, s.reordered}) {
    mix(field);
  }
  return h;
}

TEST(FaultInjector, CorruptTextGoldenDigest) {
  // Pins the per-line draws, the output bytes and every stats field: a
  // rewrite of CorruptText must reproduce the fault sweep's rotted text
  // exactly.
  const std::string dump = GoldenDump();
  const std::pair<double, std::uint64_t> golden[] = {
      {0.01, 0xb7d35e2116f19b5eULL},
      {0.05, 0x16cf367747471cbbULL},
      {0.10, 0x93054a5affe16198ULL},
  };
  for (const auto& [rate, digest] : golden) {
    const FaultedText faulted =
        FaultInjector(FaultPlan::Scaled(rate, 20140601, 86400)).CorruptText(dump);
    EXPECT_GT(faulted.stats.reordered, 0u) << "rate " << rate;
    EXPECT_EQ(FaultedDigest(faulted), digest)
        << "rate " << rate << ": 0x" << std::hex << FaultedDigest(faulted);
  }
}

TEST(FaultInjector, ScheduleIsPureFunctionOfSeedAndSession) {
  const FaultPlan plan = FaultPlan::Scaled(0.10, 11, netbase::duration::kMonth);
  const FaultInjector injector(plan);
  // Same answer regardless of call order or repetition.
  const FlapSchedule first = injector.ScheduleFor(5);
  (void)injector.ScheduleFor(2);
  (void)injector.ScheduleFor(9);
  const FlapSchedule again = injector.ScheduleFor(5);
  EXPECT_EQ(first.down, again.down);
}

TEST(FaultInjector, SchedulesAreSortedDisjointAndInsideWindow) {
  const FaultPlan plan = FaultPlan::Scaled(0.25, 13, netbase::duration::kMonth);
  const FaultInjector injector(plan);
  bool saw_flap = false;
  for (SessionId s = 0; s < 64; ++s) {
    const FlapSchedule schedule = injector.ScheduleFor(s);
    saw_flap = saw_flap || !schedule.down.empty();
    std::int64_t previous_end = -1;
    for (const auto& [down, up] : schedule.down) {
      EXPECT_LT(down, up);
      EXPECT_GE(down, 0);
      EXPECT_LE(up, plan.window_s);
      EXPECT_GT(down, previous_end);
      previous_end = up;
    }
  }
  EXPECT_TRUE(saw_flap);
}

TEST(FaultInjector, StreamPerturbationIsDeterministicAndOrdered) {
  const FaultPlan plan = FaultPlan::Scaled(0.05, 21, 86400);
  test::RecordFixture fx;
  const auto rib = fx.Recs(SampleRib());
  const auto updates = fx.Recs(SampleStream());
  const FaultedRecords a = FaultInjector(plan).PerturbRecords(rib, updates);
  const FaultedRecords b = FaultInjector(plan).PerturbRecords(rib, updates);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.stats.dropped(), b.stats.dropped());
  EXPECT_GT(a.stats.dropped(), 0u);
  for (std::size_t i = 1; i < a.updates.size(); ++i) {
    EXPECT_LE(a.updates[i - 1].time.seconds, a.updates[i].time.seconds);
  }
  EXPECT_EQ(a.stats.input_updates, updates.size());
  EXPECT_EQ(a.stats.output_updates, a.updates.size());
}

TEST(FaultInjector, OutagesDropUpdatesAndResyncOnRecovery) {
  // Force every session to flap: rate 0.5 ⇒ flap_rate 1.0.
  FaultPlan plan = FaultPlan::Scaled(0.0, 31, 86400);
  plan.session.flap_rate = 1.0;
  const FaultInjector injector(plan);
  test::RecordFixture fx;
  const FaultedRecords out =
      injector.PerturbRecords(fx.Recs(SampleRib()), fx.Recs(SampleStream()));
  EXPECT_GT(out.stats.flapped_sessions, 0u);
  EXPECT_GT(out.stats.dropped_down, 0u);
  EXPECT_GT(out.stats.resync_injected, 0u);
}

TEST(FaultInjector, PerturbStreamAdapterEqualsPerturbRecordsMaterialized) {
  FaultPlan plan = FaultPlan::Scaled(0.05, 21, 86400);
  plan.session.flap_rate = 1.0;
  const FaultInjector injector(plan);
  test::RecordFixture fx;
  const FaultedRecords records =
      injector.PerturbRecords(fx.Recs(SampleRib()), fx.Recs(SampleStream()));
  const FaultedStream adapted = injector.PerturbStream(SampleRib(), SampleStream());
  EXPECT_EQ(adapted.updates, fx.Updates(records.updates));
  ExpectSameStats(adapted.stats, records.stats);
  EXPECT_GT(adapted.stats.resync_injected, 0u);
}

// ---------------------------------------------------------------------------
// PerturbRecords against the map-based reference model it replaced.

/// What the reference model saw happen: each case the comparison must
/// exercise at least once.
struct Coverage {
  std::size_t out_of_order = 0;   ///< an update older than its session's previous
  std::size_t duplicates = 0;     ///< an update equal to its session's previous
  std::size_t at_outage_end = 0;  ///< an update stamped exactly at an outage's end
  std::size_t withdrawn_skipped = 0;  ///< a resync that left out a withdrawn prefix
  std::size_t trailing_outages = 0;   ///< an outage ending after a session's last update
  std::size_t clamped_delays = 0;     ///< a delay cut at window_s
};

/// The injector's named substream for ("session.delivery", session).
netbase::Rng DeliverySubstream(std::uint64_t seed, SessionId session) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : std::string_view("session.delivery")) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= std::uint64_t{session} + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return netbase::Rng(seed ^ h);
}

/// The reference model: the map-based perturbation PerturbRecords
/// replaced, on materialized updates. Sessions in a std::map, a
/// std::map<Prefix, AsPath> table per session, a path copy per update
/// and one stable sort of the output; `seen` only records coverage.
FaultedStream ReferencePerturb(const FaultInjector& injector,
                               const std::vector<BgpUpdate>& initial_rib,
                               const std::vector<BgpUpdate>& updates, Coverage& seen) {
  const FaultPlan& plan = injector.plan();
  const SessionFaultRates& rates = plan.session;
  FaultedStream result;
  result.stats.input_updates = updates.size();

  std::map<SessionId,
           std::pair<std::vector<const BgpUpdate*>, std::vector<const BgpUpdate*>>>
      by_session;
  for (const BgpUpdate& u : initial_rib) by_session[u.session].first.push_back(&u);
  for (const BgpUpdate& u : updates) by_session[u.session].second.push_back(&u);

  for (const auto& [session, streams] : by_session) {
    const FlapSchedule schedule = injector.ScheduleFor(session);
    netbase::Rng delivery = DeliverySubstream(plan.seed, session);
    if (!schedule.down.empty()) {
      ++result.stats.flapped_sessions;
      result.stats.flaps += schedule.down.size();
    }

    std::map<Prefix, AsPath> table;
    for (const BgpUpdate* u : streams.first) {
      if (u->type == UpdateType::kAnnounce) table[u->prefix] = u->path;
    }
    std::set<Prefix> withdrawn;

    std::size_t cursor = 0;
    auto resync = [&](std::int64_t at) {
      for (const Prefix& prefix : withdrawn) seen.withdrawn_skipped += table.count(prefix) == 0;
      for (const auto& [prefix, path] : table) {
        result.updates.push_back({SimTime{at}, session, UpdateType::kAnnounce, prefix, path});
        ++result.stats.resync_injected;
      }
    };

    const BgpUpdate* previous = nullptr;
    for (const BgpUpdate* u : streams.second) {
      const std::int64_t t = u->time.seconds;
      if (previous != nullptr) {
        seen.out_of_order += t < previous->time.seconds ? 1 : 0;
        seen.duplicates += *u == *previous ? 1 : 0;
      }
      previous = u;
      for (const auto& interval : schedule.down) seen.at_outage_end += t == interval.second;
      while (cursor < schedule.down.size() && schedule.down[cursor].second <= t) {
        resync(schedule.down[cursor].second);
        ++cursor;
      }
      if (u->type == UpdateType::kAnnounce) {
        table[u->prefix] = u->path;
      } else if (table.erase(u->prefix) > 0) {
        withdrawn.insert(u->prefix);
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
      BgpUpdate out = *u;
      if (rates.delay_rate > 0 && delivery.Bernoulli(rates.delay_rate)) {
        const auto delay = static_cast<std::int64_t>(delivery.UniformInt(
            1, static_cast<std::uint64_t>(std::max<std::int64_t>(rates.max_delay_s, 1))));
        seen.clamped_delays += t + delay > plan.window_s ? 1 : 0;
        out.time.seconds = std::min(t + delay, plan.window_s);
        ++result.stats.delayed;
      }
      result.updates.push_back(std::move(out));
    }
    while (cursor < schedule.down.size()) {
      if (schedule.down[cursor].second <= plan.window_s) {
        ++seen.trailing_outages;
        resync(schedule.down[cursor].second);
      }
      ++cursor;
    }
  }

  bgp::SortUpdates(result.updates);
  result.stats.output_updates = result.updates.size();
  return result;
}

struct RandomFeed {
  std::vector<BgpUpdate> rib;
  std::vector<BgpUpdate> updates;
};

/// A seeded feed shaped like fault_sweep's parsed text, which is neither
/// sorted nor unique: session ids skewed across the 32-bit range (one
/// session carries most updates), local disorder and repeated lines, a
/// small prefix and path pool so withdrawals meet later resyncs, an
/// update at every outage's end, a session that falls silent early and
/// one that only appears in the RIB.
RandomFeed MakeRandomFeed(const FaultInjector& injector, std::uint64_t seed) {
  const std::int64_t window = injector.plan().window_s;
  const std::vector<SessionId> busy = {3, 17, 65536, 4000000000u, 4294967295u};
  constexpr SessionId kSilentEarly = 17;
  constexpr SessionId kRibOnly = 99;
  const std::vector<const char*> prefixes = {"10.0.0.0/8",      "10.1.0.0/16",
                                             "11.0.0.0/8",      "192.0.2.0/24",
                                             "198.51.100.0/24", "203.0.113.0/24"};
  const std::vector<const char*> paths = {"1 2 3", "1 4 3", "5 3", "7 2 3", "8 9 3 3"};
  netbase::Rng rng(seed);
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.UniformInt(0, pool.size() - 1)];
  };
  const auto update = [&](std::int64_t t, SessionId s) {
    const bool withdraw = rng.Bernoulli(0.25);
    const char* prefix = pick(prefixes);
    return withdraw ? Withdraw(t, s, prefix) : Announce(t, s, prefix, pick(paths));
  };

  RandomFeed feed;
  std::vector<SessionId> rib_sessions = busy;
  rib_sessions.push_back(kRibOnly);
  for (const SessionId s : rib_sessions) {
    for (std::size_t p = 0; p < 4; ++p) {
      feed.rib.push_back(Announce(0, s, prefixes[p], pick(paths)));
    }
  }
  feed.rib.push_back(Withdraw(0, busy[0], prefixes[4]));  // seeds nothing

  for (std::size_t i = 0; i < 800; ++i) {
    const SessionId s = rng.Bernoulli(0.6) ? busy[0] : pick(busy);
    const std::int64_t span = s == kSilentEarly ? window / 8 : window;
    const auto t = static_cast<std::int64_t>(
        rng.UniformInt(0, static_cast<std::uint64_t>(span - 1)));
    feed.updates.push_back(update(t, s));
  }
  for (const SessionId s : busy) {
    if (s == kSilentEarly) continue;
    for (const auto& interval : injector.ScheduleFor(s).down) {
      feed.updates.push_back(update(interval.second, s));
    }
  }
  bgp::SortUpdates(feed.updates);
  // Local disorder and repeats, as rotted and re-parsed text has them.
  std::vector<BgpUpdate> disordered;
  for (std::size_t i = 0; i < feed.updates.size(); ++i) {
    if (i + 1 < feed.updates.size() && rng.Bernoulli(0.15)) {
      std::swap(feed.updates[i], feed.updates[i + 1]);
    }
    disordered.push_back(feed.updates[i]);
    if (rng.Bernoulli(0.05)) disordered.push_back(feed.updates[i]);
  }
  feed.updates = std::move(disordered);
  return feed;
}

TEST(FaultInjector, PerturbRecordsMatchesReferenceModel) {
  constexpr std::int64_t kWindow = 86400;
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FaultPlan plan = FaultPlan::Scaled(0.05, 100 + seed, kWindow);
    plan.session.flap_rate = seed % 4 == 0 ? 0.5 : 1.0;
    plan.session.delay_rate = 0.3;
    plan.session.max_delay_s = 3600;
    const FaultInjector injector(plan);
    const RandomFeed feed = MakeRandomFeed(injector, seed);

    Coverage run;
    const FaultedStream want = ReferencePerturb(injector, feed.rib, feed.updates, run);
    test::RecordFixture fx;
    const FaultedRecords got =
        injector.PerturbRecords(fx.Recs(feed.rib), fx.Recs(feed.updates));
    EXPECT_EQ(fx.Updates(got.updates), want.updates) << "seed " << seed;
    ExpectSameStats(got.stats, want.stats);

    seen.out_of_order += run.out_of_order;
    seen.duplicates += run.duplicates;
    seen.at_outage_end += run.at_outage_end;
    seen.withdrawn_skipped += run.withdrawn_skipped;
    seen.trailing_outages += run.trailing_outages;
    seen.clamped_delays += run.clamped_delays;
  }
  EXPECT_GT(seen.out_of_order, 0u);
  EXPECT_GT(seen.duplicates, 0u);
  EXPECT_GT(seen.at_outage_end, 0u);
  EXPECT_GT(seen.withdrawn_skipped, 0u);
  EXPECT_GT(seen.trailing_outages, 0u);
  EXPECT_GT(seen.clamped_delays, 0u);
}

TEST(FaultInjector, IoFailuresAreRetriedToSuccess) {
  FaultPlan plan = FaultPlan::Scaled(0.0, 5, 86400);
  plan.io.failure_rate = 1.0;  // every attempt fails until max_consecutive
  plan.retry.max_attempts = plan.io.max_consecutive + 2;
  plan.retry.sleeper = [](double) {};
  const FaultInjector injector(plan);

  const std::string path = ::testing::TempDir() + "fault_injector_io_test.txt";
  const auto updates = SampleRib();
  IoFaultStats write_stats;
  injector.WriteMrtFile(path, updates, &write_stats);
  EXPECT_EQ(write_stats.injected_failures, plan.io.max_consecutive);
  EXPECT_EQ(write_stats.retries, plan.io.max_consecutive);
  EXPECT_GT(write_stats.total_backoff_ms, 0.0);

  IoFaultStats read_stats;
  const auto read_back = injector.ReadMrtFile(path, &read_stats);
  EXPECT_EQ(read_back, updates);
  EXPECT_EQ(read_stats.injected_failures, plan.io.max_consecutive);
  std::remove(path.c_str());
}

TEST(FaultInjector, ZeroRateIoInjectsNothing) {
  const FaultInjector injector(ZeroPlan());
  const std::string path = ::testing::TempDir() + "fault_injector_io_clean_test.txt";
  const auto updates = SampleRib();
  IoFaultStats stats;
  injector.WriteMrtFile(path, updates, &stats);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.injected_failures, 0u);
  EXPECT_EQ(injector.ReadMrtFile(path), updates);
  std::remove(path.c_str());
}

TEST(FaultInjector, IoGivesUpWhenRetryBudgetTooSmall) {
  FaultPlan plan = FaultPlan::Scaled(0.0, 5, 86400);
  plan.io.failure_rate = 1.0;
  plan.io.max_consecutive = 4;
  plan.retry.max_attempts = 2;  // < max_consecutive + 1: cannot outlast the run
  plan.retry.sleeper = [](double) {};
  const FaultInjector injector(plan);
  const obs::Counter& injected =
      obs::MetricsRegistry::Global().GetCounter("fault.io.injected_failures");
  const std::uint64_t before = injected.value();
  IoFaultStats stats;
  EXPECT_THROW((void)injector.ReadMrtFile("/nonexistent/fault.txt", &stats),
               std::runtime_error);
  // Giving up still tallies the failures that exhausted the budget.
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.injected_failures, 2u);
  EXPECT_EQ(injected.value() - before, 2u);
}

}  // namespace
}  // namespace quicksand::fault
