#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/feed_sanitizer.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "paper_feeds.hpp"
#include "record_fixture.hpp"

namespace quicksand::core {
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

RelayMonitor MonitorWithBaseline(test::RecordFixture& fx) {
  RelayMonitor monitor({Prefix::MustParse("78.46.0.0/15"),
                        Prefix::MustParse("10.9.0.0/16")});
  const std::vector<BgpUpdate> rib = {
      Announce(0, 0, "78.46.0.0/15", "701 3356 24940"),
      Announce(0, 1, "78.46.0.0/15", "1299 3356 24940"),
      Announce(0, 0, "10.9.0.0/16", "701 16276"),
  };
  fx.FeedBaseline(monitor, rib);
  return monitor;
}

TEST(RelayMonitor, NoAlertsOnBaselineConsistentUpdates) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // Same origin, known upstream 3356: silent.
  const auto alerts =
      fx.Feed(monitor, Announce(100, 1, "78.46.0.0/15", "1299 174 3356 24940"));
  EXPECT_TRUE(alerts.empty());
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(RelayMonitor, OriginChangeDetected) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto alerts =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 4837 666"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kOriginChange);
  EXPECT_EQ(alerts[0].suspect, 666u);
  EXPECT_EQ(alerts[0].monitored_prefix, Prefix::MustParse("78.46.0.0/15"));
}

TEST(RelayMonitor, MoreSpecificDetected) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // A /16 carved out of the monitored /15, announced by anyone.
  const auto alerts =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/16", "701 3356 24940"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kMoreSpecific);
  EXPECT_EQ(alerts[0].monitored_prefix, Prefix::MustParse("78.46.0.0/15"));
  EXPECT_EQ(alerts[0].announced_prefix, Prefix::MustParse("78.46.0.0/16"));
}

TEST(RelayMonitor, UnrelatedPrefixIgnored) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  EXPECT_TRUE(fx.Feed(monitor, Announce(100, 0, "99.0.0.0/8", "701 666")).empty());
  EXPECT_TRUE(fx.Feed(monitor, Announce(100, 0, "78.48.0.0/16", "701 666")).empty());
}

TEST(RelayMonitor, NewUpstreamDetectedOnceAndLearned) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto first =
      fx.Feed(monitor, Announce(100, 0, "10.9.0.0/16", "701 9002 16276"));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].kind, AlertKind::kNewUpstream);
  EXPECT_EQ(first[0].suspect, 9002u);
  // Same upstream again: already learned, no duplicate alert storm.
  const auto second =
      fx.Feed(monitor, Announce(200, 1, "10.9.0.0/16", "1299 9002 16276"));
  EXPECT_TRUE(second.empty());
}

TEST(RelayMonitor, UpstreamSkipsOriginPrepending) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // Prepended origin: upstream is still 3356, which is known.
  const auto alerts = fx.Feed(
      monitor, Announce(100, 0, "78.46.0.0/15", "701 3356 24940 24940 24940"));
  EXPECT_TRUE(alerts.empty());
}

TEST(RelayMonitor, WithdrawalsRaiseNothing) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const BgpUpdate withdraw = {SimTime{100}, 0, UpdateType::kWithdraw,
                              Prefix::MustParse("78.46.0.0/15"), {}};
  EXPECT_TRUE(fx.Feed(monitor, withdraw).empty());
}

TEST(RelayMonitor, AlertsAccumulateAndFlagPrefixes) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  (void)fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  (void)fx.Feed(monitor, Announce(200, 0, "10.9.128.0/17", "701 666"));
  EXPECT_EQ(monitor.alerts().size(), 2u);
  const auto flagged = monitor.FlaggedPrefixes();
  EXPECT_EQ(flagged.size(), 2u);
  EXPECT_TRUE(flagged.contains(Prefix::MustParse("78.46.0.0/15")));
  EXPECT_TRUE(flagged.contains(Prefix::MustParse("10.9.0.0/16")));
}

TEST(RelayMonitor, MonitoredCount) {
  test::RecordFixture fx;
  EXPECT_EQ(MonitorWithBaseline(fx).MonitoredCount(), 2u);
}

TEST(RelayMonitor, AlertCountsTrackPerKindTotals) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  EXPECT_EQ(monitor.AlertCounts().total(), 0u);
  // origin change, more specific, new upstream, origin change
  (void)fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  (void)fx.Feed(monitor, Announce(200, 0, "10.9.128.0/17", "701 666"));
  (void)fx.Feed(monitor, Announce(300, 0, "10.9.0.0/16", "701 9002 16276"));
  (void)fx.Feed(monitor, Announce(400, 1, "78.46.0.0/15", "1299 667"));
  const AlertCountSummary& counts = monitor.AlertCounts();
  EXPECT_EQ(counts.origin_change, 2u);
  EXPECT_EQ(counts.more_specific, 1u);
  EXPECT_EQ(counts.new_upstream, 1u);
  EXPECT_EQ(counts.total(), 4u);
  EXPECT_EQ(counts.total(), monitor.alerts().size());
  EXPECT_EQ(counts.Of(AlertKind::kOriginChange), 2u);
  EXPECT_EQ(counts.Of(AlertKind::kMoreSpecific), 1u);
  EXPECT_EQ(counts.Of(AlertKind::kNewUpstream), 1u);
}

TEST(RelayMonitor, DuplicateOriginChangeAlertsOnce) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  // The same hijack re-announced — the signature a flapping session
  // produces when it resyncs its table after recovery.
  const auto first = fx.Feed(monitor, Announce(100, 0, "78.46.0.0/15", "701 666"));
  const auto second = fx.Feed(monitor, Announce(200, 1, "78.46.0.0/15", "1299 666"));
  const auto third =
      fx.Feed(monitor, Announce(300, 0, "78.46.0.0/15", "701 4837 666"));
  EXPECT_EQ(first.size(), 1u);
  EXPECT_TRUE(second.empty());
  EXPECT_TRUE(third.empty());
  EXPECT_EQ(monitor.AlertCounts().origin_change, 1u);
  EXPECT_EQ(monitor.SuppressedDuplicates(), 2u);
  // A *different* bogus origin is a new anomaly, not a duplicate.
  EXPECT_EQ(fx.Feed(monitor, Announce(400, 0, "78.46.0.0/15", "701 667")).size(), 1u);
  EXPECT_EQ(monitor.AlertCounts().origin_change, 2u);
}

TEST(RelayMonitor, DuplicateMoreSpecificAlertsOnce) {
  test::RecordFixture fx;
  RelayMonitor monitor = MonitorWithBaseline(fx);
  const auto first =
      fx.Feed(monitor, Announce(100, 0, "78.46.0.0/16", "701 3356 24940"));
  const auto repeat =
      fx.Feed(monitor, Announce(200, 1, "78.46.0.0/16", "1299 3356 24940"));
  EXPECT_EQ(first.size(), 1u);
  EXPECT_TRUE(repeat.empty());
  EXPECT_EQ(monitor.AlertCounts().more_specific, 1u);
  EXPECT_EQ(monitor.SuppressedDuplicates(), 1u);
  // Same carve-out from a different origin: a distinct anomaly.
  EXPECT_EQ(fx.Feed(monitor, Announce(300, 0, "78.46.0.0/16", "701 666")).size(), 1u);
  // So is a different carve-out by the original origin.
  EXPECT_EQ(
      fx.Feed(monitor, Announce(400, 0, "78.47.0.0/16", "701 3356 24940")).size(), 1u);
}

TEST(RelayMonitor, OutOfOrderTimestampsYieldTheSameAlertSet) {
  // Decisions depend only on learned sets and update content, never on
  // timestamp monotonicity — a reordered feed raises the same alerts.
  const std::vector<BgpUpdate> anomalies = {
      Announce(300, 0, "78.46.0.0/15", "701 666"),       // origin change
      Announce(100, 0, "10.9.128.0/17", "701 666"),      // more specific (late)
      Announce(200, 0, "10.9.0.0/16", "701 9002 16276"), // new upstream
  };
  test::RecordFixture fx;
  RelayMonitor in_order = MonitorWithBaseline(fx);
  RelayMonitor reversed = MonitorWithBaseline(fx);
  for (const BgpUpdate& update : anomalies) (void)fx.Feed(in_order, update);
  for (auto it = anomalies.rbegin(); it != anomalies.rend(); ++it) {
    (void)fx.Feed(reversed, *it);
  }
  EXPECT_EQ(in_order.AlertCounts().total(), 3u);
  EXPECT_EQ(in_order.AlertCounts().origin_change, reversed.AlertCounts().origin_change);
  EXPECT_EQ(in_order.AlertCounts().more_specific, reversed.AlertCounts().more_specific);
  EXPECT_EQ(in_order.AlertCounts().new_upstream, reversed.AlertCounts().new_upstream);
  EXPECT_EQ(in_order.FlaggedPrefixes(), reversed.FlaggedPrefixes());
}

TEST(RelayMonitor, SuppressedDuplicatesStartAtZero) {
  test::RecordFixture fx;
  EXPECT_EQ(MonitorWithBaseline(fx).SuppressedDuplicates(), 0u);
}

TEST(AlertCountSummary, Accumulates) {
  AlertCountSummary a{1, 2, 3};
  const AlertCountSummary b{10, 20, 30};
  a += b;
  EXPECT_EQ(a.origin_change, 11u);
  EXPECT_EQ(a.more_specific, 22u);
  EXPECT_EQ(a.new_upstream, 33u);
  EXPECT_EQ(a.total(), 66u);
}

TEST(AlertKindNames, Readable) {
  EXPECT_EQ(ToString(AlertKind::kOriginChange), "origin-change");
  EXPECT_EQ(ToString(AlertKind::kMoreSpecific), "more-specific");
  EXPECT_EQ(ToString(AlertKind::kNewUpstream), "new-upstream");
}

/// The monitor's global counters, read together so a test can take the
/// delta over one run.
struct MonitorCounters {
  std::uint64_t consumed = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t origin_change = 0;
  std::uint64_t more_specific = 0;
  std::uint64_t new_upstream = 0;

  static MonitorCounters Read() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return {registry.GetCounter("core.monitor.updates_consumed").value(),
            registry.GetCounter("core.monitor.duplicate_alerts_suppressed").value(),
            registry.GetCounter("core.monitor.alerts.origin_change").value(),
            registry.GetCounter("core.monitor.alerts.more_specific").value(),
            registry.GetCounter("core.monitor.alerts.new_upstream").value()};
  }
  MonitorCounters operator-(const MonitorCounters& o) const {
    return {consumed - o.consumed, suppressed - o.suppressed,
            origin_change - o.origin_change, more_specific - o.more_specific,
            new_upstream - o.new_upstream};
  }
  friend bool operator==(const MonitorCounters&, const MonitorCounters&) = default;
};

/// Every alert field, the suppressed-duplicate count and the per-kind
/// totals, as one FNV-1a digest.
std::uint64_t MonitorDigest(const RelayMonitor& monitor) {
  test::Fnv64 digest;
  for (const Alert& alert : monitor.alerts()) {
    digest.Add(static_cast<std::uint64_t>(alert.time.seconds)).Add(alert.session);
    digest.Add(alert.monitored_prefix).Add(alert.announced_prefix);
    digest.Add(static_cast<std::uint64_t>(alert.kind)).Add(alert.suspect);
  }
  digest.Add(monitor.SuppressedDuplicates());
  const AlertCountSummary& counts = monitor.AlertCounts();
  digest.Add(counts.origin_change).Add(counts.more_specific).Add(counts.new_upstream);
  return digest.value();
}

struct GoldenRun {
  std::size_t alerts = 0;
  std::size_t suppressed = 0;
  std::uint64_t digest = 0;
};

/// Sanitizes `feed` and runs it through a monitor of its Tor prefixes the
/// way the batch pipelines do: the t=0 table through LearnBaselineStream,
/// the sanitized updates through ConsumeStream. A second monitor fed
/// record by record must agree with it, counters included.
GoldenRun RunPaperFeed(test::PaperFeed feed) {
  bgp::SanitizedRecords clean = bgp::SanitizeRecords(feed.rib, std::move(feed.updates));
  const MonitorCounters before = MonitorCounters::Read();
  RelayMonitor streamed(feed.tor_prefixes);
  bgp::feed::UpdateStream baseline = bgp::feed::FromRecords(feed.table, feed.rib);
  streamed.LearnBaselineStream(baseline);
  bgp::feed::UpdateStream updates = bgp::feed::FromRecords(feed.table, clean.updates);
  const std::size_t raised = streamed.ConsumeStream(updates);
  const MonitorCounters streamed_delta = MonitorCounters::Read() - before;

  RelayMonitor looped(feed.tor_prefixes);
  for (const bgp::feed::UpdateRec& rec : feed.rib) looped.LearnRecord(rec, *feed.table);
  for (const bgp::feed::UpdateRec& rec : clean.updates) {
    (void)looped.ConsumeRecord(rec, *feed.table);
  }
  const MonitorCounters looped_delta = MonitorCounters::Read() - before - streamed_delta;

  EXPECT_EQ(raised, streamed.alerts().size());
  EXPECT_EQ(looped.alerts(), streamed.alerts());
  EXPECT_EQ(looped.SuppressedDuplicates(), streamed.SuppressedDuplicates());
  EXPECT_EQ(looped_delta, streamed_delta);
  EXPECT_EQ(streamed_delta.consumed, clean.updates.size());
  EXPECT_EQ(streamed_delta.suppressed, streamed.SuppressedDuplicates());
  EXPECT_EQ(streamed_delta.origin_change, streamed.AlertCounts().origin_change);
  EXPECT_EQ(streamed_delta.more_specific, streamed.AlertCounts().more_specific);
  EXPECT_EQ(streamed_delta.new_upstream, streamed.AlertCounts().new_upstream);
  return {streamed.alerts().size(), streamed.SuppressedDuplicates(), MonitorDigest(streamed)};
}

// The sanitized paper month and faulted week (test::MakePaperFeed) through
// the relay monitor. The constants were computed by the build before the
// monitor classified each prefix once.
TEST(RelayMonitor, GoldenDigestOfThePaperMonth) {
  const GoldenRun month = RunPaperFeed(test::MakePaperFeed(test::PaperFeedKind::kMonth));
  EXPECT_EQ(month.alerts, 224u);
  EXPECT_EQ(month.suppressed, 0u);
  EXPECT_EQ(month.digest, 0x410D29832311EAF7ULL);
  const GoldenRun week =
      RunPaperFeed(test::MakePaperFeed(test::PaperFeedKind::kFaultedWeek));
  EXPECT_EQ(week.alerts, 4'798u);
  EXPECT_EQ(week.suppressed, 1'414u);
  EXPECT_EQ(week.digest, 0xCFE9022A495C5D2AULL);
}

/// The monitor's algorithm before prefixes were classified once, on
/// materialized updates: a hash-set lookup and, for unmonitored prefixes,
/// a trie walk per update. It also counts the cases a random feed must
/// reach.
class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(const std::unordered_set<Prefix>& monitored)
      : monitored_(monitored) {
    for (const Prefix& prefix : monitored_) trie_.Insert(prefix, 0);
  }

  void Learn(const BgpUpdate& u) {
    if (u.type != UpdateType::kAnnounce || u.path.empty()) return;
    if (!monitored_.contains(u.prefix)) return;
    const auto& hops = u.path.hops();
    legit_origins_[u.prefix].insert(hops.back());
    for (std::size_t i = hops.size(); i-- > 0;) {
      if (hops[i] != hops.back()) {
        known_upstreams_[u.prefix].insert(hops[i]);
        break;
      }
    }
  }

  std::vector<Alert> Consume(const BgpUpdate& u) {
    std::vector<Alert> raised;
    if (u.type != UpdateType::kAnnounce || u.path.empty()) return raised;
    const auto& hops = u.path.hops();
    const bgp::AsNumber origin = hops.back();
    if (monitored_.contains(u.prefix)) {
      const auto covering = trie_.MostSpecificCovering(
          Prefix(u.prefix.network(), std::max(0, u.prefix.length() - 1)));
      if (u.prefix.length() > 0 && covering) ++monitored_inside_monitored_;
      if (hops.size() > 1 && hops[hops.size() - 2] == origin) ++prepended_;
      if (std::all_of(hops.begin(), hops.end(), [&](bgp::AsNumber as) { return as == origin; })) {
        ++origin_only_;
      }
      const bool origin_known = legit_origins_[u.prefix].contains(origin);
      if (!origin_known) {
        if (alerted_origins_[u.prefix].insert(origin).second) {
          raised.push_back({u.time, u.session, u.prefix, u.prefix, AlertKind::kOriginChange,
                            origin});
        } else {
          ++suppressed_;
        }
      } else {
        bgp::AsNumber upstream = 0;
        for (std::size_t i = hops.size(); i-- > 0;) {
          if (hops[i] != origin) {
            upstream = hops[i];
            break;
          }
        }
        if (upstream != 0 && known_upstreams_[u.prefix].insert(upstream).second) {
          raised.push_back({u.time, u.session, u.prefix, u.prefix, AlertKind::kNewUpstream,
                            upstream});
        }
      }
    } else {
      const auto covering = trie_.MostSpecificCovering(u.prefix);
      if (covering && covering->first.length() < u.prefix.length()) {
        if (covering->first.length() > 0 &&
            trie_.MostSpecificCovering(Prefix(covering->first.network(),
                                              covering->first.length() - 1))) {
          ++inside_nested_;
        }
        if (alerted_specifics_[u.prefix].insert(origin).second) {
          raised.push_back({u.time, u.session, covering->first, u.prefix,
                            AlertKind::kMoreSpecific, origin});
        } else {
          ++suppressed_;
        }
      }
    }
    alerts_.insert(alerts_.end(), raised.begin(), raised.end());
    return raised;
  }

  std::vector<Alert> alerts_;
  std::size_t suppressed_ = 0;
  std::size_t monitored_inside_monitored_ = 0;  // a monitored prefix that is also a more-specific
  std::size_t inside_nested_ = 0;  // a more-specific of a monitored prefix inside another
  std::size_t prepended_ = 0;      // origin prepended on a monitored prefix
  std::size_t origin_only_ = 0;    // a path of the origin alone: no upstream

 private:
  std::unordered_set<Prefix> monitored_;
  netbase::PrefixTrie<int> trie_;
  std::unordered_map<Prefix, std::unordered_set<bgp::AsNumber>> legit_origins_;
  std::unordered_map<Prefix, std::unordered_set<bgp::AsNumber>> known_upstreams_;
  std::unordered_map<Prefix, std::unordered_set<bgp::AsNumber>> alerted_origins_;
  std::unordered_map<Prefix, std::unordered_set<bgp::AsNumber>> alerted_specifics_;
};

/// A seeded feed over nested monitored prefixes (10/8 contains 10.1/16,
/// which contains 10.1.2/24), their more-specifics and unrelated prefixes:
/// paths of one to five hops over eight ASes, origins prepended, paths of
/// the origin alone, and withdrawals. The t=0 table announces each
/// monitored prefix once or twice per session.
struct RandomMonitorFeed {
  std::unordered_set<Prefix> monitored;
  std::vector<BgpUpdate> rib;
  std::vector<BgpUpdate> updates;
};

RandomMonitorFeed MakeRandomMonitorFeed(std::uint64_t seed) {
  netbase::Rng rng(seed);
  constexpr const char* kMonitored[] = {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                                        "172.16.0.0/12", "192.168.4.0/24"};
  constexpr const char* kOthers[] = {"10.2.0.0/16",   "10.1.3.0/24",   "10.1.2.128/25",
                                     "10.1.2.0/26",   "172.16.5.0/24", "192.168.4.64/26",
                                     "9.0.0.0/8",     "11.0.0.0/8",    "172.0.0.0/8",
                                     "192.168.0.0/16"};
  const auto random_path = [&rng] {
    std::vector<bgp::AsNumber> hops(rng.UniformInt(1, 5));
    for (bgp::AsNumber& as : hops) as = static_cast<bgp::AsNumber>(rng.UniformInt(1, 8));
    if (rng.Bernoulli(0.2)) {
      for (std::uint64_t n = rng.UniformInt(1, 2); n > 0; --n) hops.push_back(hops.back());
    }
    return AsPath(hops);
  };
  RandomMonitorFeed out;
  for (const char* text : kMonitored) out.monitored.insert(Prefix::MustParse(text));
  for (SessionId session = 0; session < 3; ++session) {
    for (const char* text : kMonitored) {
      for (std::uint64_t n = rng.UniformInt(1, 2); n > 0; --n) {
        out.rib.push_back({SimTime{0}, session, UpdateType::kAnnounce, Prefix::MustParse(text),
                           random_path()});
      }
    }
  }
  std::vector<Prefix> prefixes;
  for (const char* text : kMonitored) prefixes.push_back(Prefix::MustParse(text));
  for (const char* text : kOthers) prefixes.push_back(Prefix::MustParse(text));
  for (std::int64_t t = 1; t <= 600; ++t) {
    const Prefix& prefix = prefixes[rng.UniformInt(0, prefixes.size() - 1)];
    const auto session = static_cast<SessionId>(rng.UniformInt(0, 3));
    if (rng.Bernoulli(0.1)) {
      out.updates.push_back({SimTime{t}, session, UpdateType::kWithdraw, prefix, {}});
    } else {
      out.updates.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix, random_path()});
    }
  }
  return out;
}

// The monitor against the reference model on seeded feeds, fed in chunks
// that alternate between ConsumeRecord and ConsumeStream; the stream
// chunks intern into the same table as they are pulled, so the table
// grows between calls, and every third chunk streams from a table of its
// own. Alerts (every field, in order), return values, suppressed
// duplicates, per-kind totals and counter deltas must all agree.
TEST(RelayMonitor, MatchesReferenceModelOnRandomFeeds) {
  std::size_t more_specific = 0, new_upstream = 0, suppressed = 0, both = 0, nested = 0,
              prepended = 0, origin_only = 0, stream_chunks = 0, record_chunks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomMonitorFeed input = MakeRandomMonitorFeed(seed);
    ReferenceMonitor model(input.monitored);
    for (const BgpUpdate& u : input.rib) model.Learn(u);

    const MonitorCounters before = MonitorCounters::Read();
    RelayMonitor monitor(input.monitored);
    auto table = std::make_shared<bgp::feed::AsPathTable>();
    if (seed % 2 == 0) {
      bgp::feed::UpdateStream rib = bgp::feed::FromVector(table, input.rib, 3);
      monitor.LearnBaselineStream(rib);
    } else {
      for (const BgpUpdate& u : input.rib) monitor.LearnRecord(bgp::feed::ToRecord(u, *table), *table);
    }
    netbase::Rng chunking(seed + 1000);
    std::size_t next = 0;
    for (std::size_t chunk = 0; next < input.updates.size(); ++chunk) {
      const std::size_t end =
          std::min(input.updates.size(), next + chunking.UniformInt(1, 40));
      const std::span<const BgpUpdate> part(input.updates.data() + next, end - next);
      std::size_t expected_raised = 0;
      for (const BgpUpdate& u : part) expected_raised += model.Consume(u).size();
      if (chunk % 2 == 0) {
        ++stream_chunks;
        auto chunk_table = chunk % 3 == 0 ? std::make_shared<bgp::feed::AsPathTable>() : table;
        bgp::feed::UpdateStream stream =
            bgp::feed::FromVector(chunk_table, part, chunking.UniformInt(1, 8));
        EXPECT_EQ(monitor.ConsumeStream(stream), expected_raised) << "seed " << seed;
      } else {
        ++record_chunks;
        std::size_t raised = 0;
        for (const BgpUpdate& u : part) {
          raised += monitor.ConsumeRecord(bgp::feed::ToRecord(u, *table), *table).size();
        }
        EXPECT_EQ(raised, expected_raised) << "seed " << seed;
      }
      ASSERT_EQ(monitor.alerts(), model.alerts_) << "seed " << seed << ", chunk " << chunk;
      next = end;
    }
    const MonitorCounters delta = MonitorCounters::Read() - before;
    EXPECT_EQ(monitor.SuppressedDuplicates(), model.suppressed_) << "seed " << seed;
    AlertCountSummary expected_counts;
    for (const Alert& alert : model.alerts_) {
      switch (alert.kind) {
        case AlertKind::kOriginChange: ++expected_counts.origin_change; break;
        case AlertKind::kMoreSpecific: ++expected_counts.more_specific; break;
        case AlertKind::kNewUpstream: ++expected_counts.new_upstream; break;
      }
    }
    EXPECT_EQ(monitor.AlertCounts().origin_change, expected_counts.origin_change);
    EXPECT_EQ(monitor.AlertCounts().more_specific, expected_counts.more_specific);
    EXPECT_EQ(monitor.AlertCounts().new_upstream, expected_counts.new_upstream);
    EXPECT_EQ(delta.consumed, input.updates.size());
    EXPECT_EQ(delta.suppressed, model.suppressed_);
    EXPECT_EQ(delta.origin_change, expected_counts.origin_change);
    EXPECT_EQ(delta.more_specific, expected_counts.more_specific);
    EXPECT_EQ(delta.new_upstream, expected_counts.new_upstream);

    more_specific += expected_counts.more_specific;
    new_upstream += expected_counts.new_upstream;
    suppressed += model.suppressed_;
    both += model.monitored_inside_monitored_;
    nested += model.inside_nested_;
    prepended += model.prepended_;
    origin_only += model.origin_only_;
  }
  // The seeds must reach every case the classification has to get right.
  EXPECT_GT(more_specific, 0u);
  EXPECT_GT(new_upstream, 0u);
  EXPECT_GT(suppressed, 0u);
  EXPECT_GT(both, 0u);
  EXPECT_GT(nested, 0u);
  EXPECT_GT(prepended, 0u);
  EXPECT_GT(origin_only, 0u);
  EXPECT_GT(stream_chunks, 0u);
  EXPECT_GT(record_chunks, 0u);
}

}  // namespace
}  // namespace quicksand::core
