#include "bgp/churn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/topology_gen.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "record_fixture.hpp"

namespace quicksand::bgp {
namespace {

using netbase::duration::kAttackDwellThreshold;
using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

BgpUpdate Withdraw(std::int64_t t, SessionId s, const char* prefix) {
  return {SimTime{t}, s, UpdateType::kWithdraw, Prefix::MustParse(prefix), {}};
}

const SessionPrefixChurn& EntryOf(const ChurnAnalyzer& analyzer, SessionId s,
                                  const char* prefix) {
  return analyzer.entries().at(SessionPrefixKey{s, Prefix::MustParse(prefix)});
}

TEST(ChurnAnalyzer, CountsPathChangesByAsSet) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2 3"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 9 3"));    // change
  fx.Feed(analyzer, Announce(200, 0, "10.0.0.0/8", "1 9 3 3"));  // prepend: no change
  fx.Feed(analyzer, Announce(300, 0, "10.0.0.0/8", "1 2 3"));    // change back
  analyzer.Finish();
  const auto& entry = EntryOf(analyzer, 0, "10.0.0.0/8");
  EXPECT_EQ(entry.path_changes, 2u);
  EXPECT_EQ(entry.announcements, 4u);
  EXPECT_EQ(entry.distinct_paths, 2u);
}

TEST(ChurnAnalyzer, WithdrawIsNotAPathChange) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2 3"));
  fx.Feed(analyzer, Withdraw(100, 0, "10.0.0.0/8"));
  fx.Feed(analyzer, Announce(200, 0, "10.0.0.0/8", "1 2 3"));  // same path again
  analyzer.Finish();
  EXPECT_EQ(EntryOf(analyzer, 0, "10.0.0.0/8").path_changes, 0u);
}

TEST(ChurnAnalyzer, ExtraAsRequiresDwellThreshold) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2 3"));
  // AS 9 appears for only 60 s: below the 5-minute threshold.
  fx.Feed(analyzer, Announce(1000, 0, "10.0.0.0/8", "1 9 3"));
  fx.Feed(analyzer, Announce(1060, 0, "10.0.0.0/8", "1 2 3"));
  // AS 7 appears for a full hour: qualifies.
  fx.Feed(analyzer, Announce(2000, 0, "10.0.0.0/8", "1 7 3"));
  fx.Feed(analyzer, Announce(2000 + 3600, 0, "10.0.0.0/8", "1 2 3"));
  analyzer.Finish();
  const auto& entry = EntryOf(analyzer, 0, "10.0.0.0/8");
  EXPECT_EQ(entry.qualifying_extra_ases, (std::vector<AsNumber>{7}));
}

TEST(ChurnAnalyzer, SubThresholdAsIsGlimpsedNotQualifying) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2 3"));
  // AS 9 on path for 60 s: a convergence-style glimpse.
  fx.Feed(analyzer, Announce(1000, 0, "10.0.0.0/8", "1 9 3"));
  fx.Feed(analyzer, Announce(1060, 0, "10.0.0.0/8", "1 2 3"));
  analyzer.Finish();
  const auto& entry = EntryOf(analyzer, 0, "10.0.0.0/8");
  EXPECT_TRUE(entry.qualifying_extra_ases.empty());
  EXPECT_EQ(entry.glimpsed_extra_ases, (std::vector<AsNumber>{9}));
}

TEST(ChurnAnalyzer, QualifyingAsIsNeverAlsoGlimpsed) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  // First a short appearance, later a long one: qualifies, not glimpsed.
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 9 2"));
  fx.Feed(analyzer, Announce(160, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(5000, 0, "10.0.0.0/8", "1 9 2"));
  fx.Feed(analyzer, Announce(5000 + 3600, 0, "10.0.0.0/8", "1 2"));
  analyzer.Finish();
  const auto& entry = EntryOf(analyzer, 0, "10.0.0.0/8");
  EXPECT_EQ(entry.qualifying_extra_ases, (std::vector<AsNumber>{9}));
  EXPECT_TRUE(entry.glimpsed_extra_ases.empty());
}

TEST(ChurnAnalyzer, GlimpsedCountPerPrefixExcludesQualified) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  // Session 0: AS 9 glimpsed; session 1: AS 9 stays long (qualifies).
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 9 2"));
  fx.Feed(analyzer, Announce(160, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(0, 1, "10.0.0.0/8", "4 2"));
  fx.Feed(analyzer, Announce(100, 1, "10.0.0.0/8", "4 9 2"));
  fx.Feed(analyzer, Announce(90000, 1, "10.0.0.0/8", "4 2"));
  // And AS 8 glimpsed on session 0 only.
  fx.Feed(analyzer, Announce(5000, 0, "10.0.0.0/8", "1 8 2"));
  fx.Feed(analyzer, Announce(5050, 0, "10.0.0.0/8", "1 2"));
  analyzer.Finish();
  const auto glimpsed = analyzer.GlimpsedAsCountPerPrefix();
  // AS 9 qualified somewhere, so only AS 8 is glimpse-only for the prefix.
  EXPECT_EQ(glimpsed.at(Prefix::MustParse("10.0.0.0/8")), 1u);
}

TEST(ChurnAnalyzer, ExtraAsAtExactThresholdQualifies) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 5 2"));
  fx.Feed(analyzer, Announce(100 + kAttackDwellThreshold, 0, "10.0.0.0/8", "1 2"));
  analyzer.Finish();
  EXPECT_EQ(EntryOf(analyzer, 0, "10.0.0.0/8").qualifying_extra_ases,
            (std::vector<AsNumber>{5}));
}

TEST(ChurnAnalyzer, BaselineAsesNeverCountAsExtra) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2 3"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 2"));       // 3 leaves
  fx.Feed(analyzer, Announce(90000, 0, "10.0.0.0/8", "1 2 3"));   // 3 returns, long
  analyzer.Finish();
  EXPECT_TRUE(EntryOf(analyzer, 0, "10.0.0.0/8").qualifying_extra_ases.empty());
}

TEST(ChurnAnalyzer, OpenIntervalClosedAtWindowEnd) {
  ChurnParams params;
  params.window_end_s = 10000;
  ChurnAnalyzer analyzer(params);
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(9000, 0, "10.0.0.0/8", "1 8 2"));  // stays until end
  analyzer.Finish();
  EXPECT_EQ(EntryOf(analyzer, 0, "10.0.0.0/8").qualifying_extra_ases,
            (std::vector<AsNumber>{8}));
}

TEST(ChurnAnalyzer, WithdrawClosesExtraAsIntervals) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 8 2"));
  fx.Feed(analyzer, Withdraw(160, 0, "10.0.0.0/8"));  // AS8 on path only 60 s
  analyzer.Finish();
  EXPECT_TRUE(EntryOf(analyzer, 0, "10.0.0.0/8").qualifying_extra_ases.empty());
}

TEST(ChurnAnalyzer, InitialRibSetsBaseline) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  const std::vector<BgpUpdate> rib = {Announce(0, 0, "10.0.0.0/8", "1 2 3")};
  fx.Feed(analyzer, rib);
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 9 3"));
  analyzer.Finish();
  EXPECT_EQ(EntryOf(analyzer, 0, "10.0.0.0/8").path_changes, 1u);
}

TEST(ChurnAnalyzer, MedianAndRatios) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  // Session 0: three prefixes with 0, 2, and 10 changes.
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(0, 0, "11.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(0, 0, "12.0.0.0/8", "1 2"));
  for (int i = 0; i < 2; ++i) {
    fx.Feed(analyzer, Announce(100 + i * 100, 0, "11.0.0.0/8",
                               i % 2 == 0 ? "1 9" : "1 2"));
  }
  for (int i = 0; i < 10; ++i) {
    fx.Feed(analyzer, Announce(1000 + i * 100, 0, "12.0.0.0/8",
                               i % 2 == 0 ? "1 9" : "1 2"));
  }
  analyzer.Finish();
  EXPECT_DOUBLE_EQ(analyzer.MedianPathChangesPerSession().at(0), 2.0);

  const std::unordered_set<Prefix> targets = {Prefix::MustParse("12.0.0.0/8")};
  const auto ratios = analyzer.RatioToSessionMedian(targets);
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(ratios[0], 5.0);
}

TEST(ChurnAnalyzer, RatiosUseEachSessionsOwnMedian) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  // Flips prefix `p` on session `s` between two sets `changes` times.
  const auto churn = [&](SessionId s, const char* p, int changes) {
    fx.Feed(analyzer, Announce(0, s, p, "1 2"));
    for (int i = 0; i < changes; ++i) {
      fx.Feed(analyzer, Announce(100 + i * 100, s, p, i % 2 == 0 ? "1 9" : "1 2"));
    }
  };
  // Session 9: changes {1, 3, 4, 8} -> median 3.5. Session 2: {0, 0, 6}
  // -> median 0, floored to 1. Session 5: {2, 2} -> median 2.
  churn(9, "10.0.0.0/8", 1);
  churn(9, "11.0.0.0/8", 3);
  churn(9, "12.0.0.0/8", 8);
  churn(9, "13.0.0.0/8", 4);
  churn(2, "10.0.0.0/8", 0);
  churn(2, "11.0.0.0/8", 6);
  churn(2, "14.0.0.0/8", 0);
  churn(5, "12.0.0.0/8", 2);
  churn(5, "14.0.0.0/8", 2);
  analyzer.Finish();

  const std::map<SessionId, double> medians = analyzer.MedianPathChangesPerSession();
  EXPECT_EQ(medians, (std::map<SessionId, double>{{2, 0.0}, {5, 2.0}, {9, 3.5}}));
  // Targets on every session; ratios come in (session, prefix) order.
  const std::unordered_set<Prefix> targets = {Prefix::MustParse("11.0.0.0/8"),
                                              Prefix::MustParse("12.0.0.0/8")};
  EXPECT_EQ(analyzer.RatioToSessionMedian(targets),
            (std::vector<double>{6.0, 1.0, 3.0 / 3.5, 8.0 / 3.5}));
  EXPECT_EQ(analyzer.RatioToSessionMedian(targets, 4.0),
            (std::vector<double>{6.0 / 4.0, 2.0 / 4.0, 3.0 / 4.0, 8.0 / 4.0}));
}

TEST(ChurnAnalyzer, RatioUsesFloorWhenMedianZero) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(100, 0, "10.0.0.0/8", "1 9"));
  fx.Feed(analyzer, Announce(200, 0, "10.0.0.0/8", "1 2"));
  analyzer.Finish();
  // Median over the single prefix is 2; with only one prefix the target
  // ratio is 1. Use a fresh case: single prefix, zero changes elsewhere.
  const std::unordered_set<Prefix> targets = {Prefix::MustParse("10.0.0.0/8")};
  const auto ratios = analyzer.RatioToSessionMedian(targets, 1.0);
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(ratios[0], 1.0);  // 2 changes / median 2
}

TEST(ChurnAnalyzer, SessionsPerPrefixAndPrefixesPerSession) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1 2"));
  fx.Feed(analyzer, Announce(0, 1, "10.0.0.0/8", "4 2"));
  fx.Feed(analyzer, Announce(0, 0, "11.0.0.0/8", "1 3"));
  analyzer.Finish();
  EXPECT_EQ(analyzer.SessionsPerPrefix().at(Prefix::MustParse("10.0.0.0/8")), 2u);
  EXPECT_EQ(analyzer.SessionsPerPrefix().at(Prefix::MustParse("11.0.0.0/8")), 1u);
}

TEST(ChurnAnalyzer, LifecycleEnforced) {
  ChurnAnalyzer analyzer;
  test::RecordFixture fx;
  EXPECT_THROW((void)analyzer.entries(), std::logic_error);
  analyzer.Finish();
  EXPECT_THROW(fx.Feed(analyzer, Announce(0, 0, "10.0.0.0/8", "1")), std::logic_error);
  EXPECT_NO_THROW(analyzer.Finish());  // idempotent
}

// ---------------------------------------------------------------------------
// Differential and golden checks of the analyzer as a whole.

/// Current values of the analyzer's three seeded counters.
struct ChurnCounters {
  std::uint64_t consumed = 0;
  std::uint64_t hits = 0;
  std::uint64_t dropped = 0;

  static ChurnCounters Read() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return {registry.GetCounter("bgp.churn.updates_consumed").value(),
            registry.GetCounter("bgp.churn.path_set_cache_hits").value(),
            registry.GetCounter("bgp.churn.dropped_out_of_order").value()};
  }
  ChurnCounters operator-(const ChurnCounters& before) const {
    return {consumed - before.consumed, hits - before.hits, dropped - before.dropped};
  }
};

/// The Section 4 definitions written the plain way: ordered containers per
/// (session, prefix), AS sets as std::set, path-set cache hits keyed on the
/// hop sequence. It also counts how often the feed exercised the cases the
/// differential test is meant to cover.
class ReferenceModel {
 public:
  explicit ReferenceModel(const ChurnParams& params) : params_(params) {}

  void Consume(const BgpUpdate& u) {
    ++consumed_;
    Key& key = keys_[{u.session, u.prefix}];
    const std::int64_t now = u.time.seconds;
    if (now < key.last_time) {
      ++dropped_;
      return;
    }
    key.last_time = now;
    if (u.type == UpdateType::kWithdraw) {
      Close(key, now, nullptr);
      key.withdrawn = true;
      return;
    }
    if (!seen_.emplace(u.session, u.path.hops()).second) ++session_hits_;
    if (!seen_anywhere_.insert(u.path.hops()).second) ++analyzer_hits_;
    const std::set<AsNumber> set(u.path.hops().begin(), u.path.hops().end());
    if (key.withdrawn && key.has_baseline && set == key.last &&
        std::any_of(set.begin(), set.end(),
                    [&key](AsNumber as) { return !key.baseline.contains(as); })) {
      ++reannounced_with_extras_;
    }
    ++key.announcements;
    key.sets.insert(set);
    if (!key.has_baseline) {
      key.has_baseline = true;
      key.baseline = set;
    } else if (set != key.last) {
      ++key.changes;
    }
    Close(key, now, &set);
    for (const AsNumber as : set) {
      if (!key.baseline.contains(as)) key.open.emplace(as, now);
    }
    key.last = set;
    key.withdrawn = false;
  }

  std::vector<test::ChurnRow> Finish() {
    std::vector<test::ChurnRow> rows;
    for (auto& [id, key] : keys_) {
      Close(key, params_.window_end_s, nullptr);
      std::vector<AsNumber> glimpsed;
      for (const AsNumber as : key.glimpsed) {
        if (key.qualifying.contains(as)) {
          ++glimpsed_then_qualified_;
        } else {
          glimpsed.push_back(as);
        }
      }
      rows.emplace_back(id.first, id.second, key.announcements, key.changes,
                        key.sets.size(),
                        std::vector<AsNumber>(key.qualifying.begin(), key.qualifying.end()),
                        glimpsed);
    }
    return rows;
  }

  std::size_t consumed_ = 0;
  std::size_t dropped_ = 0;
  std::size_t session_hits_ = 0;   // seen-path sets per session (AnalyzeChurnStream)
  std::size_t analyzer_hits_ = 0;  // one seen-path set (serial ConsumeRecord)
  std::size_t exact_dwell_closes_ = 0;
  std::size_t reannounced_with_extras_ = 0;  // the withdrawn set, off the baseline, back
  std::size_t glimpsed_then_qualified_ = 0;

 private:
  struct Key {
    bool has_baseline = false;
    bool withdrawn = true;
    std::int64_t last_time = std::numeric_limits<std::int64_t>::min();
    std::set<AsNumber> baseline;
    std::set<AsNumber> last;
    std::map<AsNumber, std::int64_t> open;
    std::set<AsNumber> qualifying;
    std::set<AsNumber> glimpsed;
    std::set<std::set<AsNumber>> sets;
    std::size_t announcements = 0;
    std::size_t changes = 0;
  };

  void Close(Key& key, std::int64_t now, const std::set<AsNumber>* keep) {
    for (auto it = key.open.begin(); it != key.open.end();) {
      if (keep != nullptr && keep->contains(it->first)) {
        ++it;
        continue;
      }
      const std::int64_t dwell = now - it->second;
      if (dwell == params_.dwell_threshold_s) ++exact_dwell_closes_;
      (dwell >= params_.dwell_threshold_s ? key.qualifying : key.glimpsed).insert(it->first);
      it = key.open.erase(it);
    }
  }

  ChurnParams params_;
  std::map<std::pair<SessionId, Prefix>, Key> keys_;
  std::set<std::pair<SessionId, std::vector<AsNumber>>> seen_;
  std::set<std::vector<AsNumber>> seen_anywhere_;
};

struct RandomFeed {
  std::vector<BgpUpdate> rib;
  std::vector<BgpUpdate> updates;
  ChurnParams params;
};

/// A seeded feed over four sessions with skewed, unordered ids and five
/// prefixes. Each (session, prefix) walks its own clock in steps that land
/// on, just below and just above the dwell threshold, announcing paths
/// over nine ASes (with prepends) or withdrawing, and after a withdrawal
/// often re-announcing the withdrawn path; the walks are merged by time,
/// and a few records are then pushed back in time so that some arrive out
/// of order for their key.
RandomFeed MakeRandomFeed(std::uint64_t seed) {
  netbase::Rng rng(seed);
  constexpr SessionId kSessions[] = {7, 3, 1'000'000'007u, 42};
  constexpr const char* kPrefixes[] = {"10.0.0.0/8", "10.0.0.0/9", "10.1.0.0/16",
                                       "172.16.0.0/12", "192.168.4.0/24"};
  constexpr std::int64_t kSteps[] = {0, 1, 299, 300, 301, 900};
  const auto random_path = [&rng] {
    std::vector<AsNumber> hops(rng.UniformInt(1, 5));
    for (AsNumber& as : hops) as = static_cast<AsNumber>(rng.UniformInt(1, 9));
    if (rng.Bernoulli(0.2)) hops.push_back(hops.back());  // prepend
    return AsPath(hops);
  };
  RandomFeed out;
  std::int64_t last_time = 0;
  for (const SessionId session : kSessions) {
    for (const char* text : kPrefixes) {
      if (rng.Bernoulli(0.15)) continue;  // this session never sees the prefix
      const Prefix prefix = Prefix::MustParse(text);
      AsPath baseline = random_path();
      if (rng.Bernoulli(0.85)) {
        out.rib.push_back({SimTime{0}, session, UpdateType::kAnnounce, prefix, baseline});
      }
      std::int64_t t = 0;
      AsPath last = baseline;
      bool withdrawn = false;
      for (std::uint64_t n = rng.UniformInt(4, 40); n > 0; --n) {
        t += kSteps[rng.UniformInt(0, std::size(kSteps) - 1)];
        const double kind = rng.UniformDouble();
        if (kind < 0.15) {
          out.updates.push_back({SimTime{t}, session, UpdateType::kWithdraw, prefix, {}});
          withdrawn = true;
        } else {
          if (!withdrawn || !rng.Bernoulli(0.5)) {
            last = kind < 0.35 ? baseline : random_path();
          }
          out.updates.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix, last});
          withdrawn = false;
        }
        last_time = std::max(last_time, t);
      }
    }
  }
  std::stable_sort(out.updates.begin(), out.updates.end(),
                   [](const BgpUpdate& a, const BgpUpdate& b) { return a.time < b.time; });
  for (BgpUpdate& u : out.updates) {
    if (rng.Bernoulli(0.04)) {
      u.time.seconds = std::max<std::int64_t>(0, u.time.seconds -
                                                     static_cast<std::int64_t>(
                                                         rng.UniformInt(1, 600)));
    }
  }
  out.params.window_end_s = last_time + static_cast<std::int64_t>(rng.UniformInt(0, 600));
  return out;
}

TEST(ChurnAnalyzer, MatchesReferenceModelOnRandomFeeds) {
  std::size_t dropped = 0, exact_dwell = 0, reannounced = 0, glimpsed_then_qualified = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RandomFeed input = MakeRandomFeed(seed);
    ReferenceModel model(input.params);
    for (const BgpUpdate& u : input.rib) model.Consume(u);
    for (const BgpUpdate& u : input.updates) model.Consume(u);
    const std::vector<test::ChurnRow> expected = model.Finish();
    dropped += model.dropped_;
    exact_dwell += model.exact_dwell_closes_;
    reannounced += model.reannounced_with_extras_;
    glimpsed_then_qualified += model.glimpsed_then_qualified_;

    // Serial consumption: one analyzer, one seen-path set.
    {
      ChurnAnalyzer serial(input.params);
      test::RecordFixture fx;
      const ChurnCounters before = ChurnCounters::Read();
      fx.Feed(serial, input.rib);
      fx.Feed(serial, input.updates);
      serial.Finish();
      const ChurnCounters delta = ChurnCounters::Read() - before;
      EXPECT_EQ(test::ChurnRows(serial), expected) << "seed " << seed;
      EXPECT_EQ(serial.DroppedOutOfOrder(), model.dropped_);
      EXPECT_EQ(delta.consumed, model.consumed_);
      EXPECT_EQ(delta.hits, model.analyzer_hits_);
      EXPECT_EQ(delta.dropped, model.dropped_);
    }

    // The batch entry point: per-session seen-path sets, any thread count
    // and batch size, shared or separate tables with skewed id spaces.
    for (const bool shared_table : {true, false}) {
      for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t batch : {1u, 7u, 4096u}) {
          auto rib_table = std::make_shared<feed::AsPathTable>();
          auto update_table = rib_table;
          if (!shared_table) {
            update_table = std::make_shared<feed::AsPathTable>();
            for (AsNumber skew = 100; skew < 103; ++skew) {
              (void)update_table->Intern(AsPath{skew, skew});
            }
          }
          const ChurnCounters before = ChurnCounters::Read();
          const ChurnAnalyzer streamed = AnalyzeChurnStream(
              feed::FromVector(rib_table, input.rib, batch),
              feed::FromVector(update_table, input.updates, batch), input.params, threads);
          const ChurnCounters delta = ChurnCounters::Read() - before;
          const std::string where = "seed " + std::to_string(seed) + ", shared table " +
                                    std::to_string(shared_table) + ", threads " +
                                    std::to_string(threads) + ", batch " +
                                    std::to_string(batch);
          EXPECT_EQ(test::ChurnRows(streamed), expected) << where;
          EXPECT_EQ(streamed.DroppedOutOfOrder(), model.dropped_) << where;
          EXPECT_EQ(delta.consumed, model.consumed_) << where;
          EXPECT_EQ(delta.hits, model.session_hits_) << where;
          EXPECT_EQ(delta.dropped, model.dropped_) << where;
        }
      }
    }
  }
  // The seeds must actually reach the cases the layout has to get right.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(exact_dwell, 0u);
  EXPECT_GT(reannounced, 0u);
  EXPECT_GT(glimpsed_then_qualified, 0u);
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

void Fold(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

// The paper month's filtered feed (paper topology, collector and dynamics
// seeds, sanitized as Fig. 3 left does) through AnalyzeChurnStream: every
// entry, the drop count and both seeded counters, folded into one FNV-1a
// digest of little-endian 64-bit fields. The constants were produced by
// the std::map/unordered-set analyzer the flat layout replaced (commit
// e06f442), built RelWithDebInfo with gcc 12.
TEST(ChurnAnalyzer, GoldenDigestOfThePaperMonth) {
  TopologyParams tp;
  tp.seed = 20140501;
  const Topology topology = GenerateTopology(tp);
  CollectorParams cp;
  cp.seed = 20140502;
  const CollectorSet collectors = CollectorSet::Create(topology, cp);
  DynamicsParams dp;
  dp.seed = 20140502;
  dp.threads = 4;
  const GeneratedDynamics month = GenerateDynamics(topology, collectors, dp);

  auto table = std::make_shared<feed::AsPathTable>();
  std::vector<feed::UpdateRec> rib;
  std::vector<feed::UpdateRec> updates;
  for (const BgpUpdate& u : month.initial_rib) rib.push_back(feed::ToRecord(u, *table));
  for (const BgpUpdate& u : month.updates) updates.push_back(feed::ToRecord(u, *table));
  SanitizedRecords clean = SanitizeRecords(rib, std::move(updates));

  const ChurnCounters before = ChurnCounters::Read();
  const ChurnAnalyzer analyzer =
      AnalyzeChurnStream(feed::FromRecords(table, std::move(rib)),
                         feed::FromRecords(table, std::move(clean.updates)), {}, 4);
  const ChurnCounters delta = ChurnCounters::Read() - before;

  std::uint64_t digest = kFnvOffset;
  for (const auto& [key, churn] : analyzer.entries()) {
    Fold(digest, key.session);
    Fold(digest, key.prefix.network().value());
    Fold(digest, static_cast<std::uint64_t>(key.prefix.length()));
    Fold(digest, churn.announcements);
    Fold(digest, churn.path_changes);
    Fold(digest, churn.distinct_paths);
    Fold(digest, churn.qualifying_extra_ases.size());
    for (const AsNumber as : churn.qualifying_extra_ases) Fold(digest, as);
    Fold(digest, churn.glimpsed_extra_ases.size());
    for (const AsNumber as : churn.glimpsed_extra_ases) Fold(digest, as);
  }
  Fold(digest, analyzer.DroppedOutOfOrder());
  Fold(digest, delta.consumed);
  Fold(digest, delta.hits);
  Fold(digest, delta.dropped);

  EXPECT_EQ(analyzer.entries().size(), 54'025u);
  EXPECT_EQ(delta.consumed, 868'352u);
  EXPECT_EQ(delta.hits, 690'997u);
  EXPECT_EQ(analyzer.DroppedOutOfOrder(), 0u);
  EXPECT_EQ(digest, 0x0F535874B4CF349DULL);
}

}  // namespace
}  // namespace quicksand::bgp
