// End-to-end integration of the full measurement pipeline at reduced scale:
// topology -> consensus -> Tor prefixes -> month of BGP dynamics ->
// session-reset filtering -> churn analysis -> the paper's metrics, plus
// attack + countermeasure round trips across library boundaries.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/hijack.hpp"
#include "bgp/session_reset.hpp"
#include "bgp/topology_gen.hpp"
#include "bgp/mrt.hpp"
#include "core/advisor.hpp"
#include "core/attack_analysis.hpp"
#include "core/exposure.hpp"
#include "core/monitor.hpp"
#include "record_fixture.hpp"
#include "tor/as_aware_selection.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/path_selection.hpp"
#include "tor/prefix_map.hpp"

namespace quicksand {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bgp::TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 20;
    tp.eyeball_count = 30;
    tp.hosting_count = 12;
    tp.content_count = 20;
    tp.seed = 404;
    topo_ = new bgp::Topology(bgp::GenerateTopology(tp));

    bgp::CollectorParams cp;
    cp.collector_count = 3;
    cp.sessions_per_collector = 8;
    cp.seed = 405;
    collectors_ = new bgp::CollectorSet(bgp::CollectorSet::Create(*topo_, cp));

    tor::ConsensusGenParams gp;
    gp.total_relays = 700;
    gp.guard_only = 230;
    gp.exit_only = 70;
    gp.guard_exit = 60;
    gp.seed = 406;
    consensus_ = new tor::GeneratedConsensus(tor::GenerateConsensus(*topo_, gp));

    bgp::DynamicsParams dp;
    dp.window = 7 * netbase::duration::kDay;
    dp.seed = 407;
    dynamics_ = new bgp::GeneratedDynamics(
        bgp::GenerateDynamics(*topo_, *collectors_, dp));
  }

  static void TearDownTestSuite() {
    delete dynamics_;
    delete consensus_;
    delete collectors_;
    delete topo_;
    dynamics_ = nullptr;
    consensus_ = nullptr;
    collectors_ = nullptr;
    topo_ = nullptr;
  }

  static bgp::Topology* topo_;
  static bgp::CollectorSet* collectors_;
  static tor::GeneratedConsensus* consensus_;
  static bgp::GeneratedDynamics* dynamics_;
};

bgp::Topology* PipelineTest::topo_ = nullptr;
bgp::CollectorSet* PipelineTest::collectors_ = nullptr;
tor::GeneratedConsensus* PipelineTest::consensus_ = nullptr;
bgp::GeneratedDynamics* PipelineTest::dynamics_ = nullptr;

TEST_F(PipelineTest, TorPrefixIdentificationWorksOnGeneratedData) {
  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  EXPECT_EQ(map.unmapped(), 0u);
  const auto tor_prefixes = map.TorPrefixes(consensus_->consensus);
  EXPECT_GT(tor_prefixes.size(), 20u);
  // Tor prefixes are a strict subset of announced prefixes.
  EXPECT_LT(tor_prefixes.size(), topo_->prefix_origins.size());
}

TEST_F(PipelineTest, FilterThenChurnProducesTheFigure3Inputs) {
  test::RecordFixture fx;
  const std::vector<bgp::feed::UpdateRec> rib = fx.Recs(dynamics_->initial_rib);
  const auto filtered = bgp::FilterSessionRecords(rib, fx.Recs(dynamics_->updates));
  EXPECT_LE(filtered.updates.size(), dynamics_->updates.size());

  bgp::ChurnParams churn_params;
  churn_params.window_end_s = 7 * netbase::duration::kDay;
  bgp::ChurnAnalyzer analyzer(churn_params);
  for (const bgp::feed::UpdateRec& rec : rib) analyzer.ConsumeRecord(rec, *fx.table());
  for (const bgp::feed::UpdateRec& rec : filtered.updates) {
    analyzer.ConsumeRecord(rec, *fx.table());
  }
  analyzer.Finish();

  // Every session observed something.
  std::set<bgp::SessionId> sessions;
  for (const auto& entry : analyzer.entries()) sessions.insert(entry.first.session);
  EXPECT_EQ(sessions.size(), collectors_->SessionCount());

  // Ratio-to-median series exists for Tor prefixes.
  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  const auto ratios = analyzer.RatioToSessionMedian(map.TorPrefixes(consensus_->consensus));
  EXPECT_FALSE(ratios.empty());
}

TEST_F(PipelineTest, FilteringReducesArtifactsWithoutLosingRealChanges) {
  bgp::DynamicsParams no_resets;
  no_resets.window = 7 * netbase::duration::kDay;
  no_resets.seed = 407;
  no_resets.session_resets_per_month = 0;
  const auto clean = bgp::GenerateDynamics(*topo_, *collectors_, no_resets);
  test::RecordFixture fx;
  const std::vector<bgp::feed::UpdateRec> rib = fx.Recs(clean.initial_rib);
  const auto filtered_clean = bgp::FilterSessionRecords(rib, fx.Recs(clean.updates));
  // On a reset-free stream the filter is (almost) a no-op.
  EXPECT_EQ(filtered_clean.stats.bursts_detected, 0u);
  EXPECT_GT(static_cast<double>(filtered_clean.updates.size()),
            0.9 * static_cast<double>(clean.updates.size()));
}

TEST_F(PipelineTest, MonitorCatchesAttackAgainstTorPrefixButNotBenignChurn) {
  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  const auto tor_prefixes = map.TorPrefixes(consensus_->consensus);

  core::RelayMonitor monitor(tor_prefixes);
  test::RecordFixture fx;
  fx.FeedBaseline(monitor, dynamics_->initial_rib);

  // Benign stream: origin changes never occur in generated dynamics, so
  // only (rare, aggressive-by-design) new-upstream alerts may fire; no
  // origin-change or more-specific alerts.
  for (const bgp::BgpUpdate& update : dynamics_->updates) {
    for (const core::Alert& alert : fx.Feed(monitor, update)) {
      EXPECT_NE(alert.kind, core::AlertKind::kOriginChange);
      EXPECT_NE(alert.kind, core::AlertKind::kMoreSpecific);
    }
  }

  // Attack stream: a hijacker announcing a Tor prefix trips the monitor.
  const netbase::Prefix victim_prefix = *tor_prefixes.begin();
  const bgp::BgpUpdate bogus = {netbase::SimTime{1000}, 0, bgp::UpdateType::kAnnounce,
                                victim_prefix, bgp::AsPath{64512, 64666}};
  const auto alerts = fx.Feed(monitor, bogus);
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].kind, core::AlertKind::kOriginChange);
}

TEST_F(PipelineTest, HijackOnRealGuardPrefixNarrowsAnonymitySet) {
  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  // Find a guard relay and its covering prefix + origin.
  const auto& relays = consensus_->consensus.relays();
  std::size_t guard_index = relays.size();
  for (std::size_t i = 0; i < relays.size(); ++i) {
    if (relays[i].IsGuard() && map.PrefixOfRelay(i)) {
      guard_index = i;
      break;
    }
  }
  ASSERT_LT(guard_index, relays.size());

  bgp::AttackSpec spec;
  spec.victim = map.OriginOfRelay(guard_index);
  spec.attacker = topo_->transits.front() == spec.victim ? topo_->transits.back()
                                                         : topo_->transits.front();
  spec.victim_prefix = *map.PrefixOfRelay(guard_index);
  const auto result = core::AnalyzeHijack(topo_->graph, spec, topo_->eyeballs);
  EXPECT_GT(result.clients_observed, 0u);
  EXPECT_LE(result.clients_observed, result.clients_total);
}

TEST_F(PipelineTest, AsAwareSelectionBlocksSharedAsCircuits) {
  // Build the countermeasure from real path computations, then verify the
  // constraint holds on every produced circuit.
  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  core::ExposureAnalyzer analyzer(topo_->graph);
  const bgp::AsNumber client_as = topo_->eyeballs.front();
  const bgp::AsNumber dest_as = topo_->contents.front();

  const tor::PathSelector selector(consensus_->consensus);
  tor::SegmentAsSets guard_side, exit_side;
  for (std::size_t guard : selector.GuardCandidates()) {
    const bgp::AsNumber guard_as = map.OriginOfRelay(guard);
    if (guard_as == 0) continue;
    auto ases = analyzer.ForwardPathAses(client_as, guard_as);
    const auto reverse = analyzer.ForwardPathAses(guard_as, client_as);
    ases.insert(ases.end(), reverse.begin(), reverse.end());
    guard_side[guard] = std::move(ases);
  }
  for (std::size_t exit : selector.ExitCandidates()) {
    const bgp::AsNumber exit_as = map.OriginOfRelay(exit);
    if (exit_as == 0) continue;
    auto ases = analyzer.ForwardPathAses(exit_as, dest_as);
    const auto reverse = analyzer.ForwardPathAses(dest_as, exit_as);
    ases.insert(ases.end(), reverse.begin(), reverse.end());
    exit_side[exit] = std::move(ases);
  }
  const tor::AsAwareConstraint constraint(guard_side, exit_side);

  netbase::Rng rng(99);
  std::vector<std::size_t> guards;
  try {
    guards = selector.PickGuardSet(rng, {}, &constraint);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "constraint too strict for this tiny consensus";
  }
  for (int i = 0; i < 40; ++i) {
    tor::Circuit circuit;
    try {
      circuit = selector.BuildCircuit(guards, rng, &constraint);
    } catch (const std::runtime_error&) {
      continue;  // occasionally no compatible exit: acceptable
    }
    // The produced circuit's segments share no AS.
    const auto& g = guard_side.at(circuit.guard);
    const auto& e = exit_side.at(circuit.exit);
    for (bgp::AsNumber as : g) {
      EXPECT_EQ(std::count(e.begin(), e.end(), as), 0)
          << "AS" << as << " observes both segments";
    }
  }
}

TEST_F(PipelineTest, MrtArchiveRoundTripsTheWholeMonth) {
  // Serialize the full generated stream to the text format and back:
  // byte-identical measurement inputs (what an offline analysis of an
  // archived dump would consume).
  const std::string text = bgp::mrt::ToText(dynamics_->updates);
  const auto replayed = bgp::mrt::ParseText(text);
  ASSERT_EQ(replayed.size(), dynamics_->updates.size());
  EXPECT_EQ(replayed, dynamics_->updates);
}

TEST_F(PipelineTest, AdvisorPipelineProducesActionableWeights) {
  // Full defender loop: stream -> filter -> churn + monitor -> advisor ->
  // weights that PickGuardSet accepts and that zero out attacked prefixes.
  test::RecordFixture fx;
  const std::vector<bgp::feed::UpdateRec> rib = fx.Recs(dynamics_->initial_rib);
  const auto filtered = bgp::FilterSessionRecords(rib, fx.Recs(dynamics_->updates));
  bgp::ChurnParams churn_params;
  churn_params.window_end_s = 7 * netbase::duration::kDay;
  bgp::ChurnAnalyzer churn(churn_params);
  const auto tor_prefixes =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins)
          .TorPrefixes(consensus_->consensus);
  core::RelayMonitor monitor(tor_prefixes);
  for (const bgp::feed::UpdateRec& rec : rib) {
    churn.ConsumeRecord(rec, *fx.table());
    monitor.LearnRecord(rec, *fx.table());
  }
  for (const bgp::feed::UpdateRec& rec : filtered.updates) {
    churn.ConsumeRecord(rec, *fx.table());
    (void)monitor.ConsumeRecord(rec, *fx.table());
  }
  churn.Finish();
  // Inject one hijack against a monitored prefix.
  const netbase::Prefix victim = *tor_prefixes.begin();
  (void)fx.Feed(monitor, {netbase::SimTime{5000}, 0, bgp::UpdateType::kAnnounce,
                          victim, bgp::AsPath{64512, 64666}});

  const tor::TorPrefixMap map =
      tor::TorPrefixMap::Build(consensus_->consensus, topo_->prefix_origins);
  core::RelayAdvisor advisor;
  advisor.IngestChurn(churn);
  advisor.IngestAlerts(monitor.alerts());
  const auto weights = advisor.GuardWeightMultipliers(consensus_->consensus, map);
  ASSERT_EQ(weights.size(), consensus_->consensus.size());

  // Relays inside the attacked prefix carry zero weight; at least one
  // other relay keeps positive weight so selection still works.
  bool saw_attacked = false, saw_clean = false;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const auto prefix = map.PrefixOfRelay(i);
    if (prefix && *prefix == victim) {
      EXPECT_DOUBLE_EQ(weights[i], 0.0);
      saw_attacked = true;
    }
    if (weights[i] > 0) saw_clean = true;
  }
  EXPECT_TRUE(saw_attacked);
  EXPECT_TRUE(saw_clean);

  // The weights plug straight into guard selection and never pick an
  // attacked-prefix guard.
  const tor::PathSelector selector(consensus_->consensus);
  netbase::Rng rng(77);
  const auto guards = selector.PickGuardSet(rng, weights);
  for (std::size_t guard : guards) {
    const auto prefix = map.PrefixOfRelay(guard);
    EXPECT_TRUE(!prefix || *prefix != victim);
  }
}

TEST_F(PipelineTest, RibReplayAgreesWithChurnVisibility) {
  // Replaying the initial tables and the month's updates per session leaves
  // the (session, prefix) pairs still announced at the end; the churn
  // analyzer must have observed every one of them on that session.
  std::set<bgp::SessionPrefixKey> held;
  for (const std::vector<bgp::BgpUpdate>* stream :
       {&dynamics_->initial_rib, &dynamics_->updates}) {
    for (const bgp::BgpUpdate& update : *stream) {
      ASSERT_LT(update.session, collectors_->SessionCount());
      const bgp::SessionPrefixKey key{update.session, update.prefix};
      if (update.type == bgp::UpdateType::kAnnounce) {
        held.insert(key);
      } else {
        held.erase(key);
      }
    }
  }
  ASSERT_FALSE(held.empty());
  bgp::ChurnAnalyzer churn;
  test::RecordFixture fx;
  fx.Feed(churn, dynamics_->initial_rib);
  fx.Feed(churn, dynamics_->updates);
  churn.Finish();
  for (const bgp::SessionPrefixKey& key : held) {
    EXPECT_TRUE(churn.entries().contains(key))
        << "session " << key.session << " holds " << key.prefix.ToString()
        << " that churn never saw";
  }
}

}  // namespace
}  // namespace quicksand
