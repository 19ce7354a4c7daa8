// Section 5 — countermeasures:
//  (1) relay selection that avoids ASes able to observe both segments,
//      comparing prior work's static snapshot defence against the paper's
//      dynamics-aware variant (and the shorter-AS-PATH guard preference);
//  (2) real-time control-plane monitoring of Tor prefixes, with detection
//      rates per attack variant and the false-alarm cost of aggressive
//      detection on a benign month of churn.

#include <algorithm>
#include <iostream>
#include <map>

#include "bgp/churn.hpp"
#include "bgp/session_reset.hpp"
#include "ckpt/sweep.hpp"
#include "common.hpp"
#include "core/advisor.hpp"
#include "core/attack_analysis.hpp"
#include "core/exposure.hpp"
#include "core/monitor.hpp"
#include "exec/parallel.hpp"
#include "tor/as_aware_selection.hpp"
#include "tor/path_selection.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace quicksand;

std::vector<bgp::AsNumber> UnionPath(core::ExposureAnalyzer& analyzer,
                                     bgp::AsNumber a, bgp::AsNumber b,
                                     std::size_t variants, std::uint64_t seed) {
  const core::SegmentExposure exposure =
      analyzer.TemporalExposure(a, b, a, b, variants, seed);
  std::vector<bgp::AsNumber> all = exposure.client_to_guard;
  all.insert(all.end(), exposure.guard_to_client.begin(),
             exposure.guard_to_client.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

bool Intersects(const std::vector<bgp::AsNumber>& sorted_a,
                const std::vector<bgp::AsNumber>& sorted_b) {
  std::size_t i = 0, j = 0;
  while (i < sorted_a.size() && j < sorted_b.size()) {
    if (sorted_a[i] == sorted_b[j]) return true;
    if (sorted_a[i] < sorted_b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(
      argc, argv, "Section 5 — countermeasures",
      "dynamics-aware AS-avoiding relay selection; aggressive control-plane "
      "monitoring (false positives acceptable); short AS-PATH preference");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const tor::Consensus& consensus = scenario.consensus.consensus;
  const tor::PathSelector selector(consensus);

  // Advisory weights from a measured month (the paper's proposed relay-
  // published AS-list service): churn + monitor findings -> per-guard
  // weight multipliers. The same month is the monitor's benign month in
  // Part 2.
  const bgp::GeneratedDynamics month =
      ctx.Timed("advisory_dynamics", [&] { return bench::MakeMonthOfDynamics(scenario, ctx.threads()); });
  // The monitor reads the RIB and the filtered month (one table) record by
  // record; the batch churn analyzer then takes both on the bench's threads.
  const std::vector<double> advisory_weights = ctx.Timed("advisory_analysis", [&] {
    auto advisory_table = std::make_shared<bgp::feed::AsPathTable>();
    std::vector<bgp::feed::UpdateRec> advisory_rib =
        bgp::feed::InternRecords(*advisory_table, month.initial_rib);
    bgp::FilteredRecords advisory_filtered = bgp::FilterSessionRecords(
        advisory_rib, bgp::feed::InternRecords(*advisory_table, month.updates));
    core::RelayMonitor advisory_monitor(
        scenario.prefix_map.TorPrefixes(consensus));
    for (const bgp::feed::UpdateRec& rec : advisory_rib) {
      advisory_monitor.LearnRecord(rec, *advisory_table);
    }
    for (const bgp::feed::UpdateRec& rec : advisory_filtered.updates) {
      (void)advisory_monitor.ConsumeRecord(rec, *advisory_table);
    }
    const bgp::ChurnAnalyzer advisory_churn = bgp::AnalyzeChurnStream(
        bgp::feed::FromRecords(advisory_table, std::move(advisory_rib)),
        bgp::feed::FromRecords(advisory_table, std::move(advisory_filtered.updates)), {},
        ctx.threads());
    core::RelayAdvisor advisor;
    advisor.IngestChurn(advisory_churn);
    advisor.IngestAlerts(advisory_monitor.alerts());
    return advisor.GuardWeightMultipliers(consensus, scenario.prefix_map);
  });

  // ---------- Part 1: relay-selection policies ----------
  constexpr std::size_t kVariantsDefenseKnows = 10;  // month of dynamics
  constexpr std::size_t kVariantsSnapshot = 0;
  constexpr std::size_t kPairs = 10;
  constexpr int kCircuitsPerPair = 40;

  util::Table policy_table({"selection policy", "compromised circuits",
                            "mean observers per circuit"});
  util::CsvWriter csv("sec5_policies.csv",
                      {"policy", "pair", "compromised_fraction", "mean_observers"});

  struct PolicyStats {
    std::vector<double> compromised;
    std::vector<double> observers;
  };
  std::map<std::string, PolicyStats> stats;

  // One task per (client, destination) pair: each pair builds its own
  // exposure analyzer (whose route cache then holds just that pair's
  // states) and draws from its own seeded Rng, so pairs share nothing
  // mutable and run concurrently; rows are merged in pair order
  // afterwards. Each pair is also one checkpoint shard, so a killed
  // evaluation resumes at the first unevaluated pair.
  struct PairRow {
    std::string policy;
    double fraction = 0;
    double mean_observers = 0;
  };
  const ckpt::StageOptions eval_stage = ctx.Stage("policy_eval", kPairs);
  const std::vector<std::vector<PairRow>> pair_rows =
      ctx.Timed("policy_eval", [&] {
        return ckpt::CheckpointedMap(
            eval_stage, ctx.threads(), kPairs,
            [&](std::size_t pair) {
              std::vector<PairRow> rows;
    core::ExposureAnalyzer analyzer(scenario.topology.graph, scenario.topology.policy_salts);
    const bgp::AsNumber client =
        scenario.topology.eyeballs[pair * 7 % scenario.topology.eyeballs.size()];
    const bgp::AsNumber dest =
        scenario.topology.contents[pair * 11 % scenario.topology.contents.size()];

    // Segment AS sets per relay: snapshot (what prior work knows) and
    // monthly (what the paper's defence and the evaluation use).
    tor::SegmentAsSets guard_snapshot, guard_monthly, exit_snapshot, exit_monthly;
    std::unordered_map<std::size_t, int> guard_path_lengths;
    // Exposure sets depend only on the relay's host AS: compute once per
    // (far end, AS) and share across the relays inside that AS.
    struct AsSets {
      std::vector<bgp::AsNumber> snapshot;
      std::vector<bgp::AsNumber> monthly;
      int path_length = 0;
    };
    std::unordered_map<bgp::AsNumber, AsSets> by_as;
    auto fill = [&](std::span<const std::size_t> candidates, bool guard_side) {
      by_as.clear();
      for (std::size_t relay : candidates) {
        const bgp::AsNumber relay_as = scenario.prefix_map.OriginOfRelay(relay);
        if (relay_as == 0) continue;
        const bgp::AsNumber far_end = guard_side ? client : dest;
        auto it = by_as.find(relay_as);
        if (it == by_as.end()) {
          const std::uint64_t seed = 777 + relay_as;
          AsSets sets;
          sets.snapshot = UnionPath(analyzer, far_end, relay_as, kVariantsSnapshot, seed);
          sets.monthly =
              UnionPath(analyzer, far_end, relay_as, kVariantsDefenseKnows, seed);
          sets.path_length = analyzer.ForwardPathLength(far_end, relay_as);
          it = by_as.emplace(relay_as, std::move(sets)).first;
        }
        if (guard_side) {
          guard_path_lengths[relay] = it->second.path_length;
          guard_snapshot[relay] = it->second.snapshot;
          guard_monthly[relay] = it->second.monthly;
        } else {
          exit_snapshot[relay] = it->second.snapshot;
          exit_monthly[relay] = it->second.monthly;
        }
      }
    };
    fill(selector.GuardCandidates(), true);
    fill(selector.ExitCandidates(), false);

    const tor::AsAwareConstraint static_defense(guard_snapshot, exit_snapshot);
    const tor::AsAwareConstraint dynamic_defense(guard_monthly, exit_monthly);
    const auto short_path_weights =
        tor::ShortAsPathGuardWeights(consensus, guard_path_lengths, 2.0);

    struct Policy {
      std::string name;
      const tor::CircuitConstraint* constraint;
      std::span<const double> guard_weights;
    };
    const Policy policies[] = {
        {"vanilla Tor (bandwidth only)", nullptr, {}},
        {"static AS-aware (prior work)", &static_defense, {}},
        {"dynamics-aware (this paper)", &dynamic_defense, {}},
        {"short AS-PATH guard preference", nullptr, short_path_weights},
        {"advisory-weighted guards (monitor+churn)", nullptr, advisory_weights},
    };

    for (const Policy& policy : policies) {
      netbase::Rng rng(31000 + pair);
      std::size_t compromised = 0, built = 0;
      double observers = 0;
      std::vector<std::size_t> guards;
      try {
        guards = selector.PickGuardSet(rng, policy.guard_weights, policy.constraint);
      } catch (const std::runtime_error&) {
        continue;  // defence filtered out too many guards for this pair
      }
      for (int c = 0; c < kCircuitsPerPair; ++c) {
        tor::Circuit circuit;
        try {
          circuit = selector.BuildCircuit(guards, rng, policy.constraint);
        } catch (const std::runtime_error&) {
          continue;
        }
        const auto guard_it = guard_monthly.find(circuit.guard);
        const auto exit_it = exit_monthly.find(circuit.exit);
        if (guard_it == guard_monthly.end() || exit_it == exit_monthly.end()) continue;
        ++built;
        // Evaluation is always against the *monthly* exposure: can any
        // single AS watch both segments at some point during the month?
        std::size_t overlap = 0;
        for (bgp::AsNumber as : guard_it->second) {
          if (std::binary_search(exit_it->second.begin(), exit_it->second.end(), as)) {
            ++overlap;
          }
        }
        if (overlap > 0) ++compromised;
        observers += static_cast<double>(overlap);
        (void)Intersects;
      }
      if (built == 0) continue;
      const double fraction = static_cast<double>(compromised) / static_cast<double>(built);
      const double mean_observers = observers / static_cast<double>(built);
      rows.push_back({policy.name, fraction, mean_observers});
    }
              return rows;
            },
            [](const std::vector<PairRow>& rows, ckpt::PayloadWriter& payload) {
              payload.U64(rows.size());
              for (const PairRow& row : rows) {
                payload.Str(row.policy).Dbl(row.fraction).Dbl(row.mean_observers);
              }
            },
            [](ckpt::PayloadReader& payload) {
              std::vector<PairRow> rows(payload.U64());
              for (PairRow& row : rows) {
                row.policy = payload.Str();
                row.fraction = payload.Dbl();
                row.mean_observers = payload.Dbl();
              }
              return rows;
            });
      });
  for (std::size_t pair = 0; pair < pair_rows.size(); ++pair) {
    for (const PairRow& row : pair_rows[pair]) {
      stats[row.policy].compromised.push_back(row.fraction);
      stats[row.policy].observers.push_back(row.mean_observers);
      csv.WriteRow({row.policy, std::to_string(pair),
                    util::FormatDouble(row.fraction, 4),
                    util::FormatDouble(row.mean_observers, 3)});
    }
  }

  for (const auto& name :
       {"vanilla Tor (bandwidth only)", "static AS-aware (prior work)",
        "dynamics-aware (this paper)", "short AS-PATH guard preference",
        "advisory-weighted guards (monitor+churn)"}) {
    const auto it = stats.find(name);
    if (it == stats.end()) continue;
    policy_table.AddRow({name, util::FormatPercent(util::Mean(it->second.compromised), 1),
                         util::FormatDouble(util::Mean(it->second.observers), 2)});
    ctx.Result("compromised_fraction[" + std::string(name) + "]",
               util::Mean(it->second.compromised));
  }
  util::PrintBanner(std::cout, "relay-selection policies (evaluated against a month "
                               "of routing dynamics)");
  std::cout << policy_table.Render();

  // ---------- Part 2: control-plane monitor ----------
  const auto tor_prefixes = scenario.prefix_map.TorPrefixes(consensus);

  // The monitored month on the record plane, shared by the benign run
  // and every attack case below.
  bgp::feed::AsPathTable table;
  const std::vector<bgp::feed::UpdateRec> rib =
      bgp::feed::InternRecords(table, month.initial_rib);

  // False-alarm cost on a benign month.
  core::RelayMonitor benign_monitor(tor_prefixes);
  ctx.Timed("benign_month", [&] {
    for (const bgp::feed::UpdateRec& rec : rib) benign_monitor.LearnRecord(rec, table);
    for (const bgp::BgpUpdate& update : month.updates) {
      (void)benign_monitor.ConsumeRecord(bgp::feed::ToRecord(update, table), table);
    }
  });
  const core::AlertCountSummary& benign_counts = benign_monitor.AlertCounts();
  const double false_alarms_per_prefix =
      tor_prefixes.empty()
          ? 0
          : static_cast<double>(benign_counts.total()) /
                static_cast<double>(tor_prefixes.size());

  // Detection per attack variant: inject what the collectors would observe.
  struct AttackCase {
    const char* name;
    bool more_specific;
    int radius;
  };
  const AttackCase cases[] = {
      {"more-specific hijack", true, 0},
      {"same-prefix hijack", false, 0},
      {"community-scoped hijack (radius 2)", false, 2},
  };

  util::Table detect_table({"attack variant", "detection (72 sessions)",
                            "detection (3 sessions)", "sessions seeing bogus route",
                            "alerting signature"});
  const bgp::HijackSimulator sim(scenario.topology.graph);
  std::vector<std::pair<netbase::Prefix, bgp::AsNumber>> victims;
  for (const tor::RelayPrefixEntry& entry : scenario.prefix_map.entries()) {
    const auto& relay = consensus.relays()[entry.relay_index];
    if (relay.IsGuard()) victims.emplace_back(entry.prefix, entry.origin);
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  if (victims.size() > 20) victims.resize(20);

  ctx.Timed("detection_matrix", [&] {
  for (const AttackCase& attack_case : cases) {
    std::size_t detected_full = 0, detected_sparse = 0, runs = 0;
    double visible_sessions = 0;
    core::AlertCountSummary signatures;
    for (std::size_t v = 0; v < victims.size(); ++v) {
      const auto& [prefix, victim] = victims[v];
      const bgp::AsNumber attacker =
          scenario.topology.transits[(v * 13) % scenario.topology.transits.size()];
      if (attacker == victim) continue;
      bgp::AttackSpec spec;
      spec.attacker = attacker;
      spec.victim = victim;
      spec.victim_prefix = prefix;
      spec.more_specific = attack_case.more_specific;
      spec.propagation_radius = attack_case.radius;
      const bgp::AttackOutcome outcome = sim.Execute(spec);

      // The full monitor watches all 72 sessions; a sparse one only every
      // 24th (3 of 72), so it learns and sees only what those sessions
      // carry. Each alerts once per anomaly, so the sparse rate needs its
      // own monitor: in the full one an unwatched session usually takes
      // the alert first.
      const auto watched = [&](bgp::SessionId session) { return session % 24 == v % 24; };
      core::RelayMonitor monitor(tor_prefixes);
      core::RelayMonitor sparse_monitor(tor_prefixes);
      for (const bgp::feed::UpdateRec& rec : rib) {
        monitor.LearnRecord(rec, table);
        if (watched(rec.session)) sparse_monitor.LearnRecord(rec, table);
      }
      bool hit_full = false, hit_sparse = false;
      std::size_t seen_on = 0;
      for (const bgp::PeerSession& session : scenario.collectors.sessions()) {
        const auto observed = bgp::CollectorSet::Observe(
            session, scenario.topology.graph, outcome.attacked);
        if (!observed) continue;
        // Only announcements that reach the attacker reveal the attack.
        if (observed->origin() != spec.attacker) continue;
        ++seen_on;
        const bgp::BgpUpdate update = {netbase::SimTime{1000}, session.id,
                                       bgp::UpdateType::kAnnounce,
                                       outcome.announced_prefix, *observed};
        const bgp::feed::UpdateRec rec = bgp::feed::ToRecord(update, table);
        if (!monitor.ConsumeRecord(rec, table).empty()) hit_full = true;
        if (watched(session.id) && !sparse_monitor.ConsumeRecord(rec, table).empty()) {
          hit_sparse = true;
        }
      }
      signatures += monitor.AlertCounts();
      if (hit_full) ++detected_full;
      if (hit_sparse) ++detected_sparse;
      visible_sessions += static_cast<double>(seen_on) /
                          static_cast<double>(scenario.collectors.SessionCount());
      ++runs;
    }
    std::string signature_summary;
    for (const core::AlertKind kind :
         {core::AlertKind::kOriginChange, core::AlertKind::kMoreSpecific,
          core::AlertKind::kNewUpstream}) {
      if (signatures.Of(kind) == 0) continue;
      if (!signature_summary.empty()) signature_summary += ", ";
      signature_summary += std::string(ToString(kind));
    }
    if (signature_summary.empty()) signature_summary = "(none)";
    auto rate = [&](std::size_t detected) {
      return util::FormatPercent(
          runs == 0 ? 0 : static_cast<double>(detected) / static_cast<double>(runs), 1);
    };
    detect_table.AddRow({attack_case.name, rate(detected_full), rate(detected_sparse),
                         util::FormatPercent(visible_sessions / std::max<double>(1, runs), 1),
                         signature_summary});
    ctx.Result("detection_rate[" + std::string(attack_case.name) + "]",
               runs == 0 ? 0.0
                         : static_cast<double>(detected_full) / static_cast<double>(runs));
    ctx.Result("sparse_detection_rate[" + std::string(attack_case.name) + "]",
               runs == 0 ? 0.0
                         : static_cast<double>(detected_sparse) / static_cast<double>(runs));
  }
  });

  util::PrintBanner(std::cout, "control-plane monitor");
  std::cout << detect_table.Render();
  std::cout << "false alarms on a benign month: "
            << util::FormatDouble(false_alarms_per_prefix, 2)
            << " alerts per monitored prefix (aggressive by design; the paper "
               "accepts false positives)\n"
            << "  benign alert breakdown: "
            << benign_counts.origin_change << " origin-change, "
            << benign_counts.more_specific << " more-specific, "
            << benign_counts.new_upstream << " new-upstream ("
            << benign_counts.total() << " total)\n";

  util::PrintBanner(std::cout, "paper vs measured");
  util::Table comparison({"claim", "paper", "measured"});
  ctx.Comparison(comparison, "dynamics-aware selection beats static",
                 "\"after taking path dynamics into account\"",
                 "see policy table (compromised circuits)");
  ctx.Comparison(comparison, "monitoring catches more-specific attacks",
                 "\"particularly effective\"", "see detection table");
  ctx.Comparison(comparison, "stealthy attacks are harder to detect",
                 "same-prefix / community attacks", "lower detection rows");
  std::cout << comparison.Render();
  std::cout << "\nwrote sec5_policies.csv\n";

  ctx.Result("false_alarms_per_prefix", false_alarms_per_prefix);
  ctx.Result("benign_alerts_origin_change",
             static_cast<std::uint64_t>(benign_counts.origin_change));
  ctx.Result("benign_alerts_more_specific",
             static_cast<std::uint64_t>(benign_counts.more_specific));
  ctx.Result("benign_alerts_new_upstream",
             static_cast<std::uint64_t>(benign_counts.new_upstream));
  ctx.Finish();
  return 0;
}
