// countermeasures: the paper's Section 5 relay-selection evaluation per
// (client, destination) pair, as sec5_countermeasures' policy_eval runs
// it. Exposure sets for every distinct guard/exit host AS (a snapshot and a
// month of routing variants, plus the forward AS-path length), then five
// selection policies x (PickGuardSet + 40 BuildCircuit). Route solving
// dominates; path selection is about one percent. Item = exposure query.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "core/advisor.hpp"
#include "core/exposure.hpp"
#include "core/monitor.hpp"
#include "harness.hpp"
#include "obs/span.hpp"
#include "tor/as_aware_selection.hpp"
#include "tor/path_selection.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

namespace bgp = quicksand::bgp;
namespace core = quicksand::core;
namespace feed = quicksand::bgp::feed;
namespace netbase = quicksand::netbase;
namespace tor = quicksand::tor;

/// sec5's constants: variants the defence knows (a month of dynamics),
/// circuits per policy, and the short-path preference exponent.
constexpr std::size_t kVariantsMonthly = 10;
constexpr int kCircuitsPerPolicy = 40;
constexpr double kShortPathGamma = 2.0;
constexpr std::size_t kPolicies = 5;

/// Exposure sets of one relay host AS toward the pair's far end.
struct AsSets {
  std::vector<bgp::AsNumber> snapshot;
  std::vector<bgp::AsNumber> monthly;
  int path_length = 0;
};

/// One policy's circuits, scored against the monthly exposure.
struct PolicyOutcome {
  bool guard_set_built = false;
  std::vector<std::size_t> guards;
  std::uint64_t built = 0;
  std::uint64_t compromised = 0;
  std::uint64_t observers = 0;
};

std::vector<bgp::AsNumber> UnionPath(const core::SegmentExposure& exposure) {
  std::vector<bgp::AsNumber> all = exposure.client_to_guard;
  all.insert(all.end(), exposure.guard_to_client.begin(), exposure.guard_to_client.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

class Countermeasures final : public Workload {
 public:
  explicit Countermeasures(const Options& options)
      : seeds_(SeedsFor(options)),
        small_(options.small),
        pair_count_(options.small ? 1 : 4),
        draws_(seeds_.run.value_or(0)) {
    for (std::size_t pair = 0; pair < pair_count_; ++pair) {
      pair_seeds_.push_back(seeds_.run ? PairSeeds{draws_(), draws_()}
                                       : PairSeeds{777, 31000 + pair});
    }
  }

  void SetUp(Tracer& tracer) override {
    analyzer_.reset();
    selector_.reset();
    world_ = BuildWorld(seeds_, tracer);
    const tor::Consensus& consensus = world_->consensus.consensus;
    const auto tor_prefixes = world_->prefix_map.TorPrefixes(consensus);

    // The advisory month: dynamics -> sanitize -> churn -> monitor ->
    // RelayAdvisor guard weights (the fifth policy).
    bgp::DynamicsParams params;
    params.window = small_ ? 3 * netbase::duration::kDay : netbase::duration::kMonth;
    params.seed = seeds_.dynamics;
    params.threads = 1;
    const std::uint64_t hits = CounterValue("exec.route_cache.hits");
    const std::uint64_t misses = CounterValue("exec.route_cache.misses");
    const bgp::GeneratedDynamics dynamics = [&] {
      const Span span(tracer, "bgp.dynamics_gen");
      return bgp::GenerateDynamics(world_->topology, world_->collectors, params);
    }();
    const double d_hits = static_cast<double>(CounterValue("exec.route_cache.hits") - hits);
    const double d_misses =
        static_cast<double>(CounterValue("exec.route_cache.misses") - misses);
    dynamics_cache_hit_ratio_ = d_hits + d_misses > 0 ? d_hits / (d_hits + d_misses) : 0;

    auto table = std::make_shared<feed::AsPathTable>();
    std::vector<feed::UpdateRec> rib;
    std::vector<feed::UpdateRec> updates;
    {
      const Span span(tracer, "bgp.feed");
      rib.reserve(dynamics.initial_rib.size());
      for (const bgp::BgpUpdate& u : dynamics.initial_rib) rib.push_back(feed::ToRecord(u, *table));
      updates.reserve(dynamics.updates.size());
      for (const bgp::BgpUpdate& u : dynamics.updates) updates.push_back(feed::ToRecord(u, *table));
    }
    bgp::SanitizedRecords clean = [&] {
      const Span span(tracer, "bgp.feed_sanitizer");
      return bgp::SanitizeRecords(rib, std::move(updates));
    }();
    const bgp::ChurnAnalyzer churn = [&] {
      const Span span(tracer, "bgp.churn");
      return bgp::AnalyzeChurnStream(feed::FromRecords(table, rib),
                                     feed::FromRecords(table, clean.updates), {},
                                     /*threads=*/1);
    }();
    core::RelayMonitor monitor(tor_prefixes);
    {
      const Span span(tracer, "core.monitor");
      feed::UpdateStream baseline = feed::FromRecords(table, std::move(rib));
      monitor.LearnBaselineStream(baseline);
      feed::UpdateStream stream = feed::FromRecords(table, std::move(clean.updates));
      (void)monitor.ConsumeStream(stream);
    }
    {
      const Span span(tracer, "core.advisor");
      core::RelayAdvisor advisor;
      advisor.IngestChurn(churn);
      advisor.IngestAlerts(monitor.alerts());
      advisory_weights_ = advisor.GuardWeightMultipliers(consensus, world_->prefix_map);
    }
    {
      const Span span(tracer, "tor.path_selection");
      selector_ = std::make_unique<tor::PathSelector>(consensus);
    }
    analyzer_ = std::make_unique<core::ExposureAnalyzer>(world_->topology.graph,
                                                         world_->topology.policy_salts);
    PickPairs();
  }

  void TearDown() override {
    analyzer_.reset();
    selector_.reset();
    world_.reset();
    advisory_weights_.clear();
  }

  std::size_t Variants() const override { return pair_count_; }
  std::size_t MinPasses() const override { return pair_count_; }
  std::size_t CheckVariants() const override { return pair_count_; }

  /// A draw under which a defence leaves a client no valid circuit (a
  /// PickGuardSet or BuildCircuit throw) is replaced before timing starts,
  /// so the timed pairs fail no operation.
  bool Redraw(std::size_t variant) override {
    if (failed_ == 0) return false;
    pair_seeds_[variant] = PairSeeds{draws_(), draws_()};
    return true;
  }

  /// Every pair starts from an empty route cache, so a pair's work does
  /// not depend on which pairs ran before it.
  void Prepare(std::size_t /*variant*/) override { analyzer_->ClearCache(); }

  double Pass(std::size_t variant, PassContext& ctx) override {
    Tracer& tracer = ctx.tracer();
    const bool timing_queries = tracer.enabled();
    const auto [client, dest] = pairs_[variant];
    attempted_ = 0;
    failed_ = 0;
    std::uint64_t queries = 0;

    // Exposure sets depend only on the relay's host AS: one query (the
    // snapshot and monthly exposure and the forward path length) per
    // distinct (far end, AS), shared by the relays inside that AS.
    tor::SegmentAsSets guard_snapshot, guard_monthly, exit_snapshot, exit_monthly;
    std::unordered_map<std::size_t, int> guard_path_lengths;
    by_as_[0].clear();
    by_as_[1].clear();
    const auto query = [&](bgp::AsNumber far_end, bgp::AsNumber relay_as) {
      ++queries;
      const std::int64_t start = timing_queries ? NowNs() : 0;
      const std::uint64_t seed = pair_seeds_[variant].exposure + relay_as;
      AsSets sets;
      {
        const Span span(tracer, "core.exposure");
        sets.snapshot = UnionPath(
            analyzer_->TemporalExposure(far_end, relay_as, far_end, relay_as, 0, seed));
        sets.monthly = UnionPath(analyzer_->TemporalExposure(
            far_end, relay_as, far_end, relay_as, kVariantsMonthly, seed));
        sets.path_length = analyzer_->ForwardPathLength(far_end, relay_as);
      }
      if (timing_queries) query_ms_.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      return sets;
    };
    const auto fill = [&](std::span<const std::size_t> candidates, bool guard_side) {
      std::map<bgp::AsNumber, AsSets>& by_as = by_as_[guard_side ? 0 : 1];
      const bgp::AsNumber far_end = guard_side ? client : dest;
      for (const std::size_t relay : candidates) {
        const bgp::AsNumber relay_as = world_->prefix_map.OriginOfRelay(relay);
        if (relay_as == 0) continue;
        auto it = by_as.find(relay_as);
        if (it == by_as.end()) it = by_as.emplace(relay_as, query(far_end, relay_as)).first;
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
    fill(selector_->GuardCandidates(), true);
    fill(selector_->ExitCandidates(), false);
    attempted_ += queries;

    struct Defences {
      tor::AsAwareConstraint static_defense;
      tor::AsAwareConstraint dynamic_defense;
      std::vector<double> short_path_weights;
    };
    const Defences defences = [&] {
      const Span span(tracer, "tor.as_aware_selection");
      return Defences{tor::AsAwareConstraint(guard_snapshot, exit_snapshot),
                      tor::AsAwareConstraint(guard_monthly, exit_monthly),
                      tor::ShortAsPathGuardWeights(world_->consensus.consensus,
                                                   guard_path_lengths, kShortPathGamma)};
    }();
    const tor::CircuitConstraint* constraints[kPolicies] = {
        nullptr, &defences.static_defense, &defences.dynamic_defense, nullptr, nullptr};
    const std::span<const double> weights[kPolicies] = {
        {}, {}, {}, defences.short_path_weights, advisory_weights_};

    for (std::size_t p = 0; p < kPolicies; ++p) {
      PolicyOutcome& outcome = outcomes_[p];
      outcome = PolicyOutcome{};
      netbase::Rng rng(pair_seeds_[variant].selection);
      ++attempted_;
      try {
        const Span span(tracer, "tor.path_selection");
        outcome.guards = selector_->PickGuardSet(rng, weights[p], constraints[p]);
        outcome.guard_set_built = true;
      } catch (const std::runtime_error&) {
        ++failed_;
        continue;
      }
      for (int c = 0; c < kCircuitsPerPolicy; ++c) {
        ++attempted_;
        tor::Circuit circuit;
        try {
          const Span span(tracer, "tor.path_selection");
          circuit = selector_->BuildCircuit(outcome.guards, rng, constraints[p]);
        } catch (const std::runtime_error&) {
          ++failed_;
          continue;
        }
        // Evaluation is always against the monthly exposure: can one AS
        // watch both segments at some point during the month?
        const Span span(tracer, "perfbench.score");
        const auto guard_it = guard_monthly.find(circuit.guard);
        const auto exit_it = exit_monthly.find(circuit.exit);
        if (guard_it == guard_monthly.end() || exit_it == exit_monthly.end()) continue;
        ++outcome.built;
        std::uint64_t overlap = 0;
        for (const bgp::AsNumber as : guard_it->second) {
          if (std::binary_search(exit_it->second.begin(), exit_it->second.end(), as)) ++overlap;
        }
        if (overlap > 0) ++outcome.compromised;
        outcome.observers += overlap;
      }
    }
    queries_ = queries;
    return static_cast<double>(queries);
  }

  void Verify(std::size_t variant, Result& result) override {
    result.attempted += attempted_;
    result.failed += failed_;
    Digest digest;
    digest.Add(pairs_[variant].first).Add(pairs_[variant].second).Add(queries_);
    digest.Add(pair_seeds_[variant].exposure).Add(pair_seeds_[variant].selection);
    for (const auto& by_as : by_as_) {
      for (const auto& [as, sets] : by_as) {
        digest.Add(as).Add(static_cast<std::uint64_t>(sets.path_length));
        digest.Add(sets.snapshot.size());
        for (const bgp::AsNumber a : sets.snapshot) digest.Add(a);
        digest.Add(sets.monthly.size());
        for (const bgp::AsNumber a : sets.monthly) digest.Add(a);
      }
    }
    for (const PolicyOutcome& outcome : outcomes_) {
      digest.Add(outcome.guard_set_built).Add(outcome.built).Add(outcome.compromised);
      digest.Add(outcome.observers).Add(outcome.guards.size());
      for (const std::size_t g : outcome.guards) digest.Add(g);
    }
    // The dynamics-aware defence forbids exactly the circuits the monthly
    // evaluation would score as compromised.
    if (outcomes_[2].compromised != 0) {
      ++result.failed;
      result.Fail("countermeasures: a dynamics-aware circuit is compromised");
    }
    std::optional<std::uint64_t>& reference = pair_digests_[variant];
    if (!reference) {
      reference = digest.value();
      if (variant == 0) {
        for (std::size_t p = 0; p < kPolicies; ++p) {
          first_pair_[p] = outcomes_[p];
        }
        first_pair_queries_ = queries_;
      }
    } else if (*reference != digest.value()) {
      ++result.failed;
      result.Fail("countermeasures: a repeated pair's outputs differ");
    }
  }

  void Finish(Result& result) override {
    Digest digest;
    digest.AddBytes("countermeasures");
    for (const auto& reference : pair_digests_) {
      if (reference) digest.Add(*reference);
    }
    result.digest = digest.Hex();
    result.counts["pairs"] = pair_count_;
    result.counts["queries_first_pair"] = first_pair_queries_;
    for (std::size_t p = 0; p < kPolicies; ++p) {
      result.counts["policy" + std::to_string(p) + ".built"] = first_pair_[p].built;
      result.counts["policy" + std::to_string(p) + ".compromised"] = first_pair_[p].compromised;
    }
  }

  std::vector<std::string> TracedCounters() const override {
    return {"exec.route_cache.hits", "exec.route_cache.misses", "tor.path.circuit_attempts",
            "tor.path.circuits_built"};
  }

  void LayerMetrics(const TraceData& data, Result& result) override {
    const auto count = [&](const char* name) {
      const auto it = data.counters.find(name);
      return it == data.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double passes = static_cast<double>(std::max<std::size_t>(1, data.traced_passes));
    result.Set("core.exposure.queries", static_cast<double>(query_ms_.size()) / passes,
               "count");
    result.Set("core.exposure.query_samples", static_cast<double>(query_ms_.size()), "count");
    result.Set("core.exposure.query_p50_ms", Quantile(query_ms_, 0.5), "ms");
    result.Set("core.exposure.query_p99_ms", Quantile(query_ms_, 0.99), "ms");
    const double lookups = count("exec.route_cache.hits") + count("exec.route_cache.misses");
    result.Set("core.exposure.route_cache_hit_ratio",
               lookups > 0 ? count("exec.route_cache.hits") / lookups : 0, "ratio");
    const double attempts = count("tor.path.circuit_attempts");
    result.Set("tor.path_selection.circuit_fail_ratio",
               attempts > 0 ? 1.0 - count("tor.path.circuits_built") / attempts : 0, "ratio");
    result.Set("bgp.dynamics_gen.route_cache_hit_ratio", dynamics_cache_hit_ratio_, "ratio");

    // The solver's own span (the library's obs::SpanRegistry, on only in
    // traced passes) sits inside core.exposure: split its self time out.
    for (const auto& [name, stats] : quicksand::obs::SpanRegistry::Global().Summary()) {
      if (name != "bgp.compute_routes") continue;
      const double solver_s = static_cast<double>(stats.self_us) * 1e-6 / passes;
      result.Set("bgp.compute_routes.calls", static_cast<double>(stats.calls) / passes,
                 "count");
      result.Set("bgp.compute_routes.busy_s", solver_s, "s");
      const auto exposure = result.metrics.find("core.exposure.busy_s");
      if (exposure != result.metrics.end()) exposure->second.value -= solver_s;
    }
  }

 private:
  /// sec5's first pairs, for every seed.
  void PickPairs() {
    const auto& eyeballs = world_->topology.eyeballs;
    const auto& contents = world_->topology.contents;
    pairs_.clear();
    for (std::size_t pair = 0; pair < pair_count_; ++pair) {
      pairs_.emplace_back(eyeballs[pair * 7 % eyeballs.size()],
                          contents[pair * 11 % contents.size()]);
    }
    pair_digests_.assign(pair_count_, std::nullopt);
  }

  Seeds seeds_;
  bool small_;
  std::size_t pair_count_;
  /// Per pair, the base seed of the per-AS routing variants (plus the AS
  /// number) and the relay-selection seed: sec5's 777 and 31000 + pair by
  /// default, drawn from the --seed otherwise.
  struct PairSeeds {
    std::uint64_t exposure = 0;
    std::uint64_t selection = 0;
  };
  netbase::Rng draws_;
  std::vector<PairSeeds> pair_seeds_;
  std::unique_ptr<World> world_;
  std::unique_ptr<tor::PathSelector> selector_;
  std::unique_ptr<core::ExposureAnalyzer> analyzer_;
  std::vector<double> advisory_weights_;
  double dynamics_cache_hit_ratio_ = 0;
  std::vector<std::pair<bgp::AsNumber, bgp::AsNumber>> pairs_;

  // Outputs of the last pass, reduced by Verify.
  std::map<bgp::AsNumber, AsSets> by_as_[2];
  PolicyOutcome outcomes_[kPolicies];
  std::uint64_t queries_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  std::vector<std::optional<std::uint64_t>> pair_digests_;
  PolicyOutcome first_pair_[kPolicies];
  std::uint64_t first_pair_queries_ = 0;
  std::vector<double> query_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeCountermeasures(const Options& options) {
  return std::make_unique<Countermeasures>(options);
}

}  // namespace perfbench
