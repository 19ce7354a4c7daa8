#include "bgp/dynamics_gen.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "bgp/feed_order.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/route_computation.hpp"
#include "exec/parallel.hpp"
#include "netbase/rng.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::bgp {

namespace {

using netbase::Rng;
using netbase::SimTime;

// The event model's calibration to one RIS-like month (DESIGN.md section 1).
/// Per-prefix event count over the window: round(Pareto(xmin, alpha)) - 1.
constexpr double kEventParetoXmin = 2.6;
constexpr double kEventParetoAlpha = 1.15;
/// Event-count multiplier for prefixes originated by hosting ASes.
constexpr double kHostingChurnMultiplier = 3.8;
/// Multiplier for prefixes originated by the transit core (tier-1 and
/// transit ASes): infrastructure address space is markedly more stable
/// than edge allocations in real tables.
constexpr double kCoreChurnMultiplier = 1.0;
/// Hard cap on events per prefix (tail safety).
constexpr std::size_t kMaxEventsPerPrefix = 6000;
/// Base number of alternate routing states derived per prefix. Unstable
/// prefixes explore more paths: one extra alternate per ten scheduled
/// events is added, capped below.
constexpr std::size_t kAlternatesPerPrefix = 3;
constexpr std::size_t kMaxAlternatesPerPrefix = 18;
/// Probability an event is a permanent shift rather than a transient.
constexpr double kPermanentShiftProb = 0.12;
/// Probability a transient's dwell is drawn from the short distribution.
constexpr double kShortDwellProb = 0.35;
constexpr double kShortDwellMeanS = 110;          ///< mean of sub-threshold blips
constexpr double kLongDwellMeanS = 4.0 * 3600.0;  ///< mean of long reroutes
/// Fraction of a resetting session's table that flaps via a backup path.
constexpr double kResetBackupFlapProb = 0.25;
/// Session resets fall at least this far inside either end of the window.
constexpr std::int64_t kResetMarginS = 3600;

/// Observed paths of one routing state across all sessions.
using ObservationTable = std::vector<std::optional<AsPath>>;

ObservationTable ObserveAll(const CollectorSet& collectors, const AsGraph& graph,
                            const RoutingState& state) {
  ObservationTable table;
  table.reserve(collectors.SessionCount());
  for (const PeerSession& session : collectors.sessions()) {
    table.push_back(CollectorSet::Observe(session, graph, state));
  }
  return table;
}

/// Small-lambda Poisson draw (Knuth).
std::size_t PoissonDraw(Rng& rng, double lambda) {
  if (lambda <= 0) return 0;
  const double limit = std::exp(-lambda);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.UniformDouble();
  } while (p > limit && k < 1000);
  return k - 1;
}

/// Derives an alternate routing state for a prefix by perturbing the
/// topology: failing one or more links taken from currently observed
/// paths (failures biased toward the origin's access links, which reroute
/// the prefix for nearly every observer) and/or re-salting on-path ASes'
/// tie-breaks (policy shifts). Reference paths are drawn from all trees
/// derived so far, so unstable prefixes accumulate compound variants.
/// Returns nullopt if the variant duplicates an existing tree.
std::optional<ObservationTable> MakeAlternate(
    const Topology& topology, const CollectorSet& collectors, AsIndex origin_index,
    const std::vector<ObservationTable>& existing_trees, Rng& rng, RouteCache& cache) {
  const AsGraph& graph = topology.graph;
  const ObservationTable& reference =
      existing_trees[rng.UniformInt(0, existing_trees.size() - 1)];
  std::vector<const AsPath*> visible;
  std::vector<AsNumber> on_path;
  for (const auto& path : reference) {
    if (!path) continue;
    visible.push_back(&*path);
    for (AsNumber asn : path->DistinctAses()) on_path.push_back(asn);
  }
  if (visible.empty()) return std::nullopt;

  ComputationOptions options;
  std::vector<std::uint64_t> disabled;
  std::vector<std::pair<AsIndex, std::uint64_t>> salt_shifts;
  const OriginSpec spec{graph.AsnOf(origin_index), 1, 0};

  const bool fail_links = rng.Bernoulli(0.75);
  if (fail_links) {
    const std::size_t failures = 1 + (rng.Bernoulli(0.4) ? 1 : 0);
    for (std::size_t f = 0; f < failures; ++f) {
      const AsPath& path = *visible[rng.UniformInt(0, visible.size() - 1)];
      const auto hops = path.DistinctAses();
      if (hops.size() < 2) continue;
      const std::size_t cut = rng.Bernoulli(0.55)
                                  ? hops.size() - 2
                                  : rng.UniformInt(0, hops.size() - 2);
      const auto a = graph.IndexOf(hops[cut]);
      const auto b = graph.IndexOf(hops[cut + 1]);
      if (a && b) disabled.push_back(LinkKey(*a, *b));
    }
    if (disabled.empty()) return std::nullopt;
    options.disabled_links = disabled;
  }
  if (!fail_links || rng.Bernoulli(0.25)) {
    // Policy-shift component: re-salt the tie-breaks of 1-2 on-path ASes.
    if (on_path.empty()) return std::nullopt;
    const std::size_t shifts = 1 + (rng.Bernoulli(0.4) ? 1 : 0);
    for (std::size_t s = 0; s < shifts; ++s) {
      const AsNumber shifted = on_path[rng.UniformInt(0, on_path.size() - 1)];
      if (const auto idx = graph.IndexOf(shifted)) salt_shifts.emplace_back(*idx, rng() | 1);
    }
  }

  // The unperturbed or link-failed state recurs across attempts and across
  // prefixes of the same origin, so it comes from the cache. Salt variants
  // draw fresh 64-bit salts and never repeat: each is a shift of that
  // cached state, equal to a solve with those salts.
  const auto state =
      cache.GetOrCompute(graph, std::span<const OriginSpec>(&spec, 1), options);
  ObservationTable table;
  if (salt_shifts.empty()) {
    table = ObserveAll(collectors, graph, *state);
  } else {
    RoutingState shifted = *state;
    for (const auto& [as, salt] : salt_shifts) shifted = ShiftSalt(std::move(shifted), as, salt);
    table = ObserveAll(collectors, graph, shifted);
  }
  for (const ObservationTable& tree : existing_trees) {
    if (table == tree) return std::nullopt;
  }
  return table;
}

}  // namespace

GeneratedDynamics GenerateDynamics(const Topology& topology, const CollectorSet& collectors,
                                   const DynamicsParams& params) {
  const obs::ScopedSpan span("bgp.generate_dynamics");
  if (params.window < 2 * kResetMarginS) {
    throw std::invalid_argument(
        "GenerateDynamics: window must be at least 7200 s (two hours), got " +
        std::to_string(params.window) + " s");
  }
  const AsGraph& graph = topology.graph;
  const std::size_t prefix_count = topology.prefix_origins.size();
  GeneratedDynamics out;
  out.truth.reserve(prefix_count);

  // Substreams are forked serially, in a fixed order, before any parallel
  // work begins: one per prefix, then one for the session-reset replay.
  // Every draw a task makes comes from its own substream, so the dataset
  // is byte-identical for any value of params.threads.
  Rng root(params.seed);
  std::vector<Rng> prefix_rngs;
  prefix_rngs.reserve(prefix_count);
  for (std::size_t i = 0; i < prefix_count; ++i) prefix_rngs.push_back(root.Fork());
  Rng reset_rng = root.Fork();

  // The per-prefix step: baselines, then one task per prefix.
  std::optional<obs::ScopedSpan> prefix_span(std::in_place, "bgp.generate_dynamics.prefixes");
  // Baseline routing states are per *origin AS*: compute each distinct
  // origin once (in parallel, through the route cache), then share the
  // observation table across that origin's prefixes.
  RouteCache cache;
  std::vector<AsNumber> distinct_origins;
  std::unordered_map<AsNumber, std::size_t> baseline_slot;
  for (const PrefixOrigin& po : topology.prefix_origins) {
    if (baseline_slot.emplace(po.origin, distinct_origins.size()).second) {
      distinct_origins.push_back(po.origin);
    }
  }
  const std::vector<std::shared_ptr<const RoutingState>> baseline_states =
      exec::ParallelMap(params.threads, distinct_origins.size(), [&](std::size_t i) {
        return cache.GetOrCompute(graph, distinct_origins[i]);
      });
  const std::vector<ObservationTable> baselines = exec::ParallelMap(
      params.threads, distinct_origins.size(), [&](std::size_t i) {
        return ObserveAll(collectors, graph, *baseline_states[i]);
      });

  // Per-prefix generation. Each task reads shared immutable state plus its
  // own Rng substream and returns its slice of the dataset; slices are
  // concatenated in prefix order below, so scheduling never reorders them.
  struct PrefixSlice {
    std::vector<BgpUpdate> initial_rib;
    std::vector<BgpUpdate> updates;
    PrefixDynamicsTruth truth;
    std::vector<ObservationTable> trees;  // kept for the reset replay below
  };
  std::vector<PrefixSlice> slices = exec::ParallelMap(
      params.threads, prefix_count,
      [&](std::size_t slot) {
        const PrefixOrigin& po = topology.prefix_origins[slot];
        Rng rng = prefix_rngs[slot];
        PrefixSlice slice;
        const ObservationTable& baseline = baselines[baseline_slot.at(po.origin)];

        // --- Event intensity first: unstable prefixes explore more paths,
        // so the alternate count below scales with it.
        const AsRole role = topology.RoleOf(po.origin);
        const bool hosting = role == AsRole::kHosting;
        double intensity =
            rng.Pareto(kEventParetoXmin, kEventParetoAlpha) - 1.0;
        if (hosting) {
          intensity *= kHostingChurnMultiplier;
        } else if (role == AsRole::kTier1 || role == AsRole::kTransit) {
          intensity *= kCoreChurnMultiplier;
        }
        const auto scheduled = std::min<std::size_t>(
            static_cast<std::size_t>(std::llround(std::max(0.0, intensity))),
            kMaxEventsPerPrefix);

        std::vector<ObservationTable>& trees = slice.trees;
        trees.push_back(baseline);
        const AsIndex origin_index = graph.MustIndexOf(po.origin);
        const std::size_t alternates =
            std::min(kAlternatesPerPrefix + scheduled / 10, kMaxAlternatesPerPrefix);
        for (std::size_t j = 0; j < alternates; ++j) {
          for (int attempt = 0; attempt < 3; ++attempt) {
            auto alt =
                MakeAlternate(topology, collectors, origin_index, trees, rng, cache);
            if (alt) {
              trees.push_back(std::move(*alt));
              break;
            }
          }
        }

        // --- Initial RIB at t=0.
        for (SessionId s = 0; s < baseline.size(); ++s) {
          if (baseline[s]) {
            slice.initial_rib.push_back(
                {SimTime{0}, s, UpdateType::kAnnounce, po.prefix, *baseline[s]});
          }
        }

        slice.truth = {po.prefix, po.origin, hosting, scheduled, 0};

        if (trees.size() > 1 && scheduled > 0) {
          std::vector<std::int64_t> times;
          times.reserve(scheduled);
          for (std::size_t e = 0; e < scheduled; ++e) {
            times.push_back(
                static_cast<std::int64_t>(rng.UniformInt(60, params.window - 60)));
          }
          std::sort(times.begin(), times.end());

          std::size_t current = 0;  // index into trees
          std::int64_t busy_until = 0;

          auto emit_transition = [&](std::int64_t at, std::size_t from,
                                     std::size_t to) {
            for (SessionId s = 0; s < collectors.SessionCount(); ++s) {
              const auto& pa = trees[from][s];
              const auto& pb = trees[to][s];
              if (pa == pb) continue;
              ++slice.truth.emitted_transitions;
              if (!pb) {
                slice.updates.push_back(
                    {SimTime{at}, s, UpdateType::kWithdraw, po.prefix, {}});
                continue;
              }
              // Convergence exploration: briefly show a third tree's path.
              if (trees.size() > 2 && rng.Bernoulli(params.convergence_prob)) {
                std::size_t k = rng.UniformInt(0, trees.size() - 1);
                if (k != from && k != to && trees[k][s] && trees[k][s] != pa &&
                    trees[k][s] != pb) {
                  slice.updates.push_back(
                      {SimTime{at}, s, UpdateType::kAnnounce, po.prefix, *trees[k][s]});
                  const std::int64_t settle = std::min<std::int64_t>(
                      at + 5 + static_cast<std::int64_t>(rng.UniformInt(0, 55)),
                      params.window);
                  slice.updates.push_back(
                      {SimTime{settle}, s, UpdateType::kAnnounce, po.prefix, *pb});
                  continue;
                }
              }
              slice.updates.push_back(
                  {SimTime{at}, s, UpdateType::kAnnounce, po.prefix, *pb});
            }
          };

          for (std::int64_t t : times) {
            std::int64_t at = std::max(t, busy_until + 60);
            if (at >= params.window - 60) break;
            std::size_t target = rng.UniformInt(1, trees.size() - 1);
            if (target == current) target = 0;

            if (rng.Bernoulli(kPermanentShiftProb)) {
              emit_transition(at, current, target);
              current = target;
              busy_until = at + 90;
              continue;
            }
            // Transient: out and back.
            const double mean =
                rng.Bernoulli(kShortDwellProb) ? kShortDwellMeanS : kLongDwellMeanS;
            auto dwell =
                static_cast<std::int64_t>(std::max(10.0, rng.Exponential(mean)));
            const std::int64_t back = std::min(at + dwell, params.window - 30);
            emit_transition(at, current, target);
            emit_transition(back, target, current);
            busy_until = back + 90;
          }
        }
        return slice;
      },
      /*grain=*/1);
  prefix_span.reset();

  // --- Session resets: a session re-announces its whole table, partly via
  // transient backup paths — the artifacts of [31]. Their times come first,
  // from the reset substream.
  struct ResetEvent {
    std::int64_t time;
    SessionId session;
  };
  std::vector<ResetEvent> resets;
  for (SessionId s = 0; s < collectors.SessionCount(); ++s) {
    const std::size_t count = PoissonDraw(reset_rng, params.session_resets_per_month);
    for (std::size_t r = 0; r < count; ++r) {
      resets.push_back({static_cast<std::int64_t>(
                            reset_rng.UniformInt(kResetMarginS, params.window - kResetMarginS)),
                        s});
    }
  }
  std::sort(resets.begin(), resets.end(),
            [](const ResetEvent& a, const ResetEvent& b) { return a.time < b.time; });

  // Concatenate the slices in prefix order and sort the month once. A reset
  // emits at most three updates per prefix of its session's table, and
  // tables stay near their t=0 size, so the month reserves that much room
  // for the artifacts merged in below. Room never written costs no memory;
  // artifacts that outgrow it only reallocate.
  std::vector<std::vector<ObservationTable>> trees_per_prefix;
  std::size_t artifact_room = 0;
  {
    const obs::ScopedSpan order_span("bgp.generate_dynamics.order");
    std::vector<std::size_t> rib_per_session(collectors.SessionCount(), 0);
    std::size_t rib_size = 0;
    std::size_t update_count = 0;
    for (const PrefixSlice& slice : slices) {
      for (const BgpUpdate& u : slice.initial_rib) ++rib_per_session[u.session];
      rib_size += slice.initial_rib.size();
      update_count += slice.updates.size();
    }
    for (const ResetEvent& reset : resets) artifact_room += 3 * rib_per_session[reset.session];
    out.initial_rib.reserve(rib_size);
    out.updates.reserve(update_count + artifact_room);
    trees_per_prefix.reserve(prefix_count);
    for (PrefixSlice& slice : slices) {
      out.initial_rib.insert(out.initial_rib.end(),
                             std::make_move_iterator(slice.initial_rib.begin()),
                             std::make_move_iterator(slice.initial_rib.end()));
      out.updates.insert(out.updates.end(), std::make_move_iterator(slice.updates.begin()),
                         std::make_move_iterator(slice.updates.end()));
      out.truth.push_back(std::move(slice.truth));
      trees_per_prefix.push_back(std::move(slice.trees));
    }
    slices.clear();
    SortUpdates(out.updates);
  }

  // Replay the stream to know each session's table at reset time, then
  // re-announce it.
  std::vector<BgpUpdate> reset_updates;
  reset_updates.reserve(artifact_room);
  if (!resets.empty()) {
    const obs::ScopedSpan replay_span("bgp.generate_dynamics.reset_replay");
    // prefix slot lookup for alternates
    std::unordered_map<netbase::Prefix, std::size_t> slot_of;
    for (std::size_t i = 0; i < topology.prefix_origins.size(); ++i) {
      slot_of.emplace(topology.prefix_origins[i].prefix, i);
    }
    // Current path per (session, prefix), pointing into out.initial_rib
    // and out.updates, which stay unchanged until the merge below. The
    // reset draws iterate these maps, so their insert/erase sequence
    // (and with it their iteration order) is part of the output. A
    // session's map is read only at its own resets, so an update after
    // the session's last reset is not replayed.
    std::vector<std::int64_t> last_reset(collectors.SessionCount(),
                                         std::numeric_limits<std::int64_t>::min());
    for (const ResetEvent& reset : resets) last_reset[reset.session] = reset.time;
    const auto replayed = [&last_reset](const BgpUpdate& u) {
      return u.time.seconds <= last_reset[u.session];
    };
    std::vector<std::unordered_map<netbase::Prefix, const AsPath*>> table(
        collectors.SessionCount());
    for (const BgpUpdate& u : out.initial_rib) {
      if (replayed(u)) table[u.session][u.prefix] = &u.path;
    }

    std::size_t cursor = 0;
    for (const ResetEvent& reset : resets) {
      while (cursor < out.updates.size() &&
             out.updates[cursor].time.seconds <= reset.time) {
        const BgpUpdate& u = out.updates[cursor++];
        if (!replayed(u)) continue;
        if (u.type == UpdateType::kAnnounce) {
          table[u.session][u.prefix] = &u.path;
        } else {
          table[u.session].erase(u.prefix);
        }
      }
      for (const auto& [prefix, path] : table[reset.session]) {
        const std::int64_t jitter =
            static_cast<std::int64_t>(reset_rng.UniformInt(1, 90));
        if (reset_rng.Bernoulli(kResetBackupFlapProb)) {
          // Withdraw, transient backup path, then the real path again.
          const auto slot = slot_of.find(prefix);
          const AsPath* backup = nullptr;
          if (slot != slot_of.end()) {
            for (const auto& tree : trees_per_prefix[slot->second]) {
              const auto& candidate = tree[reset.session];
              if (candidate && !(*candidate == *path)) {
                backup = &*candidate;
                break;
              }
            }
          }
          reset_updates.push_back({SimTime{reset.time + jitter}, reset.session,
                                   UpdateType::kWithdraw, prefix, {}});
          if (backup != nullptr) {
            reset_updates.push_back({SimTime{reset.time + jitter + 20}, reset.session,
                                     UpdateType::kAnnounce, prefix, *backup});
          }
          reset_updates.push_back({SimTime{reset.time + jitter + 45}, reset.session,
                                   UpdateType::kAnnounce, prefix, *path});
        } else {
          // Plain duplicate re-announcement.
          reset_updates.push_back({SimTime{reset.time + jitter}, reset.session,
                                   UpdateType::kAnnounce, prefix, *path});
        }
      }
    }
  }

  trees_per_prefix.clear();  // only the replay reads the alternates

  // Merge the sorted artifacts into the sorted month, in the month's own
  // buffer. The month stays first among equal keys, which is exactly a
  // stable sort of the month with the artifacts appended.
  if (!reset_updates.empty()) {
    const obs::ScopedSpan merge_span("bgp.generate_dynamics.reset_merge");
    SortUpdates(reset_updates);
    const auto month_end = static_cast<std::ptrdiff_t>(out.updates.size());
    out.updates.resize(out.updates.size() + reset_updates.size());
    MergeBackward(out.updates.begin(), out.updates.begin() + month_end,
                  reset_updates.begin(), reset_updates.end());
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("bgp.dynamics.updates_generated").Increment(out.updates.size());
  registry.GetCounter("bgp.dynamics.initial_rib_routes").Increment(out.initial_rib.size());
  registry.GetCounter("bgp.dynamics.prefixes_tracked").Increment(out.truth.size());
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    obs::LogInfo("bgp.dynamics",
                 "generated " + std::to_string(out.updates.size()) + " updates over " +
                     std::to_string(out.truth.size()) + " prefixes");
  }
  return out;
}

}  // namespace quicksand::bgp
