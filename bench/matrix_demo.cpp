// Matrix demo cell: a deliberately small end-to-end pipeline run, shaped
// to be one cell of an xmat experiment matrix (docs/ROBUSTNESS.md
// "Experiment matrix").
//
// Each invocation generates a scaled-down topology and a short window of
// update dynamics, optionally mounts a hijack/interception attack whose
// bogus announcements are spliced into the feed, optionally rots the
// feed through the deterministic fault injector, round-trips the feed
// through the configured wire codec, sanitizes, analyzes churn, and runs
// the relay monitor countermeasure. The cell's axes arrive as flags:
//
//   matrix_demo --scale 1 --fault-rate 0.02 --attack hijack \
//               --countermeasure monitor --seed 3 --days 2 \
//               --clients 2000 --threads 4 --format qmrt --json out.json
//
// --clients > 0 adds a Tor client-population leg: a small consensus is
// generated on the cell topology and the population engine
// (tor::population + core::SimulatePopulationExposure) simulates that
// many clients for the cell's window, emitting population_* results.
// With --clients 0 (the default) the leg is skipped entirely and the
// cell's output stays byte-identical to pre-population builds.
//
// Axis flags are consumed here; everything else (--json, --threads,
// --format, ...) passes through to the shared BenchContext, which owns
// the quicksand-bench-v1 summary. All recorded results are deterministic
// for fixed axes — independent of --threads and --format — which is what
// lets the matrix merge assert byte-identical output across runner
// crash/resume and parallelism.
//
// Chaos hooks for scripts/matrix_smoke.sh (all env-gated, all off by
// default; values compare against --seed so a config axis selects the
// victim cells):
//   QUICKSAND_MATRIX_DEMO_ABORT_SEED  _Exit(42) mid-pipeline, every time
//                                     → the cell exhausts retries and is
//                                     quarantined (a coverage gap);
//   QUICKSAND_MATRIX_DEMO_FLAKY_DIR   crash once per (dir, seed) sentinel
//                                     then succeed → proves retry;
//   QUICKSAND_MATRIX_DEMO_HANG_SEED   sleep forever → proves the
//                                     deadline watchdog kills the group.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/hijack.hpp"
#include "bgp/mrt.hpp"
#include "bgp/topology_gen.hpp"
#include "bgp/update.hpp"
#include "common.hpp"
#include "core/monitor.hpp"
#include "core/population_exposure.hpp"
#include "fault/injector.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/path_selection.hpp"
#include "util/parse_num.hpp"

namespace {

using namespace quicksand;

/// The demo's own axis flags, consumed before BenchContext sees argv
/// (BenchContext exits 2 on flags it does not know).
struct Axes {
  std::int64_t scale = 1;
  double fault_rate = 0;
  std::string attack = "none";          // none | hijack | intercept
  std::string countermeasure = "none";  // none | monitor
  std::uint64_t seed = 1;
  std::int64_t days = 2;
  std::int64_t clients = 0;  ///< 0 = no Tor client population leg
};

[[noreturn]] void UsageError(const std::string& message) {
  std::cerr << "matrix_demo: " << message << "\n";
  std::exit(2);
}

/// Pops --scale/--fault-rate/--attack/--countermeasure/--seed/--days out
/// of argv (fail-closed on malformed values) and returns the rest for
/// BenchContext.
Axes ConsumeAxisFlags(int& argc, char** argv) {
  Axes axes;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scale") {
      const auto parsed = util::ParseI64(value());
      if (!parsed || *parsed < 1) UsageError("invalid --scale");
      axes.scale = *parsed;
    } else if (arg == "--fault-rate") {
      const auto parsed = util::ParseF64(value());
      if (!parsed || *parsed < 0 || *parsed > 1) UsageError("invalid --fault-rate");
      axes.fault_rate = *parsed;
    } else if (arg == "--attack") {
      axes.attack = value();
      if (axes.attack != "none" && axes.attack != "hijack" &&
          axes.attack != "intercept") {
        UsageError("invalid --attack (none|hijack|intercept)");
      }
    } else if (arg == "--countermeasure") {
      axes.countermeasure = value();
      if (axes.countermeasure != "none" && axes.countermeasure != "monitor") {
        UsageError("invalid --countermeasure (none|monitor)");
      }
    } else if (arg == "--seed") {
      const auto parsed = util::ParseU64(value());
      if (!parsed) UsageError("invalid --seed");
      axes.seed = *parsed;
    } else if (arg == "--days") {
      const auto parsed = util::ParseI64(value());
      if (!parsed || *parsed < 1 || *parsed > 31) UsageError("invalid --days");
      axes.days = *parsed;
    } else if (arg == "--clients") {
      const auto parsed = util::ParseI64(value());
      if (!parsed || *parsed < 0) UsageError("invalid --clients");
      axes.clients = *parsed;
    } else {
      rest.push_back(argv[i]);
    }
  }
  for (std::size_t i = 0; i < rest.size(); ++i) argv[i] = rest[i];
  argc = static_cast<int>(rest.size());
  return axes;
}

/// True iff the named env hook is set and equals this cell's seed.
bool SeedHook(const char* name, std::uint64_t seed) {
  const std::int64_t value = util::EnvInt64(name, -1);
  return value >= 0 && static_cast<std::uint64_t>(value) == seed;
}

}  // namespace

int main(int argc, char** argv) {
  const Axes axes = ConsumeAxisFlags(argc, argv);
  bench::BenchContext ctx(
      argc, argv, "Matrix demo cell — scaled-down end-to-end pipeline",
      "one (topology, faults, attack, countermeasure) point of an xmat sweep");

  if (SeedHook("QUICKSAND_MATRIX_DEMO_HANG_SEED", axes.seed)) {
    // Wedge forever; only the runner's deadline watchdog ends this cell.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }

  const std::int64_t window = axes.days * 86400;

  const bgp::Topology topology = ctx.Timed("topology", [&] {
    bgp::TopologyParams params;
    params.tier1_count = 4;
    params.transit_count = static_cast<std::size_t>(10 * axes.scale);
    params.eyeball_count = static_cast<std::size_t>(30 * axes.scale);
    params.hosting_count = static_cast<std::size_t>(8 * axes.scale);
    params.content_count = static_cast<std::size_t>(12 * axes.scale);
    params.seed = axes.seed;
    return bgp::GenerateTopology(params);
  });

  const bgp::CollectorSet collectors = ctx.Timed("collectors", [&] {
    bgp::CollectorParams params;
    params.collector_count = 2;
    params.sessions_per_collector = 4;
    params.seed = axes.seed + 1;
    return bgp::CollectorSet::Create(topology, params);
  });

  bgp::GeneratedDynamics dynamics = ctx.Timed("dynamics", [&] {
    bgp::DynamicsParams params;
    params.window = window;
    params.seed = axes.seed;
    params.threads = ctx.threads();
    return bgp::GenerateDynamics(topology, collectors, params);
  });

  if (SeedHook("QUICKSAND_MATRIX_DEMO_ABORT_SEED", axes.seed)) {
    // Unconditional crash: every attempt dies here, so the runner
    // retries, gives up, and quarantines this cell.
    std::_Exit(42);
  }
  if (const char* flaky_dir = std::getenv("QUICKSAND_MATRIX_DEMO_FLAKY_DIR");
      flaky_dir != nullptr && *flaky_dir != '\0') {
    const std::string sentinel =
        std::string(flaky_dir) + "/flaky_seed_" + std::to_string(axes.seed);
    if (std::ifstream probe(sentinel); !probe) {
      std::ofstream(sentinel) << "crashed once\n";
      std::_Exit(55);  // first attempt crashes; retries find the sentinel
    }
  }

  // Attack leg: the attacker is a hosting AS (bulletproof hoster in the
  // paper's framing), the victim the first prefix-bearing eyeball AS —
  // the relay's network. Executed on the routing graph for the capture
  // headline, then spliced into the update feed as bogus announcements so
  // the monitor countermeasure has something to catch.
  double capture_fraction = 0;
  std::int64_t traffic_delivered = 0;
  netbase::Prefix announced_prefix;
  if (axes.attack != "none") {
    const auto victim_it =
        std::find_if(topology.eyeballs.begin(), topology.eyeballs.end(),
                     [&](bgp::AsNumber as) { return !topology.PrefixesOf(as).empty(); });
    if (victim_it == topology.eyeballs.end()) {
      std::cerr << "matrix_demo: no prefix-bearing eyeball AS to attack\n";
      return 1;
    }
    bgp::AttackSpec spec;
    spec.victim = *victim_it;
    spec.attacker = topology.hostings.front();
    spec.victim_prefix = topology.PrefixesOf(spec.victim).front();
    spec.more_specific = false;
    spec.keep_alive = (axes.attack == "intercept");
    const bgp::AttackOutcome outcome = ctx.Timed("attack", [&] {
      return bgp::HijackSimulator(topology.graph).Execute(spec);
    });
    capture_fraction = outcome.capture_fraction;
    traffic_delivered = outcome.traffic_delivered ? 1 : 0;
    announced_prefix = outcome.announced_prefix;
    // The collectors see the hijack: one bogus origin announcement per
    // session, mid-window, AS path ending at the attacker.
    const bgp::AsPath bogus_path({spec.attacker});
    for (const bgp::PeerSession& session : collectors.sessions()) {
      dynamics.updates.push_back({netbase::SimTime{window / 2}, session.id,
                                  bgp::UpdateType::kAnnounce, announced_prefix,
                                  bogus_path});
    }
    bgp::SortUpdates(dynamics.updates);
  }

  // Wire round trip through the configured codec: the feed the analyzers
  // see went through --format's serialize+parse, so a codec bug surfaces
  // as a deterministic-output diff, not silently.
  const std::string wire =
      ctx.Timed("wire", [&] { return bench::SerializeWire(ctx.format(), dynamics.updates); });
  const std::vector<bgp::BgpUpdate> decoded = ctx.Timed("decode", [&] {
    auto stream = bench::OpenWireStream(
        ctx.format(), std::make_shared<bgp::feed::AsPathTable>(), wire);
    return bgp::feed::Materialize(std::move(stream));
  });
  if (decoded != dynamics.updates) {
    std::cerr << "matrix_demo: wire round trip diverged\n";
    return 1;
  }

  // Fault leg: rot the archived text, re-parse leniently, then perturb
  // the surviving stream with session flaps/loss/delay.
  std::vector<bgp::BgpUpdate> feed_updates = decoded;
  std::size_t parse_bad_lines = 0;
  std::size_t fault_dropped = 0;
  if (axes.fault_rate > 0) {
    const fault::FaultInjector injector(
        fault::FaultPlan::Scaled(axes.fault_rate, axes.seed, window));
    feed_updates = ctx.Timed("faults", [&] {
      const fault::FaultedText rotten =
          injector.CorruptText(bgp::mrt::ToText(feed_updates));
      auto stats = std::make_shared<bgp::mrt::ParseStats>();
      bgp::mrt::ParseStreamOptions options;
      options.lenient = true;
      options.stats = stats;
      std::vector<bgp::BgpUpdate> parsed = bgp::feed::Materialize(bgp::mrt::ParseStream(
          std::make_shared<bgp::feed::AsPathTable>(), rotten.text, options));
      parse_bad_lines = stats->bad_lines;
      fault::FaultedStream stream =
          injector.PerturbStream(dynamics.initial_rib, parsed);
      fault_dropped = stream.stats.dropped_down + stream.stats.dropped_loss;
      return std::move(stream.updates);
    });
  }

  // The analysis stages take records: the RIB and the feed share one
  // table, as the sanitizer's id compare needs.
  auto table = std::make_shared<bgp::feed::AsPathTable>();
  const std::vector<bgp::feed::UpdateRec> rib =
      bench::InternRecords(*table, dynamics.initial_rib);
  const bgp::SanitizedRecords feed = ctx.Timed("sanitize", [&] {
    return bgp::SanitizeRecords(rib, bench::InternRecords(*table, feed_updates));
  });

  bgp::ChurnParams churn_params;
  churn_params.window_end_s = window;
  const bgp::ChurnAnalyzer churn = ctx.Timed("churn", [&] {
    return bgp::AnalyzeChurnStream(bgp::feed::FromRecords(table, rib),
                                   bgp::feed::FromRecords(table, feed.updates),
                                   churn_params, ctx.threads());
  });

  // Countermeasure leg: the monitor watches every originated prefix
  // (which covers the victim's), learns the pre-attack baseline, and
  // consumes the sanitized feed.
  std::size_t alerts = 0;
  std::size_t alerts_suppressed = 0;
  std::int64_t attack_detected = 0;
  if (axes.countermeasure == "monitor") {
    ctx.Timed("monitor", [&] {
      std::unordered_set<netbase::Prefix> monitored;
      for (const bgp::PrefixOrigin& origin : topology.prefix_origins) {
        monitored.insert(origin.prefix);
      }
      core::RelayMonitor monitor(std::move(monitored));
      for (const bgp::feed::UpdateRec& rec : rib) monitor.LearnRecord(rec, *table);
      for (const bgp::feed::UpdateRec& rec : feed.updates) {
        for (const core::Alert& alert : monitor.ConsumeRecord(rec, *table)) {
          if (axes.attack != "none" && alert.announced_prefix == announced_prefix) {
            attack_detected = 1;
          }
        }
      }
      alerts = monitor.AlertCounts().total();
      alerts_suppressed = monitor.SuppressedDuplicates();
      return 0;
    });
  }

  // Population leg (off by default): how exposed would a Tor client
  // population homed in this cell's eyeball ASes be to a 10%-bandwidth
  // relay adversary over the cell's window?
  core::PopulationExposureResult population;
  if (axes.clients > 0) {
    const tor::GeneratedConsensus cell_consensus = ctx.Timed("consensus", [&] {
      tor::ConsensusGenParams params;
      params.total_relays = static_cast<std::size_t>(160 * axes.scale);
      params.guard_only = static_cast<std::size_t>(50 * axes.scale);
      params.exit_only = static_cast<std::size_t>(40 * axes.scale);
      params.guard_exit = static_cast<std::size_t>(16 * axes.scale);
      params.seed = axes.seed + 2;
      return tor::GenerateConsensus(topology, params);
    });
    const tor::PathSelector selector(cell_consensus.consensus);
    core::PopulationExposureParams params;
    params.clients = static_cast<std::size_t>(axes.clients);
    params.days = static_cast<std::size_t>(axes.days);
    params.seed = axes.seed + 3;
    params.threads = ctx.threads();
    population = ctx.Timed("population", [&] {
      return core::SimulatePopulationExposure(selector, topology.eyeballs, params);
    });
  }

  std::cout << "  cell: scale=" << axes.scale << " fault_rate=" << axes.fault_rate
            << " attack=" << axes.attack << " countermeasure=" << axes.countermeasure
            << " seed=" << axes.seed << "\n  " << dynamics.updates.size()
            << " updates, " << feed.updates.size() << " sanitized, " << alerts
            << " alerts, capture_fraction=" << capture_fraction << "\n";

  // Echo the axes into results so the merged matrix is self-describing,
  // then the deterministic cell outputs. No wall-clock values here.
  ctx.Result("scale", obs::JsonValue(axes.scale));
  ctx.Result("fault_rate", obs::JsonValue(axes.fault_rate));
  ctx.Result("attack", obs::JsonValue(axes.attack));
  ctx.Result("countermeasure", obs::JsonValue(axes.countermeasure));
  ctx.Result("seed", obs::JsonValue(static_cast<std::int64_t>(axes.seed)));
  ctx.Result("days", obs::JsonValue(axes.days));
  ctx.Result("updates", obs::JsonValue(static_cast<std::int64_t>(dynamics.updates.size())));
  ctx.Result("parse_bad_lines", obs::JsonValue(static_cast<std::int64_t>(parse_bad_lines)));
  ctx.Result("fault_dropped", obs::JsonValue(static_cast<std::int64_t>(fault_dropped)));
  ctx.Result("sanitized_updates",
             obs::JsonValue(static_cast<std::int64_t>(feed.updates.size())));
  ctx.Result("churn_dropped",
             obs::JsonValue(static_cast<std::int64_t>(churn.DroppedOutOfOrder())));
  ctx.Result("capture_fraction", obs::JsonValue(capture_fraction));
  ctx.Result("traffic_delivered", obs::JsonValue(traffic_delivered));
  ctx.Result("alerts", obs::JsonValue(static_cast<std::int64_t>(alerts)));
  ctx.Result("alerts_suppressed",
             obs::JsonValue(static_cast<std::int64_t>(alerts_suppressed)));
  ctx.Result("attack_detected", obs::JsonValue(attack_detected));
  // Population keys exist only when the leg ran, so --clients 0 cells
  // stay byte-identical to pre-population builds.
  if (axes.clients > 0) {
    ctx.Result("clients", obs::JsonValue(axes.clients));
    ctx.Result("population_circuits",
               obs::JsonValue(static_cast<std::int64_t>(population.circuits)));
    ctx.Result("population_rotations",
               obs::JsonValue(static_cast<std::int64_t>(population.rotations)));
    ctx.Result("population_final_fraction", obs::JsonValue(population.final_fraction));
    ctx.Result("population_client_ases",
               obs::JsonValue(static_cast<std::int64_t>(population.per_as.size())));
  }
  ctx.Finish();
  return 0;
}
