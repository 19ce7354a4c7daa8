// Chaos harness for quicksandd (docs/DAEMON.md).
//
// Replays a seeded two-collector world through the resident daemon under a
// fault::FaultInjector schedule and checks the robustness contracts:
//
//   * liveness — at rate 0 every session ends Established with zero flaps
//     and zero shed records;
//   * batch equivalence — at rate 0 the daemon's incremental churn state
//     and alert set must equal the batch pipeline on the same feed (the
//     bench exits 1 on any divergence: the resident path is only
//     trustworthy if idling costs nothing in fidelity);
//   * warm restart — with --checkpoint the daemon snapshots on a cadence,
//     and the QUICKSAND_DAEMON_KILL_AFTER=<n> fault hook SIGKILLs the
//     process a few steps after the n-th snapshot (no destructors — a real
//     crash). A --resume run restores from the snapshot and must emit a
//     byte-identical alert dump (--alerts-out) to an uninterrupted run;
//     scripts/daemon_chaos_smoke.sh drives exactly that comparison.
//
// Flags:
//   --rate <r>          fault intensity in [0, 1] (default 0; 0 enables
//                       the batch equivalence self-check)
//   --seed <n>          fault plan seed (default 33)
//   --days <n>          replay window in days, > 0 (default 7)
//   --step <s>          replay step seconds, > 0 (default 60; must stay
//                       below the session hold time)
//   --checkpoint <file> snapshot path + enables checkpointing (6h cadence)
//   --resume            restore from --checkpoint before replaying
//   --alerts-out <file> write the final alert dump here
//   --json <file>       machine-readable summary
//
// Exit codes: 0 ok, 1 contract violation, 2 usage/setup error.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/topology_gen.hpp"
#include "core/monitor.hpp"
#include "daemon/driver.hpp"
#include "daemon/quicksandd.hpp"
#include "fault/injector.hpp"
#include "obs/json.hpp"
#include "util/atomic_file.hpp"
#include "util/parse_num.hpp"

namespace {

using namespace quicksand;

struct Options {
  double rate = 0.0;
  std::uint64_t seed = 33;
  std::int64_t days = 7;
  std::int64_t step_s = 60;
  std::string checkpoint;
  bool resume = false;
  std::string alerts_out;
  std::string json;
};

[[noreturn]] void InvalidValue(const std::string& flag, const std::string& value) {
  std::cerr << "invalid " << flag << " value: " << value << "\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  // Numeric flags parse the whole value or exit 2: std::stoll reads "7x"
  // as 7, std::stoull wraps "-1", and both abort on "abc" by throwing.
  constexpr std::int64_t kMaxDays =
      std::numeric_limits<std::int64_t>::max() / netbase::duration::kDay;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--rate") {
      const std::string value = next("--rate");
      const std::optional<double> rate = util::ParseF64(value);
      if (!rate || *rate < 0 || *rate > 1) InvalidValue(arg, value);
      options.rate = *rate;
    } else if (arg == "--seed") {
      const std::string value = next("--seed");
      const std::optional<std::uint64_t> seed = util::ParseU64(value);
      if (!seed) InvalidValue(arg, value);
      options.seed = *seed;
    } else if (arg == "--days") {
      const std::string value = next("--days");
      const std::optional<std::int64_t> days = util::ParseI64(value);
      if (!days || *days <= 0 || *days > kMaxDays) InvalidValue(arg, value);
      options.days = *days;
    } else if (arg == "--step") {
      const std::string value = next("--step");
      const std::optional<std::int64_t> step = util::ParseI64(value);
      if (!step || *step <= 0) InvalidValue(arg, value);
      options.step_s = *step;
    } else if (arg == "--checkpoint") {
      options.checkpoint = next("--checkpoint");
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--alerts-out") {
      options.alerts_out = next("--alerts-out");
    } else if (arg == "--json") {
      options.json = next("--json");
    } else {
      std::cerr << "unknown flag " << arg << "\n"
                << "usage: daemon_chaos [--rate r] [--seed n] [--days n] [--step s]\n"
                << "                    [--checkpoint file] [--resume]\n"
                << "                    [--alerts-out file] [--json file]\n";
      std::exit(2);
    }
  }
  // Fail fast on unwritable report paths — before the replay runs, like
  // every other bench (exit 2). The checkpoint path is exempt: probing it
  // would materialize an empty snapshot file and change --resume's
  // missing-vs-corrupt diagnostics.
  for (const std::string& path : {options.alerts_out, options.json}) {
    if (path.empty()) continue;
    if (!std::ofstream(path, std::ios::app)) {
      std::cerr << "cannot open output path " << path << "\n";
      std::exit(2);
    }
  }
  return options;
}

struct World {
  bgp::Topology topology;
  bgp::CollectorSet collectors;
  bgp::GeneratedDynamics dynamics;
};

/// Same seeded two-collector world as tests/daemon/daemon_test.cpp, so a
/// contract violation here reproduces under the unit tests directly.
World MakeWorld(std::int64_t window_s) {
  World world;
  bgp::TopologyParams tp;
  tp.tier1_count = 3;
  tp.transit_count = 12;
  tp.eyeball_count = 15;
  tp.hosting_count = 6;
  tp.content_count = 10;
  tp.seed = 17;
  world.topology = bgp::GenerateTopology(tp);
  bgp::CollectorParams cp;
  cp.collector_count = 2;
  cp.sessions_per_collector = 6;
  cp.seed = 18;
  world.collectors = bgp::CollectorSet::Create(world.topology, cp);
  bgp::DynamicsParams dp;
  dp.window = window_s;
  dp.seed = 19;
  world.dynamics = bgp::GenerateDynamics(world.topology, world.collectors, dp);
  return world;
}

/// Alert identity modulo arrival order (the monitor's documented
/// order-insensitivity contract).
std::vector<std::string> AlertKeySet(const std::vector<core::Alert>& alerts) {
  std::vector<std::string> keys;
  keys.reserve(alerts.size());
  for (const core::Alert& alert : alerts) {
    keys.push_back(std::string(core::ToString(alert.kind)) + "|" +
                   alert.monitored_prefix.ToString() + "|" +
                   alert.announced_prefix.ToString() + "|" +
                   std::to_string(alert.suspect));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Rate-0 contract: incremental daemon state == batch pipeline output.
int CheckBatchEquivalence(daemon::Daemon& d, const World& world,
                          const fault::FaultPlan& plan, std::int64_t window_s) {
  const fault::FaultInjector injector(plan);
  auto table = std::make_shared<bgp::feed::AsPathTable>();
  std::vector<bgp::feed::UpdateRec> rib =
      bgp::feed::InternRecords(*table, world.dynamics.initial_rib);
  fault::FaultedRecords base = injector.PerturbRecords(
      rib, bgp::feed::InternRecords(*table, world.dynamics.updates));

  bgp::ChurnParams churn_params;
  churn_params.window_end_s = window_s;
  const bgp::ChurnAnalyzer batch = bgp::AnalyzeChurnStream(
      bgp::feed::FromRecords(table, rib), bgp::feed::FromRecords(table, base.updates),
      churn_params);
  d.churn().Finish();
  if (!(d.churn().entries() == batch.entries())) {
    std::cerr << "FAIL: daemon churn entries diverge from batch AnalyzeChurnStream\n";
    return 1;
  }

  core::RelayMonitor batch_monitor(d.config().monitored_prefixes);
  bgp::feed::UpdateStream baseline = bgp::feed::FromRecords(table, std::move(rib));
  batch_monitor.LearnBaselineStream(baseline);
  bgp::feed::UpdateStream updates = bgp::feed::FromRecords(table, std::move(base.updates));
  static_cast<void>(batch_monitor.ConsumeStream(updates));
  if (AlertKeySet(d.monitor().alerts()) != AlertKeySet(batch_monitor.alerts())) {
    std::cerr << "FAIL: daemon alert set diverges from batch RelayMonitor ("
              << d.monitor().alerts().size() << " vs "
              << batch_monitor.alerts().size() << ")\n";
    return 1;
  }

  for (const auto& [session, tally] : d.ingest().tallies()) {
    if (d.Session(session).flaps() != 0 || tally.shed_records != 0) {
      std::cerr << "FAIL: session " << session << " flapped or shed at rate 0\n";
      return 1;
    }
  }
  std::cout << "rate-0 self-check: daemon == batch pipeline ("
            << d.monitor().alerts().size() << " alerts, "
            << d.churn().entries().size() << " churn entries)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::int64_t window_s = options.days * netbase::duration::kDay;

  // SIGKILL after the n-th snapshot plus a few steps of un-snapshotted
  // work — the crash the smoke script recovers from. Fail closed on a
  // malformed value: a typo'd hook silently parsing to 0 would turn the
  // chaos leg into a no-op that still reports success.
  std::int64_t kill_after = 0;
  try {
    kill_after = util::EnvInt64("QUICKSAND_DAEMON_KILL_AFTER", 0);
  } catch (const std::exception& error) {
    std::cerr << "daemon_chaos: " << error.what() << "\n";
    return 2;
  }

  const World world = MakeWorld(window_s);
  const fault::FaultPlan plan =
      fault::FaultPlan::Scaled(options.rate, options.seed, window_s);

  daemon::DaemonConfig config;
  config.churn.window_end_s = window_s;
  for (const bgp::BgpUpdate& update : world.dynamics.initial_rib) {
    config.monitored_prefixes.insert(update.prefix);
    if (config.monitored_prefixes.size() >= 8) break;
  }
  config.seed = 4711;
  config.checkpoint_path = options.checkpoint;
  config.checkpoint_every_s = 6 * netbase::duration::kHour;

  daemon::Daemon daemon(config);
  daemon::ReplayConfig replay;
  replay.end_s = window_s;
  replay.step_s = options.step_s;
  daemon::ReplayDriver driver(daemon, plan, world.dynamics.initial_rib,
                              world.dynamics.updates, replay);

  if (options.resume) {
    const daemon::RestoreResult restore = daemon.TryRestore();
    if (!restore.restored) {
      std::cerr << "resume requested but restore failed: "
                << (restore.error.empty() ? "no snapshot file" : restore.error)
                << "\n";
      return 2;
    }
    driver.AlignToRestore(restore.snapshot_time_s);
    std::cout << "restored from snapshot at t=" << restore.snapshot_time_s << "\n";
  } else {
    driver.Prime();
  }

  long steps_past_kill_mark = 0;
  while (!driver.Done()) {
    driver.Step();
    if (kill_after > 0 &&
        daemon.SnapshotsWritten() >= static_cast<std::size_t>(kill_after)) {
      if (++steps_past_kill_mark >= 5) {
        std::cout << "kill hook: SIGKILL after " << daemon.SnapshotsWritten()
                  << " snapshots\n" << std::flush;
        std::raise(SIGKILL);
      }
    }
  }

  std::size_t total_flaps = 0;
  std::size_t total_shed = 0;
  for (const auto& [session, tally] : daemon.ingest().tallies()) {
    total_flaps += daemon.Session(session).flaps();
    total_shed += tally.shed_records;
  }
  std::cout << "replayed " << options.days << "d at rate " << options.rate
            << ": sessions=" << daemon.ingest().tallies().size()
            << " flaps=" << total_flaps << " shed=" << total_shed
            << " alerts=" << daemon.monitor().alerts().size()
            << " snapshots=" << daemon.SnapshotsWritten() << "\n";

  if (!options.alerts_out.empty()) {
    quicksand::util::WriteFileAtomic(options.alerts_out, daemon.DumpAlerts());
    std::cout << "alert dump written to " << options.alerts_out << "\n";
  }

  int status = 0;
  if (options.rate == 0.0) {
    status = CheckBatchEquivalence(daemon, world, plan, window_s);
  }

  if (!options.json.empty()) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", "quicksand-daemon-chaos-v1");
    doc.Set("rate", options.rate);
    doc.Set("days", static_cast<std::int64_t>(options.days));
    doc.Set("sessions", static_cast<std::int64_t>(daemon.ingest().tallies().size()));
    doc.Set("flaps", static_cast<std::int64_t>(total_flaps));
    doc.Set("shed_records", static_cast<std::int64_t>(total_shed));
    doc.Set("alerts", static_cast<std::int64_t>(daemon.monitor().alerts().size()));
    doc.Set("snapshots", static_cast<std::int64_t>(daemon.SnapshotsWritten()));
    doc.Set("resumed", options.resume);
    doc.Set("ok", status == 0);
    quicksand::util::WriteFileAtomic(options.json, doc.Dump(2) + "\n");
  }
  return status;
}
