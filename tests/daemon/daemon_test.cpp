// Tentpole acceptance tests for quicksandd:
//   * with fault rate 0, the resident daemon's incremental churn/alert
//     state equals the batch pipeline's results on the same feed;
//   * a daemon killed mid-ingest and restored from its snapshot emits a
//     byte-identical subsequent alert stream;
//   * queries answer, shed under overload, and reject expired deadlines;
//   * the socket server round-trips the real wire path.

#include <gtest/gtest.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/topology_gen.hpp"
#include "ckpt/payload.hpp"
#include "core/monitor.hpp"
#include "daemon/driver.hpp"
#include "daemon/protocol.hpp"
#include "daemon/quicksandd.hpp"
#include "daemon/server.hpp"
#include "daemon/state_codec.hpp"
#include "fault/injector.hpp"

namespace quicksand::daemon {
namespace {

constexpr std::int64_t kWindow = 7 * netbase::duration::kDay;

struct SmallWorld {
  bgp::Topology topology;
  bgp::CollectorSet collectors;
  bgp::GeneratedDynamics dynamics;
};

SmallWorld MakeSmallWorld(std::int64_t window_s) {
  SmallWorld world;
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

std::unordered_set<netbase::Prefix> PickMonitored(const SmallWorld& world,
                                                  std::size_t count) {
  std::unordered_set<netbase::Prefix> monitored;
  for (const bgp::BgpUpdate& update : world.dynamics.initial_rib) {
    monitored.insert(update.prefix);
    if (monitored.size() >= count) break;
  }
  return monitored;
}

DaemonConfig MakeConfig(const SmallWorld& world, std::int64_t window_s,
                        std::size_t monitored_count = 8) {
  DaemonConfig config;
  config.churn.window_end_s = window_s;
  config.monitored_prefixes = PickMonitored(world, monitored_count);
  config.seed = 4711;
  return config;
}

/// Alert identity modulo arrival order: the monitor's documented contract
/// is an order-insensitive alert *set* per anomaly (kind, prefixes,
/// suspect); time/session record which arrival won the idempotence race.
using AlertKey = std::tuple<int, netbase::Prefix, netbase::Prefix, bgp::AsNumber>;

std::vector<AlertKey> AlertKeys(const std::vector<core::Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const core::Alert& alert : alerts) {
    keys.emplace_back(static_cast<int>(alert.kind), alert.monitored_prefix,
                      alert.announced_prefix, alert.suspect);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Daemon, RateZeroMatchesBatchPipeline) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const fault::FaultPlan plan = fault::FaultPlan::Scaled(0.0, 1, kWindow);

  DaemonConfig config = MakeConfig(world, kWindow);
  Daemon daemon(config);
  ReplayConfig replay;
  replay.end_s = kWindow;
  replay.step_s = 60;
  ReplayDriver driver(daemon, plan, world.dynamics.initial_rib,
                      world.dynamics.updates, replay);
  EXPECT_EQ(driver.stream_stats().dropped(), 0u) << "rate 0 must be pass-through";
  driver.Prime();
  driver.Run();

  // Batch reference on the identical (pass-through) feed. PerturbRecords
  // at rate 0 re-sorts canonically; reuse it so both pipelines see the
  // same update sequence.
  const fault::FaultInjector injector(plan);
  auto table = std::make_shared<bgp::feed::AsPathTable>();
  const std::vector<bgp::feed::UpdateRec> rib_records =
      bgp::feed::InternRecords(*table, world.dynamics.initial_rib);
  const fault::FaultedRecords base = injector.PerturbRecords(
      rib_records, bgp::feed::InternRecords(*table, world.dynamics.updates));
  bgp::ChurnParams churn_params;
  churn_params.window_end_s = kWindow;
  bgp::ChurnAnalyzer batch_churn = bgp::AnalyzeChurnStream(
      bgp::feed::FromRecords(table, rib_records),
      bgp::feed::FromRecords(table, base.updates), churn_params);

  daemon.churn().Finish();
  const auto& live_entries = daemon.churn().entries();
  const auto& batch_entries = batch_churn.entries();
  ASSERT_EQ(live_entries.size(), batch_entries.size());
  EXPECT_TRUE(live_entries == batch_entries)
      << "resident churn state must equal batch AnalyzeChurnStream";
  EXPECT_EQ(daemon.churn().DroppedOutOfOrder(), batch_churn.DroppedOutOfOrder());

  core::RelayMonitor batch_monitor(config.monitored_prefixes);
  bgp::feed::UpdateStream rib = bgp::feed::FromRecords(table, rib_records);
  batch_monitor.LearnBaselineStream(rib);
  bgp::feed::UpdateStream updates = bgp::feed::FromRecords(table, base.updates);
  static_cast<void>(batch_monitor.ConsumeStream(updates));
  EXPECT_GT(batch_monitor.alerts().size(), 0u)
      << "world should churn enough to raise alerts, or the test is vacuous";
  EXPECT_EQ(AlertKeys(daemon.monitor().alerts()), AlertKeys(batch_monitor.alerts()));
  EXPECT_EQ(daemon.monitor().AlertCounts().total(), batch_monitor.AlertCounts().total());

  // Every session established exactly once and never flapped.
  for (const auto& [session, tally] : daemon.ingest().tallies()) {
    EXPECT_EQ(daemon.Session(session).flaps(), 0u);
    EXPECT_EQ(daemon.Session(session).establishments(), 1u);
    EXPECT_EQ(tally.shed_records, 0u);
  }
}

TEST(Daemon, ReplayDriverRejectsNonPositiveStep) {
  // Run() steps until Now() reaches end_s, which a zero or negative step
  // never does; the constructor refuses the config instead.
  Daemon daemon(DaemonConfig{});
  const fault::FaultPlan plan = fault::FaultPlan::Scaled(0.0, 1, kWindow);
  for (const std::int64_t step_s : {std::int64_t{0}, std::int64_t{-60}}) {
    ReplayConfig replay;
    replay.end_s = kWindow;
    replay.step_s = step_s;
    EXPECT_THROW(ReplayDriver driver(daemon, plan, {}, {}, replay),
                 std::invalid_argument)
        << "step_s " << step_s;
  }
}

TEST(Daemon, WarmRestartEmitsByteIdenticalAlertStream) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  // Faults on: outages, losses and resync bursts make the replay
  // genuinely adversarial; determinism makes them reproducible.
  const fault::FaultPlan plan = fault::FaultPlan::Scaled(0.05, 33, kWindow);
  ReplayConfig replay;
  replay.end_s = kWindow;
  replay.step_s = 60;

  // Reference: uninterrupted run (checkpointing on — snapshots must not
  // perturb behavior).
  const std::string ref_ckpt = TempPath("quicksandd_test_ref.ckpt");
  std::filesystem::remove(ref_ckpt);
  DaemonConfig ref_config = MakeConfig(world, kWindow);
  ref_config.checkpoint_path = ref_ckpt;
  ref_config.checkpoint_every_s = 6 * netbase::duration::kHour;
  Daemon reference(ref_config);
  ReplayDriver ref_driver(reference, plan, world.dynamics.initial_rib,
                          world.dynamics.updates, replay);
  ref_driver.Prime();
  ref_driver.Run();
  const std::string expected_alerts = reference.DumpAlerts();
  EXPECT_GT(reference.SnapshotsWritten(), 1u);
  EXPECT_FALSE(expected_alerts.empty());

  // Killed run: same config, different checkpoint file; stop abruptly a
  // few steps after the second snapshot (un-snapshotted work in flight).
  const std::string kill_ckpt = TempPath("quicksandd_test_kill.ckpt");
  std::filesystem::remove(kill_ckpt);
  DaemonConfig kill_config = ref_config;
  kill_config.checkpoint_path = kill_ckpt;
  std::int64_t snapshot_time = -1;
  {
    Daemon victim(kill_config);
    ReplayDriver driver(victim, plan, world.dynamics.initial_rib,
                        world.dynamics.updates, replay);
    driver.Prime();
    while (victim.SnapshotsWritten() < 2 && !driver.Done()) driver.Step();
    ASSERT_EQ(victim.SnapshotsWritten(), 2u);
    snapshot_time = driver.Now();
    for (int i = 0; i < 7 && !driver.Done(); ++i) driver.Step();
    // The victim is abandoned here — state lost, snapshot file remains.
  }

  Daemon resumed(kill_config);
  const RestoreResult restore = resumed.TryRestore();
  ASSERT_TRUE(restore.restored) << restore.error;
  EXPECT_EQ(restore.snapshot_time_s, snapshot_time);
  ReplayDriver resumed_driver(resumed, plan, world.dynamics.initial_rib,
                              world.dynamics.updates, replay);
  resumed_driver.AlignToRestore(restore.snapshot_time_s);
  resumed_driver.Run();

  EXPECT_EQ(resumed.DumpAlerts(), expected_alerts)
      << "restored daemon must emit the byte-identical alert stream";

  // The analyzer state also converges exactly, not just the alert log.
  resumed.churn().Finish();
  reference.churn().Finish();
  EXPECT_TRUE(resumed.churn().entries() == reference.churn().entries());

  std::filesystem::remove(ref_ckpt);
  std::filesystem::remove(kill_ckpt);
}

// StateCodec::EncodeChurn is the daemon's warm-restart format, so its
// bytes are pinned: keys ascending, every set sorted. The analyzer is
// snapshotted halfway through a week, with dwell intervals open, keys
// withdrawn and five records dropped as out of order. The constants were
// produced by the std::map/unordered-set analyzer the flat layout
// replaced (commit e06f442).
TEST(StateCodec, ChurnPayloadGoldenHash) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  bgp::ChurnParams params;
  params.window_end_s = kWindow;
  bgp::ChurnAnalyzer analyzer(params);
  bgp::feed::AsPathTable table;
  const auto consume = [&](const bgp::BgpUpdate& update) {
    analyzer.ConsumeRecord(bgp::feed::ToRecord(update, table), table);
  };
  for (const bgp::BgpUpdate& update : world.dynamics.initial_rib) consume(update);
  const std::vector<bgp::BgpUpdate>& updates = world.dynamics.updates;
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) consume(updates[i]);
  for (std::size_t i = 1; i <= 5; ++i) {
    bgp::BgpUpdate stale = updates[half - i];
    stale.time.seconds -= 1000;  // behind its key's newest record: dropped
    consume(stale);
  }
  ASSERT_EQ(analyzer.DroppedOutOfOrder(), 5u);

  ckpt::PayloadWriter writer;
  StateCodec::EncodeChurn(writer, analyzer);
  const std::string payload = writer.Take();
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  EXPECT_EQ(payload.size(), 189'984u);
  EXPECT_EQ(hash, 0xB94623A804A500A8ULL);

  // A restored analyzer encodes to the same bytes.
  bgp::ChurnAnalyzer restored(params);
  ckpt::PayloadReader reader(payload);
  StateCodec::DecodeChurn(reader, restored);
  ckpt::PayloadWriter again;
  StateCodec::EncodeChurn(again, restored);
  EXPECT_EQ(again.Take(), payload);
}

// StateCodec::EncodeMonitor is the daemon's warm-restart format for the
// relay monitor: learned origins and upstreams and both idempotence sets,
// prefixes ascending and members sorted, then the counts and the alert
// log. The monitor has learned the t=0 table and consumed half the week,
// then a repeated origin change, a repeated carve-out and a new upstream
// on one monitored prefix. The constants were computed by the build
// before the monitor classified each prefix once.
TEST(StateCodec, MonitorPayloadGoldenHash) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  const std::unordered_set<netbase::Prefix> monitored = PickMonitored(world, 8);
  core::RelayMonitor monitor(monitored);
  bgp::feed::AsPathTable table;
  for (const bgp::BgpUpdate& update : world.dynamics.initial_rib) {
    monitor.LearnRecord(bgp::feed::ToRecord(update, table), table);
  }
  const std::vector<bgp::BgpUpdate>& updates = world.dynamics.updates;
  const auto consume = [&](const bgp::BgpUpdate& update) {
    (void)monitor.ConsumeRecord(bgp::feed::ToRecord(update, table), table);
  };
  for (std::size_t i = 0; i < updates.size() / 2; ++i) consume(updates[i]);
  const netbase::Prefix target = *std::min_element(monitored.begin(), monitored.end());
  const netbase::Prefix carved(target.network(), target.length() + 1);
  const auto origin = std::find_if(world.dynamics.initial_rib.begin(),
                                   world.dynamics.initial_rib.end(),
                                   [&](const bgp::BgpUpdate& u) { return u.prefix == target; })
                          ->path.origin();
  const netbase::SimTime at{kWindow / 2};
  for (int repeat = 0; repeat < 2; ++repeat) {
    consume({at, 0, bgp::UpdateType::kAnnounce, target, bgp::AsPath{64500, 64666}});
    consume({at, 1, bgp::UpdateType::kAnnounce, carved, bgp::AsPath{64500, origin}});
  }
  consume({at, 0, bgp::UpdateType::kAnnounce, target, bgp::AsPath{64501, origin}});
  ASSERT_GE(monitor.SuppressedDuplicates(), 2u);

  ckpt::PayloadWriter writer;
  StateCodec::EncodeMonitor(writer, monitor);
  const std::string payload = writer.Take();
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  EXPECT_EQ(monitor.alerts().size(), 7u);
  EXPECT_EQ(payload.size(), 1'005u);
  EXPECT_EQ(hash, 0x922539A001A61728ULL);

  // A restored monitor encodes to the same bytes and acts the same.
  core::RelayMonitor restored(monitored);
  ckpt::PayloadReader reader(payload);
  StateCodec::DecodeMonitor(reader, restored);
  ckpt::PayloadWriter again;
  StateCodec::EncodeMonitor(again, restored);
  EXPECT_EQ(again.Take(), payload);
  for (core::RelayMonitor* m : {&monitor, &restored}) {
    for (std::size_t i = updates.size() / 2; i < updates.size(); ++i) {
      (void)m->ConsumeRecord(bgp::feed::ToRecord(updates[i], table), table);
    }
  }
  EXPECT_EQ(restored.alerts(), monitor.alerts());
  EXPECT_EQ(restored.SuppressedDuplicates(), monitor.SuppressedDuplicates());
}

// Malformed payloads must make decoding throw std::runtime_error (which
// the restore path turns into "no snapshot"): an element count inflated
// past what the payload carries must not be allocated first, and a set
// or key list that is not strictly ascending was not written by the
// encoder.
TEST(StateCodec, MalformedPayloadsFailClosed) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
  const auto decode_churn = [](const std::string& payload) {
    bgp::ChurnAnalyzer analyzer;
    ckpt::PayloadReader reader(payload);
    StateCodec::DecodeChurn(reader, analyzer);
  };
  // One state (session 3, 10.0.0.0/8) whose baseline claims 2^60 ASes.
  ckpt::PayloadWriter inflated;
  inflated.U64(0).U64(0).U64(1).U64(3).U64(0x0A000000).U64(8);
  inflated.Bool(true).U64(0).U64(kHuge);
  EXPECT_THROW(decode_churn(inflated.Take()), std::runtime_error);
  // A seen-path hash listed twice.
  ckpt::PayloadWriter repeated;
  repeated.U64(0).U64(2).U64(5).U64(5).U64(0);
  EXPECT_THROW(decode_churn(repeated.Take()), std::runtime_error);
  // The same (session, prefix) key twice, each with an empty state.
  ckpt::PayloadWriter twice;
  twice.U64(0).U64(0).U64(2);
  for (int copy = 0; copy < 2; ++copy) {
    twice.U64(3).U64(0x0A000000).U64(8).Bool(false).U64(0).U64(0).U64(0).Bool(true);
    twice.U64(0).U64(0).U64(0).U64(0).U64(0).U64(0);
  }
  EXPECT_THROW(decode_churn(twice.Take()), std::runtime_error);

  ckpt::PayloadWriter monitor;
  for (int map = 0; map < 4; ++map) monitor.U64(0);  // four empty prefix maps
  monitor.U64(0).U64(0).U64(0).U64(0);               // suppressed, three counts
  monitor.U64(kHuge);                                // alert log claims 2^60
  const std::string monitor_payload = monitor.Take();
  core::RelayMonitor relay_monitor({netbase::Prefix::MustParse("10.0.0.0/8")});
  ckpt::PayloadReader monitor_reader(monitor_payload);
  EXPECT_THROW(StateCodec::DecodeMonitor(monitor_reader, relay_monitor),
               std::runtime_error);
}

TEST(Daemon, RestoreRejectsForeignAndCorruptSnapshots) {
  const SmallWorld world = MakeSmallWorld(netbase::duration::kDay);
  const std::string path = TempPath("quicksandd_test_reject.ckpt");
  std::filesystem::remove(path);

  DaemonConfig config = MakeConfig(world, netbase::duration::kDay);
  config.checkpoint_path = path;
  Daemon daemon(config);
  // No file at all: not restored, not an error.
  const RestoreResult missing = daemon.TryRestore();
  EXPECT_FALSE(missing.restored);
  EXPECT_TRUE(missing.error.empty());

  ASSERT_TRUE(daemon.WriteSnapshot(1000));

  // A different seed is a different replay identity: refuse.
  DaemonConfig foreign = config;
  foreign.seed = config.seed + 1;
  Daemon other(foreign);
  const RestoreResult mismatch = other.TryRestore();
  EXPECT_FALSE(mismatch.restored);
  EXPECT_NE(mismatch.error.find("fingerprint"), std::string::npos);

  // Truncate the file: checksum rejects, daemon starts fresh.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "quicksand-ckpt-v1\ngarbage\n";
  }
  Daemon fresh(config);
  const RestoreResult corrupt = fresh.TryRestore();
  EXPECT_FALSE(corrupt.restored);
  EXPECT_FALSE(corrupt.error.empty());
  std::filesystem::remove(path);
}

TEST(Daemon, QueriesAnswerShedAndExpire) {
  const SmallWorld world = MakeSmallWorld(netbase::duration::kDay);
  const fault::FaultPlan plan = fault::FaultPlan::Scaled(0.0, 1, netbase::duration::kDay);
  DaemonConfig config = MakeConfig(world, netbase::duration::kDay);
  Daemon daemon(config);
  ReplayConfig replay;
  replay.end_s = netbase::duration::kDay;
  replay.step_s = 60;
  ReplayDriver driver(daemon, plan, world.dynamics.initial_rib,
                      world.dynamics.updates, replay);
  driver.Prime();
  driver.Run();
  const std::int64_t now = driver.Now();

  EXPECT_EQ(daemon.HandleRequest("ping", now), "ok pong");
  EXPECT_EQ(daemon.HandleRequest("bogus", now).substr(0, 3), "err");

  const std::string health = daemon.HandleRequest("health", now);
  EXPECT_EQ(health.substr(0, 3), "ok ");
  EXPECT_NE(health.find("sessions=12"), std::string::npos);
  EXPECT_NE(health.find("state=established"), std::string::npos);

  const std::string alerts = daemon.HandleRequest("alerts 0", now);
  EXPECT_NE(alerts.find("count=" + std::to_string(daemon.monitor().alerts().size())),
            std::string::npos);
  // "alerts in the last simulated hour" is the same query with a since.
  const std::string recent =
      daemon.HandleRequest("alerts " + std::to_string(now - 3600), now);
  EXPECT_EQ(recent.substr(0, 3), "ok ");

  // Exposure answers straight from live churn state.
  const netbase::Prefix target = *config.monitored_prefixes.begin();
  const std::vector<bgp::AsNumber> on_path = daemon.churn().CurrentOnPathAses(target);
  ASSERT_FALSE(on_path.empty());
  const std::string exposed = daemon.HandleRequest(
      "exposure " + std::to_string(on_path.front()) + " " + target.ToString(), now);
  EXPECT_NE(exposed.find("exposed=1"), std::string::npos);
  const std::string unexposed =
      daemon.HandleRequest("exposure 4294900000 " + target.ToString(), now);
  EXPECT_NE(unexposed.find("exposed=0"), std::string::npos);

  // Expired deadline: rejected, not served stale.
  EXPECT_EQ(daemon.HandleRequest("alerts 0", now, now - 1).substr(0, 12), "err deadline");

  // Overload: cheap queries answer, expensive ones shed.
  DaemonConfig tiny = MakeConfig(world, netbase::duration::kDay);
  tiny.budget.max_records_per_session = 8;
  tiny.budget.overload_fraction = 0.5;
  Daemon overloaded(tiny);
  static_cast<void>(overloaded.OfferBatch(1, std::vector<bgp::feed::UpdateRec>(6)));
  ASSERT_TRUE(overloaded.ingest().Overloaded());
  EXPECT_EQ(overloaded.HandleRequest("ping", 0), "ok pong");
  EXPECT_EQ(overloaded.HandleRequest("alerts 0", 0).substr(0, 8), "err busy");
  EXPECT_EQ(overloaded.HandleRequest("health", 0).substr(0, 3), "ok ");
}

TEST(Daemon, UnixSocketServerRoundTrips) {
  const SmallWorld world = MakeSmallWorld(netbase::duration::kDay);
  DaemonConfig config = MakeConfig(world, netbase::duration::kDay);
  Daemon daemon(config);

  const std::string socket_path =
      TempPath("quicksandd_test_" + std::to_string(::getpid()) + ".sock");
  UnixSocketServer server(socket_path);
  std::thread serve([&] {
    static_cast<void>(server.ServeOne(daemon, [] { return std::int64_t{0}; }));
  });
  const std::vector<std::string> responses =
      QueryUnixSocket(socket_path, {"ping", "health", "alerts 0", "nonsense"});
  serve.join();

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], "ok pong");
  EXPECT_EQ(responses[1].substr(0, 2), "ok");
  EXPECT_EQ(responses[2].substr(0, 2), "ok");
  EXPECT_EQ(responses[3].substr(0, 3), "err");
}

TEST(Daemon, ServerSurvivesClientDisconnectMidResponse) {
  const SmallWorld world = MakeSmallWorld(kWindow);
  Daemon daemon(MakeConfig(world, kWindow));

  const std::string socket_path =
      TempPath("quicksandd_gone_" + std::to_string(::getpid()) + ".sock");
  UnixSocketServer server(socket_path);

  // Raw client: connect (the listen backlog accepts before ServeOne
  // does), queue two framed requests, and vanish without ever reading a
  // byte of response.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof address),
            0);
  const std::string bytes = EncodeFrame("ping") + EncodeFrame("health");
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ASSERT_EQ(::close(fd), 0);

  // The server accepts the already-closed connection and tries to answer:
  // on AF_UNIX the response write hits EPIPE immediately. Historically
  // that raised SIGPIPE and killed the whole daemon process; now it must
  // be a clean connection drop, served count 0.
  EXPECT_EQ(server.ServeOne(daemon, [] { return std::int64_t{0}; }), 0u);

  // And the listener is still healthy for the next, well-behaved client.
  std::thread serve([&] {
    static_cast<void>(server.ServeOne(daemon, [] { return std::int64_t{0}; }));
  });
  const std::vector<std::string> responses = QueryUnixSocket(socket_path, {"ping"});
  serve.join();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0], "ok pong");
}

}  // namespace
}  // namespace quicksand::daemon
