// Robustness sweep: the figure-level pipeline outputs under deterministic
// fault injection, swept from 0% to 10% (docs/ROBUSTNESS.md).
//
// Per rate, the full collector → analysis pipeline runs with every choke
// point faulted at once:
//
//   WriteStream → CorruptText → lenient ParseStream (chunk boundaries
//   split lines mid-record) → PerturbRecords → SanitizeRecords →
//   AnalyzeChurnStream + RelayMonitor::ConsumeStream (plus one retried
//   write/read cycle through the injector's I/O wrapper), on records in
//   the AsPathTable that holds the rate's RIB from the parse on,
//
// and the sweep records what was dropped, retried, and alerted alongside
// the Fig. 3 (left) headline statistic. Two contracts are checked hard
// (exit 1 on violation): the rate-0 pipeline — including its streaming
// serialize/parse legs and the --format wire codec's round trip — is
// identical to an injector-free run on the generated feed, and every
// per-rate output is identical for any --threads value. The corruption sweep
// itself always rots the *text* archive: the injector's fault model is
// line-level, and a flipped byte in a checksummed QMRT block discards
// the whole block by design (fail-closed; see the qmrt corruption
// tests), which is a different robustness story than graceful per-line
// loss. Writes fault_sweep.csv.

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "ckpt/sweep.hpp"
#include "common.hpp"
#include "core/monitor.hpp"
#include "fault/injector.hpp"
#include "obs/span.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace quicksand;

constexpr std::int64_t kWindow = 7 * 86400;  // one week keeps the sweep quick
constexpr std::uint64_t kFaultSeed = 20140601;

/// Everything one sweep point produces. Scalars only (the sanitized feed
/// is summarized as a count + content hash) so a point checkpoints as a
/// small shard payload and the zero-rate contract survives a resume.
struct SweepPoint {
  double rate = 0;
  bgp::mrt::ParseStats parse;
  fault::StreamFaultStats stream;
  std::size_t sanitized_updates = 0;  ///< |SanitizeRecords(...).updates|
  std::uint64_t feed_hash = 0;        ///< FeedHash of the sanitized records
  std::size_t churn_dropped = 0;
  std::size_t io_retries = 0;
  std::size_t io_injected = 0;
  std::size_t alerts = 0;
  std::size_t alerts_suppressed = 0;
  double fraction_ratio_above_one = 0;
};

void EncodePoint(const SweepPoint& point, ckpt::PayloadWriter& payload) {
  payload.Dbl(point.rate);
  payload.U64(point.parse.total_lines).U64(point.parse.parsed).U64(point.parse.bad_lines);
  payload.U64(point.stream.input_updates).U64(point.stream.output_updates);
  payload.U64(point.stream.dropped_down).U64(point.stream.dropped_loss);
  payload.U64(point.stream.delayed).U64(point.stream.resync_injected);
  payload.U64(point.stream.flapped_sessions).U64(point.stream.flaps);
  payload.U64(point.sanitized_updates).U64(point.feed_hash);
  payload.U64(point.churn_dropped).U64(point.io_retries).U64(point.io_injected);
  payload.U64(point.alerts).U64(point.alerts_suppressed);
  payload.Dbl(point.fraction_ratio_above_one);
}

SweepPoint DecodePoint(ckpt::PayloadReader& payload) {
  SweepPoint point;
  point.rate = payload.Dbl();
  point.parse.total_lines = payload.U64();
  point.parse.parsed = payload.U64();
  point.parse.bad_lines = payload.U64();
  point.stream.input_updates = payload.U64();
  point.stream.output_updates = payload.U64();
  point.stream.dropped_down = payload.U64();
  point.stream.dropped_loss = payload.U64();
  point.stream.delayed = payload.U64();
  point.stream.resync_injected = payload.U64();
  point.stream.flapped_sessions = payload.U64();
  point.stream.flaps = payload.U64();
  point.sanitized_updates = payload.U64();
  point.feed_hash = payload.U64();
  point.churn_dropped = payload.U64();
  point.io_retries = payload.U64();
  point.io_injected = payload.U64();
  point.alerts = payload.U64();
  point.alerts_suppressed = payload.U64();
  point.fraction_ratio_above_one = payload.Dbl();
  return point;
}

/// Content hash of a record feed: every record's fields plus its path's
/// table-independent hop hash (AsPathTable::PathHash), so one feed
/// interned into two different tables hashes alike.
std::uint64_t FeedHash(const std::vector<bgp::feed::UpdateRec>& records,
                       const bgp::feed::AsPathTable& table) {
  std::uint64_t hash = 0;
  const auto mix = [&hash](std::uint64_t field) {
    hash ^= field + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  };
  for (const bgp::feed::UpdateRec& rec : records) {
    mix(static_cast<std::uint64_t>(rec.time.seconds));
    mix(rec.session);
    mix(static_cast<std::uint64_t>(rec.type));
    mix(rec.prefix.network().value());
    mix(rec.prefix.length());
    mix(table.PathHash(rec.path));
  }
  return hash;
}

std::string RateKey(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "rate_%.3f", rate);
  return buffer;
}

SweepPoint RunSweepPoint(const bench::Scenario& scenario,
                         const bgp::GeneratedDynamics& dynamics,
                         const std::string& text, double rate, std::size_t threads) {
  SweepPoint point;
  point.rate = rate;
  const fault::FaultInjector injector(
      fault::FaultPlan::Scaled(rate, kFaultSeed, kWindow));
  // The RIB and the parsed feed share one table, as the sanitizer's id
  // compare needs; every later stage reads records on it.
  auto table = std::make_shared<bgp::feed::AsPathTable>();
  std::vector<bgp::feed::UpdateRec> rib =
      bgp::feed::InternRecords(*table, dynamics.initial_rib);

  // Choke point 1: the archived text rots, and parsing degrades
  // gracefully — through the chunked streaming parser, whose fixed-size
  // chunk boundaries routinely split lines mid-record.
  const fault::FaultedText faulted = [&] {
    const obs::ScopedSpan span("fault.corrupt");
    return injector.CorruptText(text);
  }();
  auto parse_stats = std::make_shared<bgp::mrt::ParseStats>();
  std::vector<bgp::feed::UpdateRec> parsed = [&] {
    const obs::ScopedSpan span("bgp.mrt.parse");
    bgp::mrt::ParseStreamOptions parse_options;
    parse_options.lenient = true;
    parse_options.stats = parse_stats;
    bgp::feed::UpdateStream stream = bgp::mrt::ParseStream(table, faulted.text, parse_options);
    return bgp::feed::Drain(stream);
  }();
  point.parse = *parse_stats;

  // Choke point 2: sessions flap, lose, delay, and resync.
  // The closure owns the parsed records, so they are freed with it.
  fault::FaultedRecords stream = [&, parsed = std::move(parsed)] {
    const obs::ScopedSpan span("fault.perturb");
    return injector.PerturbRecords(rib, parsed);
  }();
  point.stream = stream.stats;

  // Choke point 3: archive the initial RIB in per-collector shards, each
  // write and read-back retried through the injector.
  std::size_t read_back = 0;
  {
    const obs::ScopedSpan span("fault.io");
    constexpr std::size_t kIoShards = 4;
    const std::string io_path = "fault_sweep_io.tmp";
    for (std::size_t shard = 0; shard < kIoShards; ++shard) {
      std::vector<bgp::BgpUpdate> slice;
      for (std::size_t i = shard; i < dynamics.initial_rib.size(); i += kIoShards) {
        slice.push_back(dynamics.initial_rib[i]);
      }
      fault::IoFaultStats write_stats, read_stats;
      injector.WriteMrtFile(io_path, slice, &write_stats, /*op_index=*/2 * shard);
      read_back +=
          injector.ReadMrtFile(io_path, &read_stats, /*op_index=*/2 * shard + 1).size();
      point.io_retries += write_stats.retries + read_stats.retries;
      point.io_injected += write_stats.injected_failures + read_stats.injected_failures;
    }
    std::remove(io_path.c_str());
  }
  if (read_back != dynamics.initial_rib.size()) {
    throw std::runtime_error("fault_sweep: retried I/O lost records");
  }

  // Degraded-but-standing analysis on the record plane.
  bgp::SanitizedRecords feed = bgp::SanitizeRecords(rib, std::move(stream.updates));
  point.sanitized_updates = feed.updates.size();
  point.feed_hash = FeedHash(feed.updates, *table);
  bgp::ChurnParams churn_params;
  churn_params.window_end_s = kWindow;
  const bgp::ChurnAnalyzer analyzer = bgp::AnalyzeChurnStream(
      bgp::feed::FromRecords(table, rib), bgp::feed::FromRecords(table, feed.updates),
      churn_params, threads);
  point.churn_dropped = analyzer.DroppedOutOfOrder();
  const auto ratios = analyzer.RatioToSessionMedian(
      scenario.prefix_map.TorPrefixes(scenario.consensus.consensus));
  point.fraction_ratio_above_one =
      ratios.empty() ? 0.0 : util::FractionAtLeast(ratios, 1.0 + 1e-9);

  // The monitor pass is the last use of the RIB and the sanitized feed.
  const obs::ScopedSpan span("core.monitor");
  core::RelayMonitor monitor(
      scenario.prefix_map.TorPrefixes(scenario.consensus.consensus));
  bgp::feed::UpdateStream baseline = bgp::feed::FromRecords(table, std::move(rib));
  monitor.LearnBaselineStream(baseline);
  bgp::feed::UpdateStream monitor_feed =
      bgp::feed::FromRecords(table, std::move(feed.updates));
  (void)monitor.ConsumeStream(monitor_feed);
  point.alerts = monitor.AlertCounts().total();
  point.alerts_suppressed = monitor.SuppressedDuplicates();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(
      argc, argv,
      "Fault sweep — pipeline robustness under injected collector faults",
      "figure-level outputs shift smoothly (no crashes, no cliffs) as fault "
      "rates sweep 0% to 10%");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const bgp::GeneratedDynamics dynamics = ctx.Timed("dynamics", [&] {
    bgp::DynamicsParams dp;
    dp.window = kWindow;
    dp.seed = 20140502;
    dp.threads = ctx.threads();
    return bgp::GenerateDynamics(scenario.topology, scenario.collectors, dp);
  });
  // Serialize through the incremental writer: records stream off the feed
  // layer in batches and hit the output one line at a time, never building
  // a second whole-dump copy. Byte-identical to mrt::ToText. The configured
  // wire codec serializes the same feed in the same phase; under --format
  // text the wire is the text archive itself. The zero-rate contract below
  // holds the wire's round trip to the text archive.
  std::string text;
  std::string qmrt_wire;
  ctx.Timed("serialize", [&] {
    std::ostringstream buffer;
    bgp::mrt::WriteStream(
        buffer, bgp::feed::FromVector(std::make_shared<bgp::feed::AsPathTable>(),
                                      dynamics.updates));
    text = std::move(buffer).str();
    if (ctx.format() == bench::FeedFormat::kQmrt) {
      qmrt_wire = bgp::qmrt::Encode(dynamics.updates);
    }
  });
  const std::string_view wire =
      ctx.format() == bench::FeedFormat::kQmrt ? qmrt_wire : std::string_view(text);
  std::cout << "  dataset: " << dynamics.updates.size() << " updates over one week ("
            << text.size() / 1024 << " KiB of MRT text)\n";
  // Wire size is format-dependent, so it prints here and stays out of the
  // deterministic JSON.
  std::cout << "  wire: " << wire.size() << " bytes as "
            << bench::ToString(ctx.format()) << "\n";

  // One checkpoint shard per fault rate: a killed sweep resumes at the
  // first rate whose point isn't in the snapshot. The key names the feed
  // hash scheme, so a snapshot holding other feed hashes is refused
  // rather than resumed into a zero-rate mismatch.
  const std::vector<double> rates = {0.0, 0.005, 0.01, 0.02, 0.05, 0.10};
  const std::uint64_t config_key =
      ckpt::FingerprintBuilder().Add(kFaultSeed).Add("FeedHash").Finish();
  const ckpt::StageOptions sweep_stage =
      ctx.Stage("fault_rates", rates.size(), config_key);
  const std::vector<SweepPoint> points = ctx.Timed("fault_rates", [&] {
    return ckpt::CheckpointedMap(
        sweep_stage, /*threads=*/1, rates.size(),
        [&](std::size_t i) {
          return RunSweepPoint(scenario, dynamics, text, rates[i], ctx.threads());
        },
        EncodePoint, DecodePoint);
  });

  // Hard contract: with every rate at zero, the injector-laced pipeline is
  // exactly the injector-free pipeline (compared by sanitized-feed hash so
  // the check also holds for a resumed, checkpoint-decoded point). Each
  // input is computed once: one chunked strict parse of the text archive,
  // and under --format qmrt one decode of the wire, each compared record
  // for record with the generated feed; the injector-free reference is
  // sanitized from that parse. The checks run in their own phase; the
  // first failure names itself and fails the run.
  const std::string contract_failure = ctx.Timed("zero_rate_contract", [&]() -> std::string {
    // The incremental writer must have produced exactly ToText.
    if (text != bgp::mrt::ToText(dynamics.updates)) {
      return "WriteStream output differs from mrt::ToText";
    }
    // Chunked strict parse (boundaries mid-record) == the generated feed,
    // which is what the whole text parses to, since text == ToText(feed).
    auto clean_table = std::make_shared<bgp::feed::AsPathTable>();
    const std::vector<bgp::feed::UpdateRec> clean_rib =
        bgp::feed::InternRecords(*clean_table, dynamics.initial_rib);
    std::vector<bgp::feed::UpdateRec> clean_parsed =
        bench::ParseWireRecords(bench::FeedFormat::kText, clean_table, text);
    if (!bench::RecordsMatchUpdates(*clean_table, clean_parsed, dynamics.updates)) {
      return "streaming parse differs from whole-text parse";
    }
    // Under --format qmrt the decoded wire is the generated feed, so it
    // re-serializes to the text archive byte for byte (text -> binary ->
    // text). Under text the wire is the text archive, parsed above.
    if (ctx.format() == bench::FeedFormat::kQmrt) {
      bgp::feed::AsPathTable wire_table;
      if (!bench::RecordsMatchUpdates(wire_table, bgp::qmrt::DecodeRecords(wire_table, wire),
                                      dynamics.updates)) {
        return "--format wire round trip diverged from the text archive";
      }
    }
    const bgp::SanitizedRecords clean =
        bgp::SanitizeRecords(clean_rib, std::move(clean_parsed));
    const std::uint64_t clean_hash = FeedHash(clean.updates, *clean_table);
    const SweepPoint& zero = points.front();
    if (zero.feed_hash != clean_hash ||
        zero.sanitized_updates != clean.updates.size() ||
        zero.parse.bad_lines != 0 || zero.stream.dropped() != 0 ||
        zero.io_injected != 0) {
      return "zero-rate run differs from injector-free pipeline";
    }
    return {};
  });
  if (!contract_failure.empty()) {
    std::cerr << "FAIL: " << contract_failure << "\n";
    return 1;
  }

  util::PrintBanner(std::cout, "fault sweep (all rates seeded identically)");
  util::Table table({"rate", "bad lines", "dropped", "resync", "io retries",
                     "alerts", "P(ratio > 1)"});
  for (const SweepPoint& point : points) {
    table.AddRow({util::FormatPercent(point.rate, 1),
                  std::to_string(point.parse.bad_lines),
                  std::to_string(point.stream.dropped()),
                  std::to_string(point.stream.resync_injected),
                  std::to_string(point.io_retries),
                  std::to_string(point.alerts),
                  util::FormatPercent(point.fraction_ratio_above_one, 1)});
  }
  std::cout << table.Render();

  util::PrintBanner(std::cout, "robustness contract");
  util::Table contract({"metric", "paper", "measured"});
  ctx.Comparison(contract, "sweep points completed without crashing", "all",
                 std::to_string(points.size()) + " of " + std::to_string(rates.size()));
  ctx.Comparison(contract, "rate-0 run identical to injector-free run", "byte-identical",
                 "byte-identical");
  const double delta = points.back().fraction_ratio_above_one -
                       points.front().fraction_ratio_above_one;
  ctx.Comparison(contract, "P(ratio > 1) drift at 10% faults", "graceful (< 0.25)",
                 util::FormatDouble(delta, 3));
  std::cout << contract.Render();

  util::CsvWriter csv("fault_sweep.csv",
                      {"rate", "bad_lines", "dropped_updates", "resync_injected",
                       "io_retries", "churn_dropped", "alerts",
                       "fraction_ratio_above_one"});
  for (const SweepPoint& point : points) {
    csv.WriteRow({point.rate, static_cast<double>(point.parse.bad_lines),
                  static_cast<double>(point.stream.dropped()),
                  static_cast<double>(point.stream.resync_injected),
                  static_cast<double>(point.io_retries),
                  static_cast<double>(point.churn_dropped),
                  static_cast<double>(point.alerts),
                  point.fraction_ratio_above_one});
  }
  std::cout << "\nwrote fault_sweep.csv\n";

  ctx.Result("updates_generated", static_cast<std::uint64_t>(dynamics.updates.size()));
  ctx.Result("sweep_points", static_cast<std::uint64_t>(points.size()));
  ctx.Result("zero_rate_passthrough", true);
  for (const SweepPoint& point : points) {
    const std::string key = RateKey(point.rate);
    ctx.Result(key + ".bad_lines", static_cast<std::uint64_t>(point.parse.bad_lines));
    ctx.Result(key + ".dropped_updates",
               static_cast<std::uint64_t>(point.stream.dropped()));
    ctx.Result(key + ".resync_injected",
               static_cast<std::uint64_t>(point.stream.resync_injected));
    ctx.Result(key + ".delayed", static_cast<std::uint64_t>(point.stream.delayed));
    ctx.Result(key + ".io_retries", static_cast<std::uint64_t>(point.io_retries));
    ctx.Result(key + ".io_injected_failures",
               static_cast<std::uint64_t>(point.io_injected));
    ctx.Result(key + ".churn_dropped",
               static_cast<std::uint64_t>(point.churn_dropped));
    ctx.Result(key + ".alerts", static_cast<std::uint64_t>(point.alerts));
    ctx.Result(key + ".alerts_suppressed",
               static_cast<std::uint64_t>(point.alerts_suppressed));
    ctx.Result(key + ".fraction_ratio_above_one", point.fraction_ratio_above_one);
    ctx.Result(key + ".sanitized_updates",
               static_cast<std::uint64_t>(point.sanitized_updates));
  }
  ctx.Finish();
  return 0;
}
