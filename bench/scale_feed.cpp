// Internet-scale feed pipeline: generate a large tiered topology, a
// multi-day update feed over it, spill the feed to disk in the --format
// wire codec, and run the streaming decode -> sanitize -> churn pipeline
// off the file — the shape of analyzing a real archive that does not fit
// in one materialized vector.
//
// The default sizing (QUICKSAND_SCALE_ASES=1200, QUICKSAND_SCALE_DAYS=2)
// keeps CI sweeps quick. The acceptance-scale run is
//
//   QUICKSAND_SCALE_ASES=10000 QUICKSAND_SCALE_DAYS=30 ./bench/scale_feed --format qmrt
//
// which pushes ~10^7 updates through the qmrt file path (mmap-backed
// decode). Two contracts are checked hard (exit 1): every generated
// update comes back off the wire file (count-exact), and
// feed.peak_resident_updates stays bounded by the batch size — every
// stream hand-off is one batch of compact records, never a materialized
// archive.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "bgp/topology_gen.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "util/parse_num.hpp"
#include "util/table.hpp"

namespace {

using namespace quicksand;

std::size_t EnvCount(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::optional<std::uint64_t> parsed = util::ParseU64(value);
  if (!parsed.has_value() || *parsed == 0) {
    std::cerr << name << ": invalid count '" << value << "'\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(*parsed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(
      argc, argv,
      "Internet-scale feed — file-backed wire round trip at 10^4 ASes",
      "the streaming pipeline analyzes archives larger than any materialized "
      "vector: resident updates bounded by batch size, not feed length");

  const std::size_t as_count = EnvCount("QUICKSAND_SCALE_ASES", 1200);
  const std::size_t days = EnvCount("QUICKSAND_SCALE_DAYS", 2);
  const std::size_t batch = ctx.feed_batch() != 0 ? ctx.feed_batch()
                                                  : bgp::feed::kDefaultBatchSize;

  const bench::Scenario scenario = ctx.Timed("scenario", [&] {
    bgp::TopologyParams tp = bgp::TopologyParams::InternetScale(as_count);
    tp.seed = 20140501;
    bench::Scenario s;
    s.topology = bgp::GenerateTopology(tp);
    bgp::CollectorParams cp;
    cp.seed = tp.seed + 1;
    s.collectors = bgp::CollectorSet::Create(s.topology, cp);
    return s;
  });
  std::cout << "  topology: " << scenario.topology.graph.AsCount() << " ASes, "
            << scenario.topology.graph.LinkCount() << " links, "
            << scenario.topology.prefix_origins.size() << " prefixes\n";

  const bgp::GeneratedDynamics dynamics = ctx.Timed("dynamics", [&] {
    bgp::DynamicsParams dp;
    dp.window = static_cast<std::int64_t>(days) * 86400;
    dp.seed = 20140502;
    dp.threads = ctx.threads();
    return bgp::GenerateDynamics(scenario.topology, scenario.collectors, dp);
  });
  std::cout << "  dataset: " << dynamics.updates.size() << " updates over "
            << days << " day(s) on " << scenario.collectors.SessionCount()
            << " sessions\n";

  // Spill to disk through the streaming sink — records leave the feed
  // layer in batches and hit the file incrementally; no second
  // whole-dump copy is built. File size is format-dependent (stdout
  // only, never a deterministic result).
  const std::string wire_path =
      std::string("scale_feed_wire.") + bench::ToString(ctx.format());
  const std::size_t written = ctx.Timed("encode", [&] {
    auto table = std::make_shared<bgp::feed::AsPathTable>();
    // Size hint: the intern table ends up holding roughly one path per
    // RIB entry (churn mostly revisits paths the sessions already
    // carry), so one upfront Reserve replaces every geometric rehash.
    table->Reserve(dynamics.initial_rib.size());
    std::ofstream out(wire_path, std::ios::binary | std::ios::trunc);
    if (ctx.format() == bench::FeedFormat::kQmrt) {
      return bgp::qmrt::WriteStream(
          out, bgp::feed::FromVector(table, dynamics.updates, batch));
    }
    return bgp::mrt::WriteStream(
        out, bgp::feed::FromVector(table, dynamics.updates, batch));
  });
  {
    std::ifstream probe(wire_path, std::ios::binary | std::ios::ate);
    std::cout << "  wire file: " << probe.tellg() << " bytes as "
              << bench::ToString(ctx.format()) << "\n";
  }

  // Analyze straight off the file: decode -> sanitize -> churn, each
  // hand-off one batch. Sanitizing needs the whole feed, so the decoded
  // stream is drained to compact records and the clean records are
  // re-streamed. The drained count is exactly what came off the wire.
  std::size_t decoded = 0;
  const bgp::ChurnAnalyzer analyzer = ctx.Timed("analyze", [&] {
    auto table = std::make_shared<bgp::feed::AsPathTable>();
    table->Reserve(dynamics.initial_rib.size());  // same hint as encode
    bgp::qmrt::DecodeOptions decode_options;
    decode_options.batch_size = batch;
    bgp::mrt::ParseStreamOptions parse_options;
    parse_options.batch_size = batch;
    bgp::feed::UpdateStream wire =
        ctx.format() == bench::FeedFormat::kQmrt
            ? bgp::qmrt::DecodeFileStream(table, wire_path, decode_options)
            : bgp::mrt::ParseFileStream(table, wire_path, parse_options);
    std::vector<bgp::feed::UpdateRec> drained = bgp::feed::Drain(wire);
    decoded = drained.size();
    // Intern the RIB after the drain so the wire source keeps the ids it
    // assigned.
    const std::vector<bgp::feed::UpdateRec> rib =
        bench::InternRecords(*table, dynamics.initial_rib);
    bgp::feed::UpdateStream sanitized = bgp::feed::FromRecords(
        table, bgp::SanitizeRecords(rib, std::move(drained)).updates, batch);
    bgp::ChurnAnalyzer churn;
    churn.ConsumeStream(sanitized);
    churn.Finish();
    return churn;
  });
  std::remove(wire_path.c_str());

  // Contract 1: the file round trip is lossless — every generated update
  // came back off the wire before sanitizing touched the feed.
  if (decoded != dynamics.updates.size()) {
    std::cerr << "FAIL: wire file returned " << decoded << " of "
              << dynamics.updates.size() << " generated updates\n";
    return 1;
  }

  // Contract 2: residency. The gauge records the largest batch any
  // stream ever delivered; an archive-sized value means something
  // materialized where it should have streamed.
  const auto peak = obs::MetricsRegistry::Global()
                        .GetGauge("feed.peak_resident_updates", obs::Stability::kRun)
                        .value();
  if (peak <= 0 || static_cast<std::size_t>(peak) > batch) {
    std::cerr << "FAIL: streaming residency contract violated — peak resident "
              << peak << " updates (batch size " << batch << ")\n";
    return 1;
  }
  std::cout << "  feed residency: peak resident " << peak
            << " of " << dynamics.updates.size()
            << " streamed (bounded by batch size, not feed length)\n";

  util::PrintBanner(std::cout, "scale contract");
  util::Table contract({"metric", "paper", "measured"});
  ctx.Comparison(contract, "wire file round trip", "lossless",
                 std::to_string(written) + " written / " +
                     std::to_string(decoded) + " decoded");
  ctx.Comparison(contract, "peak resident updates", "<= batch size",
                 std::to_string(static_cast<long long>(peak)));
  std::cout << contract.Render();

  ctx.Result("as_count", static_cast<std::uint64_t>(scenario.topology.graph.AsCount()));
  ctx.Result("updates_generated", static_cast<std::uint64_t>(dynamics.updates.size()));
  ctx.Result("updates_decoded", static_cast<std::uint64_t>(decoded));
  ctx.Result("churn_entries", static_cast<std::uint64_t>(analyzer.entries().size()));
  ctx.Finish();
  return 0;
}
