// Population-scale client engine bench: drives the SoA tor::population
// layer (alias-table path selection, batched guard rotation, sharded
// per-client-AS exposure aggregation) over the paper-scale consensus.
//
// Where sec2_longterm_guards sweeps guard policies over 600 clients, this
// bench simulates an entire client population — a million clients for a
// simulated month in minutes — and reports the population *distribution*
// of compromise: the per-client-AS fraction histogram on top of the daily
// trajectory. The sweep is sharded through
// ckpt::CheckpointedMap, so it is resumable mid-population and its
// outputs are byte-identical at every --threads value, shard split, and
// kill+resume point (scripts/population_smoke.sh).
//
// Axis flags (consumed before the shared BenchContext flags):
//
//   population_scale --clients 1000000 --days 30 --shard-clients 65536 \
//                    --seed 20140901 --threads 8 --json out.json

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/population_exposure.hpp"
#include "tor/path_selection.hpp"
#include "util/csv.hpp"
#include "util/parse_num.hpp"
#include "util/stats.hpp"

namespace {

using namespace quicksand;

/// The bench's own axis flags, consumed before BenchContext sees argv
/// (BenchContext exits 2 on flags it does not know).
struct Axes {
  std::size_t clients = 100000;
  std::size_t days = 30;
  std::size_t shard_clients = 8192;
  double adversary_bandwidth = 0.10;
  std::uint64_t seed = 20140901;
};

[[noreturn]] void UsageError(const std::string& message) {
  std::cerr << "population_scale: " << message << "\n";
  std::exit(2);
}

Axes ConsumeAxisFlags(int& argc, char** argv) {
  Axes axes;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--clients") {
      const auto parsed = util::ParseU64(value());
      if (!parsed || *parsed < 1) UsageError("invalid --clients");
      axes.clients = static_cast<std::size_t>(*parsed);
    } else if (arg == "--days") {
      const auto parsed = util::ParseU64(value());
      if (!parsed || *parsed < 1) UsageError("invalid --days");
      axes.days = static_cast<std::size_t>(*parsed);
    } else if (arg == "--shard-clients") {
      const auto parsed = util::ParseU64(value());
      if (!parsed || *parsed < 1) UsageError("invalid --shard-clients");
      axes.shard_clients = static_cast<std::size_t>(*parsed);
    } else if (arg == "--adversary-bw") {
      const auto parsed = util::ParseF64(value());
      if (!parsed || *parsed < 0 || *parsed > 1) UsageError("invalid --adversary-bw");
      axes.adversary_bandwidth = *parsed;
    } else if (arg == "--seed") {
      const auto parsed = util::ParseU64(value());
      if (!parsed) UsageError("invalid --seed");
      axes.seed = *parsed;
    } else {
      rest.push_back(argv[i]);
    }
  }
  for (std::size_t i = 0; i < rest.size(); ++i) argv[i] = rest[i];
  argc = static_cast<int>(rest.size());
  return axes;
}

}  // namespace

int main(int argc, char** argv) {
  const Axes axes = ConsumeAxisFlags(argc, argv);
  bench::BenchContext ctx(
      argc, argv, "Population-scale client engine — SoA path selection + exposure",
      "a relay-level adversary compromises clients population-wide; the "
      "per-client-AS distribution of that risk is heavily skewed");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const tor::PathSelector selector(scenario.consensus.consensus);

  core::PopulationExposureParams params;
  params.clients = axes.clients;
  params.days = axes.days;
  params.shard_clients = axes.shard_clients;
  params.malicious_bandwidth_fraction = axes.adversary_bandwidth;
  params.seed = axes.seed;
  params.threads = ctx.threads();
  const std::size_t shards =
      (params.clients + params.shard_clients - 1) / params.shard_clients;
  params.stage = ctx.Stage("population", shards,
                           ckpt::FingerprintBuilder()
                               .Add(static_cast<std::uint64_t>(axes.clients))
                               .Add(static_cast<std::uint64_t>(axes.days))
                               .Add(static_cast<std::uint64_t>(axes.shard_clients))
                               .Add(axes.seed)
                               .Finish());

  // Clients live in the eyeball ASes (round-robin), as real Tor users do.
  const obs::Stopwatch sweep_watch;
  const core::PopulationExposureResult result = ctx.Timed("population", [&] {
    return core::SimulatePopulationExposure(selector, scenario.topology.eyeballs,
                                            params);
  });
  const double sweep_s = sweep_watch.ElapsedMs() / 1000.0;
  const double client_days =
      static_cast<double>(axes.clients) * static_cast<double>(axes.days);

  std::vector<double> fractions;
  fractions.reserve(result.per_as.size());
  for (const core::ClientAsExposure& entry : result.per_as) {
    fractions.push_back(entry.fraction);
  }
  const util::Summary spread = util::Summarize(fractions);

  util::PrintBanner(std::cout, "population sweep");
  util::Table table({"metric", "value"});
  table.AddRow({"clients", std::to_string(axes.clients)});
  table.AddRow({"days simulated", std::to_string(axes.days)});
  table.AddRow({"circuits built", std::to_string(result.circuits)});
  table.AddRow({"guard rotations", std::to_string(result.rotations)});
  table.AddRow({"client-days/sec", util::FormatDouble(client_days / sweep_s, 0)});
  table.AddRow({"compromised after " + std::to_string(axes.days) + "d",
                util::FormatPercent(result.final_fraction, 2)});
  table.AddRow({"client ASes", std::to_string(result.per_as.size())});
  table.AddRow({"per-AS fraction median", util::FormatPercent(spread.median, 2)});
  table.AddRow({"per-AS fraction p75", util::FormatPercent(spread.p75, 2)});
  table.AddRow({"per-AS fraction max", util::FormatPercent(spread.max, 2)});
  std::cout << table.Render();

  util::CsvWriter curve_csv("population_scale.csv", {"day", "cumulative_compromised"});
  for (std::size_t day = 0; day < result.cumulative_compromised.size(); ++day) {
    curve_csv.WriteRow({static_cast<double>(day), result.cumulative_compromised[day]});
  }
  util::CsvWriter as_csv("population_scale_per_as.csv",
                         {"client_as", "clients", "compromised", "fraction"});
  for (const core::ClientAsExposure& entry : result.per_as) {
    as_csv.WriteRow({static_cast<double>(entry.as), static_cast<double>(entry.clients),
                     static_cast<double>(entry.compromised), entry.fraction});
  }
  std::cout << "\nwrote population_scale.csv (" << result.cumulative_compromised.size()
            << " days) and population_scale_per_as.csv (" << result.per_as.size()
            << " ASes)\n";

  // Axes echoed first so the JSON is self-describing, then the
  // deterministic population outputs. No wall-clock values in results.
  ctx.Result("clients", static_cast<std::int64_t>(axes.clients));
  ctx.Result("days", static_cast<std::int64_t>(axes.days));
  ctx.Result("shard_clients", static_cast<std::int64_t>(axes.shard_clients));
  ctx.Result("adversary_bandwidth", axes.adversary_bandwidth);
  ctx.Result("seed", static_cast<std::int64_t>(axes.seed));
  ctx.Result("circuits", static_cast<std::int64_t>(result.circuits));
  ctx.Result("rotations", static_cast<std::int64_t>(result.rotations));
  ctx.Result("malicious_relays", static_cast<std::int64_t>(result.malicious_relays));
  ctx.Result("malicious_guards", static_cast<std::int64_t>(result.malicious_guards));
  ctx.Result("malicious_exits", static_cast<std::int64_t>(result.malicious_exits));
  ctx.Result("final_fraction", result.final_fraction);
  ctx.Result("client_ases", static_cast<std::int64_t>(result.per_as.size()));
  ctx.Result("per_as_fraction_median", spread.median);
  ctx.Result("per_as_fraction_p75", spread.p75);
  ctx.Result("per_as_fraction_max", spread.max);
  obs::JsonValue histogram = obs::JsonValue::Array();
  for (std::size_t count : result.fraction_histogram) {
    histogram.Append(obs::JsonValue(static_cast<std::int64_t>(count)));
  }
  ctx.Result("fraction_histogram", std::move(histogram));
  ctx.Finish();
  return 0;
}
