// perfbench: the QuickSand benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--trace-out <file>]
//
// Workloads: feed_month, feed_faulted, countermeasures, client_population
// (see WORKLOADS.md). Every workload runs single-threaded: each library
// call that takes a thread count is passed 1. The last stdout line is the
// result: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). The line
// before it ("perfbench_run") records the thread count, nproc, the output
// digest, the deterministic counts and the uncalibrated wall values. Exit 2
// on a usage error.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, from untraced runs.
constexpr MetricSpec kEndToEnd[] = {
    {"items_per_s", "items/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, from traced runs. Every workload reports every
/// one; a layer that does not run in a workload reports 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"bgp.dynamics_gen.busy_s", "s"},
    {"bgp.dynamics_gen.route_cache_hit_ratio", "ratio"},
    {"bgp.qmrt.encode.busy_s", "s"},
    {"bgp.qmrt.bytes_per_update", "B"},
    {"fault.perturb.busy_s", "s"},
    {"bgp.mrt.write.busy_s", "s"},
    {"fault.corrupt.busy_s", "s"},
    {"core.advisor.busy_s", "s"},
    {"tor.population.build.busy_s", "s"},
    {"bgp.qmrt.decode.busy_s", "s"},
    {"bgp.mrt.parse.busy_s", "s"},
    {"bgp.mrt.parse.bad_line_ratio", "ratio"},
    {"bgp.feed_sanitizer.busy_s", "s"},
    {"bgp.feed_sanitizer.kept_ratio", "ratio"},
    {"bgp.churn.busy_s", "s"},
    {"core.monitor.busy_s", "s"},
    {"core.monitor.alerts", "count"},
    {"bgp.qmrt.decode.rss_growth_mb", "MB"},
    {"bgp.mrt.parse.rss_growth_mb", "MB"},
    {"bgp.feed_sanitizer.rss_growth_mb", "MB"},
    {"bgp.churn.rss_growth_mb", "MB"},
    {"core.monitor.rss_growth_mb", "MB"},
    {"bgp.feed.paths_interned", "count"},
    {"core.exposure.busy_s", "s"},
    {"core.exposure.queries", "count"},
    {"core.exposure.query_samples", "count"},
    {"core.exposure.query_p50_ms", "ms"},
    {"core.exposure.query_p99_ms", "ms"},
    {"core.exposure.route_cache_hit_ratio", "ratio"},
    {"bgp.compute_routes.calls", "count"},
    {"bgp.compute_routes.busy_s", "s"},
    {"tor.path_selection.busy_s", "s"},
    {"tor.path_selection.circuit_fail_ratio", "ratio"},
    {"tor.population.rotate.busy_s", "s"},
    {"tor.population.rotations", "count"},
    {"tor.population.circuits.busy_s", "s"},
    {"tor.population.circuits", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <feed_month|feed_faulted|countermeasures|"
               "client_population> --seed <n> --seconds <s> --trace <0|1> [--small] "
               "[--trace-out <file>]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value, &used);
        options.seed_given = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds >= 0)) Usage("--seconds must be >= 0");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        Usage("unknown flag " + arg);
      }
      if (used != 0 && used != value.size()) Usage("bad number for " + arg);
    } catch (const std::logic_error&) {
      Usage("bad number for " + arg);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

/// Every digit of a measured value (JSON has no NaN or infinity).
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) { return "\"" + text + "\""; }

/// CPUs this process may run on, as nproc(1) counts them.
unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "feed_month") {
    workload = perfbench::MakeFeedMonth(options);
  } else if (options.workload == "feed_faulted") {
    workload = perfbench::MakeFeedFaulted(options);
  } else if (options.workload == "countermeasures") {
    workload = perfbench::MakeCountermeasures(options);
  } else if (options.workload == "client_population") {
    workload = perfbench::MakeClientPopulation(options);
  } else {
    Usage("unknown workload " + options.workload);
  }

  Result result = perfbench::RunWorkload(*workload, options);

  std::string counts;
  for (const auto& [name, value] : result.counts) {
    counts += (counts.empty() ? "" : ",") + Quote(name) + ":" + std::to_string(value);
  }
  std::cout << "{\"perfbench_run\":{\"workload\":" << Quote(options.workload)
            << ",\"seed\":" << options.seed << ",\"seed_given\":"
            << (options.seed_given ? "true" : "false") << ",\"small\":"
            << (options.small ? "true" : "false") << ",\"threads\":1,\"nproc\":"
            << Nproc() << ",\"digest\":" << Quote(result.digest)
            << ",\"counts\":{" << counts << "}";
  for (const auto& [name, value] : result.info) std::cout << "," << Quote(name) << ":" << Number(value);
  std::cout << "}}\n";

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second.value;
    metrics += (metrics.empty() ? "" : ",") + Quote(spec.name) + ":{\"value\":" +
               Number(value) + ",\"unit\":" + Quote(spec.unit) + "}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return 0;
}
