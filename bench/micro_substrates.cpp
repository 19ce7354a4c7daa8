// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: prefix-trie lookups, policy-route computation, hijack
// execution, correlation statistics, update parsing, and the flow
// simulator. These quantify the cost model behind the month-scale
// experiment benches.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <string_view>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "bgp/hijack.hpp"
#include "common.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "bgp/route_cache.hpp"
#include "bgp/route_computation.hpp"
#include "bgp/topology_gen.hpp"
#include "core/correlation_attack.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"
#include "traffic/flow_sim.hpp"
#include "util/stats.hpp"

namespace {

using namespace quicksand;

const bgp::Topology& SharedTopology() {
  static const bgp::Topology topology = [] {
    bgp::TopologyParams params;
    params.seed = 1;
    return bgp::GenerateTopology(params);
  }();
  return topology;
}

void BM_PrefixTrieLongestMatch(benchmark::State& state) {
  netbase::Rng rng(2);
  netbase::PrefixTrie<int> trie;
  for (int i = 0; i < state.range(0); ++i) {
    trie.Insert(netbase::Prefix(netbase::Ipv4Address(static_cast<std::uint32_t>(rng())),
                                static_cast<int>(rng.UniformInt(8, 24))),
                i);
  }
  std::uint32_t probe = 0x0A000000;
  for (auto _ : state) {
    probe = probe * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(trie.LongestMatch(netbase::Ipv4Address(probe)));
  }
}
BENCHMARK(BM_PrefixTrieLongestMatch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PrefixTrieInsert(benchmark::State& state) {
  netbase::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    netbase::PrefixTrie<int> trie;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      trie.Insert(
          netbase::Prefix(netbase::Ipv4Address(static_cast<std::uint32_t>(rng())),
                          static_cast<int>(rng.UniformInt(8, 24))),
          i);
    }
    benchmark::DoNotOptimize(trie.size());
  }
}
BENCHMARK(BM_PrefixTrieInsert)->Arg(1000)->Arg(10000);

void BM_ComputeRoutes(benchmark::State& state) {
  const bgp::Topology& topo = SharedTopology();
  const bgp::AsNumber origin = topo.hostings[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::ComputeRoutes(topo.graph, origin));
  }
  state.SetLabel(std::to_string(topo.graph.AsCount()) + " ASes, " +
                 std::to_string(topo.graph.LinkCount()) + " links");
}
BENCHMARK(BM_ComputeRoutes)->Arg(0)->Arg(5);

/// The middle link of the forwarding path from the AS half the index space
/// away from `origin` — one on-path failure, as the exposure analyzer draws.
std::uint64_t OnPathLink(const bgp::RoutingState& routes, bgp::AsIndex origin) {
  const auto n = static_cast<bgp::AsIndex>(routes.graph().AsCount());
  for (bgp::AsIndex step = 0; step < n; ++step) {
    const auto path = routes.ForwardingPath((origin + n / 2 + step) % n);
    if (path.size() < 2) continue;
    const std::size_t k = (path.size() - 2) / 2;
    return bgp::LinkKey(path[k], path[k + 1]);
  }
  return 0;
}

void BM_ComputeRoutesDisabledLink(benchmark::State& state) {
  const bgp::Topology& topo = SharedTopology();
  const bgp::AsNumber origin = topo.hostings[static_cast<std::size_t>(state.range(0))];
  const std::uint64_t disabled[] = {
      OnPathLink(bgp::ComputeRoutes(topo.graph, origin), topo.graph.MustIndexOf(origin))};
  bgp::ComputationOptions options;
  options.disabled_links = disabled;
  options.tie_break_salts = topo.policy_salts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::ComputeRoutes(topo.graph, origin, options));
  }
  state.SetLabel("policy salts + one failed on-path link");
}
BENCHMARK(BM_ComputeRoutesDisabledLink)->Arg(0)->Arg(5);

void BM_FailLink(benchmark::State& state) {
  // A link-failure variant derived from the cached base state (vs
  // BM_ComputeRoutesDisabledLink, the solve it replaces). Arg 0: an on-path
  // link deep in the tree, whose subtree is small; arg 1: the destination's
  // access link on that path, whose subtree is the largest.
  const bgp::Topology& topo = SharedTopology();
  const bgp::AsNumber origin = topo.hostings.front();
  const bgp::AsIndex origin_index = topo.graph.MustIndexOf(origin);
  bgp::ComputationOptions options;
  options.tie_break_salts = topo.policy_salts;
  const bgp::RoutingState base = bgp::ComputeRoutes(topo.graph, origin, options);
  const auto n = static_cast<bgp::AsIndex>(topo.graph.AsCount());
  std::vector<bgp::AsIndex> path;
  for (bgp::AsIndex step = 0; step < n && path.size() < 4; ++step) {
    path = base.ForwardingPath((origin_index + n / 2 + step) % n);
  }
  const std::size_t cut = state.range(0) == 0 ? 0 : path.size() - 2;
  const std::uint64_t link = bgp::LinkKey(path[cut], path[cut + 1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::FailLink(base, link, topo.policy_salts));
  }
  state.SetLabel((state.range(0) == 0 ? "deep on-path link, " : "access link, ") +
                 std::to_string(base.CountCrossing(link, n)) + " ASes re-routed");
}
BENCHMARK(BM_FailLink)->Arg(0)->Arg(1);

void BM_ShiftSalt(benchmark::State& state) {
  // A salt-shift variant: the cached base state re-salted at one AS on a
  // forwarding path (vs BM_ComputeRoutes, the solve it replaces).
  const bgp::Topology& topo = SharedTopology();
  const bgp::AsNumber origin = topo.hostings[static_cast<std::size_t>(state.range(0))];
  bgp::ComputationOptions options;
  options.tie_break_salts = topo.policy_salts;
  const bgp::RoutingState base = bgp::ComputeRoutes(topo.graph, origin, options);
  const auto path = base.ForwardingPath(static_cast<bgp::AsIndex>(topo.graph.AsCount() / 2));
  const bgp::AsIndex shifted = path.empty() ? 0 : path[path.size() / 2];
  std::uint64_t salt = 1;
  for (auto _ : state) {
    salt += 2;
    benchmark::DoNotOptimize(bgp::ShiftSalt(base, shifted, salt));
  }
  state.SetLabel("one on-path AS re-salted");
}
BENCHMARK(BM_ShiftSalt)->Arg(0)->Arg(5);

void BM_HijackExecute(benchmark::State& state) {
  const bgp::Topology& topo = SharedTopology();
  const bgp::HijackSimulator sim(topo.graph);
  bgp::AttackSpec spec;
  spec.victim = topo.hostings.front();
  spec.attacker = topo.transits.front();
  spec.victim_prefix = topo.PrefixesOf(spec.victim).front();
  spec.more_specific = state.range(0) != 0;
  spec.keep_alive = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Execute(spec));
  }
}
BENCHMARK(BM_HijackExecute)->Arg(0)->Arg(1);

void BM_PearsonCorrelation(benchmark::State& state) {
  netbase::Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(rng.UniformDouble());
    b.push_back(rng.UniformDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::PearsonCorrelation(a, b));
  }
}
BENCHMARK(BM_PearsonCorrelation)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MaxLagCorrelation(benchmark::State& state) {
  netbase::Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 512; ++i) {
    a.push_back(rng.UniformDouble());
    b.push_back(rng.UniformDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::MaxLagCorrelation(a, b, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_MaxLagCorrelation)->Arg(1)->Arg(4)->Arg(16);

// --- quicksand::bgp::feed substrates --------------------------------------
// The streaming data plane's cost model: path interning (the hit path is
// what every streamed update pays), chunked parse, and end-to-end churn
// over batched streams. The post-benchmark residency check in main()
// verifies the headline property: peak resident updates track the batch
// size, not the feed length.

std::vector<bgp::BgpUpdate> MakeSyntheticFeed(std::size_t count) {
  // Realistic repetition: 8 sessions x 32 prefixes alternating over a
  // small pool of AS paths, so the intern table sees mostly hits.
  std::vector<bgp::AsPath> paths;
  for (std::uint32_t p = 0; p < 24; ++p) {
    paths.push_back(bgp::AsPath{100 + p, 200 + (p % 7), 300 + (p % 3), 400});
  }
  std::vector<bgp::BgpUpdate> updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bgp::BgpUpdate u;
    u.time = netbase::SimTime{static_cast<std::int64_t>(i)};
    u.session = static_cast<bgp::SessionId>(i % 8);
    u.prefix = netbase::Prefix(
        netbase::Ipv4Address((10u << 24) | (static_cast<std::uint32_t>(i % 32) << 8)), 24);
    if (i % 16 == 15) {
      u.type = bgp::UpdateType::kWithdraw;
    } else {
      u.type = bgp::UpdateType::kAnnounce;
      u.path = paths[i % paths.size()];
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

void BM_AsPathTableIntern(benchmark::State& state) {
  std::vector<bgp::AsPath> pool;
  for (std::uint32_t p = 0; p < 32; ++p) {
    pool.push_back(bgp::AsPath{701, 3356 + p, 1299, 24940 + (p % 5)});
  }
  bgp::feed::AsPathTable table;
  for (const bgp::AsPath& path : pool) (void)table.Intern(path);  // warm
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Intern(pool[i % pool.size()]));
    ++i;
  }
  state.SetLabel("hit path — what each streamed update pays");
}
BENCHMARK(BM_AsPathTableIntern);

void BM_MrtStreamParse(benchmark::State& state) {
  static const std::string text = bgp::mrt::ToText(MakeSyntheticFeed(20000));
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    bgp::mrt::ParseStreamOptions options;
    options.chunk_bytes = chunk;
    bgp::feed::UpdateStream stream = bgp::mrt::ParseStream(
        std::make_shared<bgp::feed::AsPathTable>(), text, options);
    std::vector<bgp::feed::UpdateRec> batch;
    std::size_t parsed = 0;
    while (stream.Next(batch)) parsed += batch.size();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetLabel("chunk=" + std::to_string(chunk) + "B, 20k updates");
}
BENCHMARK(BM_MrtStreamParse)->Arg(4096)->Arg(65536);

void BM_FeedStreamChurn(benchmark::State& state) {
  static const std::vector<bgp::BgpUpdate> feed = MakeSyntheticFeed(20000);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto table = std::make_shared<bgp::feed::AsPathTable>();
    bgp::ChurnAnalyzer analyzer;
    bgp::feed::UpdateStream stream = bgp::feed::FromVector(table, feed, batch);
    analyzer.ConsumeStream(stream);
    analyzer.Finish();
    benchmark::DoNotOptimize(analyzer.entries().size());
  }
  state.SetLabel("batch=" + std::to_string(batch) + ", 20k updates");
}
BENCHMARK(BM_FeedStreamChurn)->Arg(256)->Arg(4096);

void BM_QmrtEncode(benchmark::State& state) {
  static const std::vector<bgp::BgpUpdate> feed = MakeSyntheticFeed(20000);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string wire = bgp::qmrt::Encode(feed);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetLabel("20k updates -> " + std::to_string(bytes) + "B binary");
}
BENCHMARK(BM_QmrtEncode);

void BM_QmrtStreamDecode(benchmark::State& state) {
  // Mirror of BM_MrtStreamParse on the binary codec: same synthetic feed,
  // same streamed-batch shape, so the two labels read as a direct
  // text-vs-binary parse comparison (docs/PERFORMANCE.md).
  static const std::string wire = bgp::qmrt::Encode(MakeSyntheticFeed(20000));
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    bgp::qmrt::DecodeOptions options;
    options.batch_size = batch;
    bgp::feed::UpdateStream stream = bgp::qmrt::DecodeStream(
        std::make_shared<bgp::feed::AsPathTable>(), wire, options);
    std::vector<bgp::feed::UpdateRec> recs;
    std::size_t decoded = 0;
    while (stream.Next(recs)) decoded += recs.size();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetLabel("batch=" + std::to_string(batch) + ", 20k updates");
}
BENCHMARK(BM_QmrtStreamDecode)->Arg(256)->Arg(4096);

void BM_MrtParseLine(benchmark::State& state) {
  const std::string line = "1714521600|12|A|78.46.0.0/15|701 3356 1299 24940";
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::mrt::ParseLine(line));
  }
}
BENCHMARK(BM_MrtParseLine);

// --- quicksand::exec substrates -------------------------------------------
// These bound the overhead the execution layer adds on top of serial code:
// a ParallelFor dispatch must amortize against per-item work, and a pool
// Submit must stay cheap enough for grain-1 task farms.

void BM_ThreadPoolSubmit(benchmark::State& state) {
  exec::ThreadPool& pool = exec::ThreadPool::Shared();
  pool.EnsureWorkers(1);
  for (auto _ : state) {
    std::atomic<bool> done{false};
    pool.Submit([&done] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) {
    }
  }
  state.SetLabel("submit + wait roundtrip");
}
BENCHMARK(BM_ThreadPoolSubmit);

void BM_ParallelForDispatch(benchmark::State& state) {
  // Empty-body loop: measures pure chunking/scheduling overhead.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint64_t> sink(n, 0);
  for (auto _ : state) {
    exec::ParallelFor(threads, n, [&](std::size_t i) { sink[i] += i; });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetLabel(std::to_string(threads) + " thread(s)");
}
BENCHMARK(BM_ParallelForDispatch)
    ->Args({1 << 10, 1})
    ->Args({1 << 10, 4})
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4});

void BM_RouteCacheHit(benchmark::State& state) {
  const bgp::Topology& topo = SharedTopology();
  bgp::RouteCache cache;
  const bgp::AsNumber origin = topo.hostings.front();
  (void)cache.GetOrCompute(topo.graph, origin);  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetOrCompute(topo.graph, origin));
  }
  state.SetLabel("vs BM_ComputeRoutes (the miss cost)");
}
BENCHMARK(BM_RouteCacheHit);

void BM_FlowSimulation(benchmark::State& state) {
  traffic::FlowSimParams params;
  params.file_bytes = static_cast<std::uint64_t>(state.range(0)) << 20;
  params.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::SimulateTransfer(params));
  }
  state.SetLabel(std::to_string(state.range(0)) + " MB transfer");
}
BENCHMARK(BM_FlowSimulation)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared --json/--trace/--threads
// flags are split off for BenchContext, everything else goes to
// google-benchmark.
int main(int argc, char** argv) {
  std::vector<char*> ours = {argv[0]};
  std::vector<char*> gbench = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if ((arg == "--json" || arg == "--trace" || arg == "--threads" ||
         arg == "--feed-batch" || arg == "--format") &&
        i + 1 < argc) {
      ours.push_back(argv[i]);
      ours.push_back(argv[++i]);
    } else if (arg == "--profile") {
      ours.push_back(argv[i]);
    } else {
      gbench.push_back(argv[i]);
    }
  }
  quicksand::bench::BenchContext ctx(
      static_cast<int>(ours.size()), ours.data(),
      "micro-benchmarks — performance-critical substrates",
      "cost model behind the month-scale experiment benches (trie, routing, "
      "hijack, correlation, parsing, flow simulation)");
  int gbench_argc = static_cast<int>(gbench.size());
  benchmark::Initialize(&gbench_argc, gbench.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, gbench.data())) return 1;
  // google-benchmark sizes each case's iteration count from its timing, so
  // the library counters these cases bump differ from run to run here:
  // declare them run-class before any case registers them (a declared
  // class sticks), so two runs' JSON --compare equal.
  for (const char* name : {"bgp.churn.updates_consumed", "bgp.churn.path_set_cache_hits",
                           "traffic.flow.transfers_simulated"}) {
    (void)quicksand::obs::MetricsRegistry::Global().GetCounter(
        name, quicksand::obs::Stability::kRun);
  }
  ctx.Timed("benchmarks", [] { benchmark::RunSpecifiedBenchmarks(); });
  benchmark::Shutdown();

  // Streaming residency contract: after the BM_FeedStreamChurn /
  // BM_MrtStreamParse / BM_QmrtStreamDecode cases streamed tens of
  // thousands of updates, the
  // feed.peak_resident_updates gauge — the largest batch any stream ever
  // held — must be bounded by the configured batch size (4096 at most
  // here), NOT the 20k feed length. This is the property that lets the
  // pipeline run archives larger than memory.
  const std::size_t streamed = static_cast<std::size_t>(
      quicksand::obs::MetricsRegistry::Global()
          .GetCounter("feed.updates_streamed", quicksand::obs::Stability::kRun)
          .value());
  const auto peak = quicksand::obs::MetricsRegistry::Global()
                        .GetGauge("feed.peak_resident_updates",
                                  quicksand::obs::Stability::kRun)
                        .value();
  if (streamed == 0) {
    // A --benchmark_filter excluded the streaming cases; nothing to check.
    std::cout << "  feed residency: no streaming cases ran (filtered out)\n";
  } else if (peak <= 0 ||
             static_cast<std::size_t>(peak) > quicksand::bgp::feed::kDefaultBatchSize ||
             streamed <= quicksand::bgp::feed::kDefaultBatchSize) {
    std::cerr << "FAIL: streaming residency contract violated — peak resident "
              << peak << " updates with " << streamed
              << " streamed (expected 0 < peak <= "
              << quicksand::bgp::feed::kDefaultBatchSize << " << streamed)\n";
    return 1;
  } else {
    std::cout << "  feed residency: " << streamed << " updates streamed, peak resident "
              << peak << " (bounded by batch size, not feed length)\n";
  }

  ctx.Finish();
  return 0;
}
