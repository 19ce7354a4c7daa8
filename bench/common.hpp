#pragma once

// Shared scenario construction for the reproduction benches.
//
// Every figure/table bench builds the same "paper-scale" world: a ~600-AS
// synthetic Internet, a 4-collector RIS deployment with 72 sessions, and a
// July-2014-calibrated Tor consensus (4586 relays). Benches that need a
// month of routing dynamics generate it on top. Everything is seeded, so
// each bench is reproducible in isolation.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "bgp/topology_gen.hpp"
#include "ckpt/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "util/atomic_file.hpp"
#include "util/parse_num.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/prefix_map.hpp"
#include "util/table.hpp"

namespace quicksand::bench {

/// Wire format a bench round-trips its feed through (--format).
enum class FeedFormat { kText, kQmrt };

[[nodiscard]] inline const char* ToString(FeedFormat format) noexcept {
  return format == FeedFormat::kQmrt ? "qmrt" : "text";
}

/// The common measurement world.
struct Scenario {
  bgp::Topology topology;
  bgp::CollectorSet collectors;
  tor::GeneratedConsensus consensus;
  tor::TorPrefixMap prefix_map;
};

inline Scenario MakePaperScenario(std::uint64_t seed = 20140501) {
  bgp::TopologyParams tp;  // defaults: 8 tier-1, 90 transit, 510 stubs
  tp.seed = seed;
  Scenario scenario;
  scenario.topology = bgp::GenerateTopology(tp);

  bgp::CollectorParams cp;  // defaults: 4 collectors x 18 sessions
  cp.seed = seed + 1;
  scenario.collectors = bgp::CollectorSet::Create(scenario.topology, cp);

  tor::ConsensusGenParams gp;  // defaults: the paper's relay counts
  gp.seed = seed + 2;
  scenario.consensus = tor::GenerateConsensus(scenario.topology, gp);

  scenario.prefix_map = tor::TorPrefixMap::Build(scenario.consensus.consensus,
                                                 scenario.topology.prefix_origins);
  return scenario;
}

inline bgp::GeneratedDynamics MakeMonthOfDynamics(const Scenario& scenario,
                                                  std::size_t threads = 1,
                                                  std::uint64_t seed = 20140502) {
  bgp::DynamicsParams dp;  // defaults: one month, paper-calibrated churn
  dp.seed = seed;
  dp.threads = threads;
  return bgp::GenerateDynamics(scenario.topology, scenario.collectors, dp);
}

/// Serializes `updates` as one whole-dump blob in the selected wire
/// format. Both formats carry identical content (text→binary→text is a
/// byte-identical round trip), so a bench's downstream output cannot
/// depend on the choice — only the serialize/parse wall time does.
inline std::string SerializeWire(FeedFormat format,
                                 const std::vector<bgp::BgpUpdate>& updates) {
  if (format == FeedFormat::kQmrt) return bgp::qmrt::Encode(updates);
  return bgp::mrt::ToText(updates);
}

/// Opens `wire` (which must outlive the stream) as a chunked
/// UpdateStream in the selected format. `batch_size` 0 keeps the default.
inline bgp::feed::UpdateStream OpenWireStream(
    FeedFormat format, std::shared_ptr<bgp::feed::AsPathTable> table,
    std::string_view wire, std::size_t batch_size = 0) {
  if (format == FeedFormat::kQmrt) {
    bgp::qmrt::DecodeOptions options;
    if (batch_size != 0) options.batch_size = batch_size;
    return bgp::qmrt::DecodeStream(std::move(table), wire, options);
  }
  bgp::mrt::ParseStreamOptions options;
  if (batch_size != 0) options.batch_size = batch_size;
  return bgp::mrt::ParseStream(std::move(table), wire, options);
}

/// Bulk-parses `wire` into compact records interned in `table`: the
/// record-plane form of OpenWireStream for consumers that want the whole
/// feed resident anyway. QMRT takes the batch decoder (no per-batch
/// hand-off copies); text drains the chunked parser.
inline std::vector<bgp::feed::UpdateRec> ParseWireRecords(
    FeedFormat format, const std::shared_ptr<bgp::feed::AsPathTable>& table,
    std::string_view wire, std::size_t batch_size = 0) {
  if (format == FeedFormat::kQmrt) {
    bgp::qmrt::DecodeOptions options;
    if (batch_size != 0) options.batch_size = batch_size;
    return bgp::qmrt::DecodeRecords(*table, wire, options);
  }
  bgp::mrt::ParseStreamOptions options;
  if (batch_size != 0) options.batch_size = batch_size;
  auto stream = bgp::mrt::ParseStream(table, wire, options);
  return bgp::feed::Drain(stream);
}

/// Interns `updates` into `table`: a generated feed on the record plane,
/// the only input the analysis stages take. A filter or sanitizer
/// compares path ids, so intern its RIB and its updates into one table.
inline std::vector<bgp::feed::UpdateRec> InternRecords(
    bgp::feed::AsPathTable& table, const std::vector<bgp::BgpUpdate>& updates) {
  std::vector<bgp::feed::UpdateRec> records;
  records.reserve(updates.size());
  for (const bgp::BgpUpdate& u : updates) {
    records.push_back(bgp::feed::ToRecord(u, table));
  }
  return records;
}

/// Round-trip check without materializing: true iff `records` under
/// `table` denote exactly `updates` — every scalar field equal and every
/// record's interned path resolving to the update's hop vector.
[[nodiscard]] inline bool RecordsMatchUpdates(
    const bgp::feed::AsPathTable& table,
    const std::vector<bgp::feed::UpdateRec>& records,
    const std::vector<bgp::BgpUpdate>& updates) {
  if (records.size() != updates.size()) return false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bgp::feed::UpdateRec& r = records[i];
    const bgp::BgpUpdate& u = updates[i];
    if (r.time != u.time || r.session != u.session || r.type != u.type ||
        r.prefix != u.prefix) {
      return false;
    }
    if (!(table.Path(r.path) == u.path)) return false;
  }
  return true;
}

/// Standard bench header: what this binary reproduces.
inline void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::cout << "QuickSand reproduction bench\n"
            << "  experiment: " << experiment << "\n"
            << "  paper claim: " << claim << "\n";
}

/// "paper vs measured" comparison row helper.
inline void PrintComparison(util::Table& table, const std::string& metric,
                            const std::string& paper, const std::string& measured) {
  table.AddRow({metric, paper, measured});
}

/// Per-binary bench harness: parses the shared CLI flags, times named
/// phases, accumulates paper-vs-measured rows and scalar results, and on
/// Finish() writes the machine-readable summary.
///
///   --json <path>    write a "quicksand-bench-v1" JSON summary
///   --trace <path>   stream pipeline phases as trace_event JSONL
///   --threads <n>    worker threads for parallel phases (0 = hardware
///                    concurrency, the default; at most 256). Output is
///                    byte-identical for every value — only wall time
///                    changes (see docs/PERFORMANCE.md).
///   --checkpoint <dir>       write crash-safe sweep snapshots into <dir>
///   --checkpoint-every <n>   snapshot cadence in completed shards (default 1)
///   --resume                 restart checkpointed sweeps from their last
///                            snapshot; output stays byte-identical to an
///                            uninterrupted run (docs/ROBUSTNESS.md)
///   --shard-deadline-ms <n>  fail fast (exit 3 + diagnostic dump) if any
///                            sweep shard runs longer than <n> ms
///   --feed-batch <n>         records per batch in the bench's feed
///                            stream hand-offs (0, the default, selects the
///                            default batch (4096)). Output is
///                            byte-identical for every value — only the
///                            run-class feed.* metrics reflect the batching
///                            (docs/ARCHITECTURE.md)
///   --format <text|qmrt>     wire format for the bench's serialize/parse
///                            legs: the textual MRT debug codec (default)
///                            or the QMRT binary codec. Output is
///                            byte-identical outside the run-class qmrt.*
///                            and feed.* metrics — only wall time
///                            changes (docs/PERFORMANCE.md)
///   --profile                enable the profiling layer: span aggregation
///                            and a background RSS sampler. Runs exactly
///                            the code an unprofiled run does, prints the
///                            span, histogram-quantile and RSS tables, and
///                            adds only a "spans" section to the JSON
///                            summary (docs/OBSERVABILITY.md)
///
/// The JSON summary keeps wall-clock phase timings and the "run" section
/// (obs::Stability::kRun metrics) apart from the seeded metric snapshot,
/// so two seeded runs compare equal outside them
/// (scripts/check_bench_json.py).
class BenchContext {
 public:
  BenchContext(int argc, char** argv, std::string experiment, std::string claim)
      : experiment_(std::move(experiment)), claim_(std::move(claim)) {
    ParseArgs(argc, argv);
    if (!trace_path_.empty()) {
      try {
        trace_ = std::make_unique<obs::TraceSink>(trace_path_);
      } catch (const std::runtime_error& error) {
        std::cerr << "cannot open --trace path " << trace_path_ << ": "
                  << error.what() << "\n";
        std::exit(2);
      }
      obs::SetGlobalTrace(trace_.get());
    }
    if (!checkpoint_dir_.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(checkpoint_dir_, ec);
      if (ec) {
        std::cerr << "cannot create --checkpoint dir " << checkpoint_dir_ << ": "
                  << ec.message() << "\n";
        std::exit(2);
      }
    }
    if (shard_deadline_ms_ > 0) {
      watchdog_ = std::make_unique<ckpt::Watchdog>(
          std::chrono::milliseconds(shard_deadline_ms_));
    }
    if (profile_) {
      obs::SpanRegistry::Global().Enable(true);
      obs::ResourceSampler::Options sampler_options;
      // Overlay the streaming plane's residency/throughput next to RSS in
      // each trace sample (names the feed data plane maintains).
      sampler_options.counters = {"feed.batches", "feed.updates_streamed"};
      sampler_options.gauges = {"feed.peak_resident_updates"};
      sampler_ = std::make_unique<obs::ResourceSampler>(std::move(sampler_options));
      sampler_->Start();
    }
    PrintHeader(experiment_, claim_);
  }

  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;

  ~BenchContext() {
    if (trace_ != nullptr) obs::SetGlobalTrace(nullptr);
  }

  /// Runs `fn`, records its wall time as a named phase, and returns
  /// whatever `fn` returns.
  /// Returning through here lets phases wrap the construction of
  /// non-default-constructible values (Scenario, CollectorSet, ...).
  template <typename Fn>
  auto Timed(const std::string& phase, Fn&& fn) {
    const obs::ScopedSpan span("bench." + phase);
    const obs::Stopwatch watch;
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      phases_.emplace_back(phase, watch.ElapsedMs());
    } else {
      auto result = fn();
      phases_.emplace_back(phase, watch.ElapsedMs());
      return result;
    }
  }

  /// Adds a paper-vs-measured row to both the text table and the JSON
  /// summary's "comparisons" array.
  void Comparison(util::Table& table, const std::string& metric,
                  const std::string& paper, const std::string& measured) {
    PrintComparison(table, metric, paper, measured);
    comparisons_.push_back({metric, paper, measured});
  }

  /// Records a scalar experiment result for the JSON summary's "results"
  /// object (insertion-ordered).
  void Result(const std::string& key, obs::JsonValue value) {
    results_.Set(key, std::move(value));
  }

  /// Stops the profiling layer, prints its breakdown tables, and writes
  /// the JSON summary (when --json was given). Call once, last.
  void Finish() {
    if (sampler_ != nullptr) sampler_->Stop();
    if (profile_) PrintProfile();
    if (json_path_.empty()) return;
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", "quicksand-bench-v1");
    doc.Set("experiment", experiment_);
    doc.Set("claim", claim_);
    obs::JsonValue phases = obs::JsonValue::Array();
    for (const auto& [name, wall_ms] : phases_) {
      obs::JsonValue phase = obs::JsonValue::Object();
      phase.Set("name", name);
      phase.Set("wall_ms", wall_ms);
      phases.Append(std::move(phase));
    }
    doc.Set("phases", std::move(phases));
    doc.Set("total_wall_ms", total_.ElapsedMs());
    // Outside the deterministic view: a run's thread count, like its wall
    // times, is allowed to differ between compared runs.
    doc.Set("threads", static_cast<std::int64_t>(threads()));
    // Seeded metrics at top level; everything two runs may disagree on
    // (obs::Stability::kRun) in "run", with the same three maps.
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const obs::JsonValue seeded = registry.Snapshot(obs::Stability::kSeeded).ToJson();
    for (const auto& [key, value] : seeded.members()) doc.Set(key, value);
    doc.Set("run", registry.Snapshot(obs::Stability::kRun).ToJson());
    obs::JsonValue comparisons = obs::JsonValue::Array();
    for (const auto& row : comparisons_) {
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("metric", row.metric);
      entry.Set("paper", row.paper);
      entry.Set("measured", row.measured);
      comparisons.Append(std::move(entry));
    }
    doc.Set("comparisons", std::move(comparisons));
    doc.Set("results", results_);
    if (profile_) doc.Set("spans", SpansJson());
    // Atomic replacement: a crash mid-Finish leaves the previous summary
    // (or nothing), never a torn JSON document.
    util::WriteFileAtomic(json_path_, doc.Dump(2) + '\n');
    std::cout << "\nJSON summary written to " << json_path_ << "\n";
  }

  /// Describes one checkpointable sweep for ckpt::CheckpointedMap: stage
  /// name, snapshot path under --checkpoint (empty when disabled, making
  /// the sweep an exact pass-through), the --resume / --checkpoint-every
  /// settings, the --shard-deadline-ms watchdog, and a fingerprint over
  /// (experiment, stage, shard count, config_key) so resume refuses
  /// snapshots from any other sweep. Fold every seed/parameter that
  /// shapes the sweep's output into `config_key`.
  [[nodiscard]] ckpt::StageOptions Stage(const std::string& stage,
                                         std::size_t shards,
                                         std::uint64_t config_key = 0) const {
    ckpt::StageOptions options;
    options.name = stage;
    options.every = checkpoint_every_;
    options.resume = resume_;
    options.watchdog = watchdog_.get();
    options.fingerprint = ckpt::FingerprintBuilder()
                              .Add(experiment_)
                              .Add(stage)
                              .Add(static_cast<std::uint64_t>(shards))
                              .Add(config_key)
                              .Finish();
    if (!checkpoint_dir_.empty()) {
      options.snapshot_path = checkpoint_dir_ + "/" + stage + ".ckpt";
    }
    return options;
  }

  [[nodiscard]] const std::string& json_path() const noexcept { return json_path_; }

  /// Resolved worker-thread count from --threads (0 = hardware
  /// concurrency). Pass this to every `threads` knob the bench exercises.
  [[nodiscard]] std::size_t threads() const noexcept {
    return exec::ResolveThreads(threads_);
  }

  /// --feed-batch value: 0 = the default batch (4096), otherwise the
  /// batch size for the streaming data plane.
  [[nodiscard]] std::size_t feed_batch() const noexcept { return feed_batch_; }

  /// --format value: the wire format for serialize/parse legs.
  [[nodiscard]] FeedFormat format() const noexcept { return format_; }

 private:
  struct ComparisonRow {
    std::string metric;
    std::string paper;
    std::string measured;
  };

  /// Prints the --profile breakdown: span aggregates, latency quantiles,
  /// and the sampler's memory footprint.
  void PrintProfile() const {
    const auto spans = obs::SpanRegistry::Global().Summary();
    if (!spans.empty()) {
      std::cout << "\nSpan profile (wall time, inclusive vs self):\n";
      util::Table table({"span", "calls", "total_ms", "self_ms", "depth", "threads"});
      for (const auto& [name, stats] : spans) {
        table.AddRow({name, std::to_string(stats.calls),
                      util::FormatDouble(stats.total_us / 1000.0, 3),
                      util::FormatDouble(stats.self_us / 1000.0, 3),
                      std::to_string(stats.max_depth),
                      std::to_string(stats.threads)});
      }
      std::cout << table.Render();
    }
    bool any_histogram = false;
    util::Table quantiles({"histogram", "count", "p50", "p95", "p99"});
    for (const obs::Stability stability : {obs::Stability::kSeeded, obs::Stability::kRun}) {
      for (const auto& histogram :
           obs::MetricsRegistry::Global().Snapshot(stability).histograms) {
        if (histogram.count == 0) continue;
        any_histogram = true;
        quantiles.AddRow(
            {histogram.name, std::to_string(histogram.count),
             util::FormatDouble(obs::EstimateQuantile(histogram.buckets, 0.50), 3),
             util::FormatDouble(obs::EstimateQuantile(histogram.buckets, 0.95), 3),
             util::FormatDouble(obs::EstimateQuantile(histogram.buckets, 0.99), 3)});
      }
    }
    if (any_histogram) {
      std::cout << "\nHistogram quantiles (estimated from buckets):\n"
                << quantiles.Render();
    }
    if (sampler_ != nullptr) {
      std::cout << "\nResource sampler: peak RSS " << sampler_->peak_rss_kb()
                << " KiB over " << sampler_->samples() << " samples\n";
    }
  }

  /// Span aggregates as a name-keyed object (wall time under _ms keys).
  [[nodiscard]] static obs::JsonValue SpansJson() {
    obs::JsonValue spans = obs::JsonValue::Object();
    for (const auto& [name, stats] : obs::SpanRegistry::Global().Summary()) {
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("calls", stats.calls);
      entry.Set("total_ms", stats.total_us / 1000.0);
      entry.Set("self_ms", stats.self_us / 1000.0);
      entry.Set("max_depth", static_cast<std::int64_t>(stats.max_depth));
      entry.Set("threads", stats.threads);
      spans.Set(name, std::move(entry));
    }
    return spans;
  }

  void ParseArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
        // Fail before the experiment runs, not minutes later in Finish().
        if (!std::ofstream(json_path_, std::ios::app)) {
          std::cerr << "cannot open --json path " << json_path_ << "\n";
          std::exit(2);
        }
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        threads_ = ParseCount(arg, argv[++i]);
        // Every parallel phase starts up to this many OS threads.
        if (threads_ > kMaxThreads) {
          std::cerr << "invalid --threads value: " << threads_ << " (at most "
                    << kMaxThreads << ")\n";
          std::exit(2);
        }
      } else if (arg == "--checkpoint" && i + 1 < argc) {
        checkpoint_dir_ = argv[++i];
      } else if (arg == "--checkpoint-every" && i + 1 < argc) {
        checkpoint_every_ = ParseCount(arg, argv[++i]);
        if (checkpoint_every_ == 0) checkpoint_every_ = 1;
      } else if (arg == "--resume") {
        resume_ = true;
      } else if (arg == "--shard-deadline-ms" && i + 1 < argc) {
        shard_deadline_ms_ = ParseCount(arg, argv[++i]);
      } else if (arg == "--feed-batch" && i + 1 < argc) {
        feed_batch_ = ParseCount(arg, argv[++i]);
      } else if (arg == "--format" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (value == "text") {
          format_ = FeedFormat::kText;
        } else if (value == "qmrt") {
          format_ = FeedFormat::kQmrt;
        } else {
          std::cerr << "invalid --format value: " << value << " (want text or qmrt)\n";
          std::exit(2);
        }
      } else if (arg == "--profile") {
        profile_ = true;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: " << argv[0] << Usage();
        std::exit(0);
      } else {
        std::cerr << "unknown argument: " << arg << "\n"
                  << "usage: " << argv[0] << Usage();
        std::exit(2);
      }
    }
    if (resume_ && checkpoint_dir_.empty()) {
      std::cerr << "--resume requires --checkpoint <dir>\n";
      std::exit(2);
    }
  }

  static std::size_t ParseCount(const std::string& flag, const char* raw) {
    const std::optional<std::uint64_t> value = util::ParseU64(raw);
    if (!value.has_value()) {
      std::cerr << "invalid " << flag << " value: " << raw << "\n";
      std::exit(2);
    }
    return static_cast<std::size_t>(*value);
  }

  static constexpr std::size_t kMaxThreads = 256;

  static const char* Usage() {
    return " [--json <path>] [--trace <path>] [--threads <n>]\n"
           "    [--checkpoint <dir>] [--checkpoint-every <n>] [--resume]\n"
           "    [--shard-deadline-ms <n>] [--feed-batch <n>]\n"
           "    [--format <text|qmrt>] [--profile]\n";
  }

  std::string experiment_;
  std::string claim_;
  std::string json_path_;
  std::string trace_path_;
  std::size_t threads_ = 0;  // 0 = hardware concurrency
  std::string checkpoint_dir_;       // empty = checkpointing disabled
  std::size_t checkpoint_every_ = 1;
  bool resume_ = false;
  std::size_t shard_deadline_ms_ = 0;  // 0 = watchdog disabled
  std::size_t feed_batch_ = 0;         // 0 = default batch (4096)
  FeedFormat format_ = FeedFormat::kText;
  bool profile_ = false;
  std::unique_ptr<ckpt::Watchdog> watchdog_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::ResourceSampler> sampler_;
  obs::Stopwatch total_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<ComparisonRow> comparisons_;
  obs::JsonValue results_ = obs::JsonValue::Object();
};

}  // namespace quicksand::bench
