#pragma once

// Shared machinery of the perfbench harness: run options, the in-memory
// span recorder used by traced runs, registry-counter deltas, resident-set
// probes, an output digest, the workload interface and the driver that
// times it (RunWorkload).
//
// The harness drives the QuickSand libraries from outside. It never edits
// them: every span below is opened by the harness around a call into a
// layer's public function, and every count is a delta of a counter the
// libraries already keep in obs::MetricsRegistry.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool trace = false;
  /// Reduced-size inputs, one set-up and the minimum passes (the self-test).
  bool small = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

/// Monotonic nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// One closed span: [start, end) on the steady clock, its parent (index
/// into the recorder, -1 for a root) and the id shared by every span of
/// one pass, pair or shard run.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t trace_id = 0;
};

/// In-memory span recorder. Disabled recorders cost one branch per span;
/// spans are only written out (WriteChromeTrace) when the run ends.
class Tracer {
 public:
  void Enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  void SetTraceId(std::uint64_t id) { trace_id_ = id; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int Open(std::string_view name);
  void Close(int index);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Self time (duration minus the part covered by direct children) summed
  /// per span name over spans [first, last).
  [[nodiscard]] std::map<std::string, double> SelfSeconds(std::size_t first,
                                                         std::size_t last) const;

  /// Over the root spans named `root` in [first, size()): the wall time
  /// their direct children cover, and their own summed wall time.
  struct Coverage {
    double covered_s = 0;
    double root_s = 0;
  };
  [[nodiscard]] Coverage CoverageOf(std::string_view root, std::size_t first) const;

  /// Writes every span as a Chrome trace_event 'X' record; returns false
  /// if the file could not be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  /// Per span in [first, last): the wall time its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> ChildNs(std::size_t first, std::size_t last) const;

  bool on_ = false;
  std::uint64_t trace_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span over one layer call.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(&tracer), index_(tracer.Open(name)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_->Close(index_); }

 private:
  Tracer* tracer_;
  int index_;
};

/// Current value of a registry counter (registering it at 0 if absent).
[[nodiscard]] std::uint64_t CounterValue(std::string_view name);

/// Resident set size now, in MiB (from /proc/self/statm).
[[nodiscard]] double CurrentRssMb();
/// Peak resident set size of the process so far, in MiB (getrusage).
[[nodiscard]] double PeakRssMb();
/// Returns freed heap to the OS, so the next RSS probe sees only live data.
void TrimHeap();

/// FNV-1a-64 accumulator for output digests.
class Digest {
 public:
  Digest& Add(std::uint64_t value);
  Digest& AddDouble(double value);
  Digest& AddBytes(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

[[nodiscard]] double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] of `values`.
[[nodiscard]] double Quantile(std::vector<double> values, double q);

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produces.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Identical on every run of the same workload, seed and size.
  std::string digest;
  /// Deterministic counts that must repeat exactly (the self-test
  /// compares them across runs).
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, Metric> metrics;
  /// Measured values that are not metrics (the uncalibrated wall values).
  std::map<std::string, double> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check: the run is no longer correct.
  void Fail(const std::string& what);
};

/// What a pass sees besides its inputs: the tracer, whether it is the
/// untimed check pass, and (in the memory pass) where each step's
/// resident-set growth goes.
class PassContext {
 public:
  PassContext(Tracer& tracer, bool check, std::map<std::string, double>* rss_growth)
      : tracer_(&tracer), check_(check), rss_growth_(rss_growth) {}

  [[nodiscard]] Tracer& tracer() const { return *tracer_; }
  /// True on the untimed first pass, which checks outputs in full.
  [[nodiscard]] bool check() const { return check_; }

  /// Runs one layer call under a span named after the layer. In the
  /// memory pass the heap is trimmed first, so the step's growth is the
  /// resident memory its results hold.
  template <class F>
  auto Step(std::string_view name, F&& f) -> decltype(f()) {
    double before = 0;
    if (rss_growth_ != nullptr) {
      TrimHeap();
      before = CurrentRssMb();
    }
    auto out = [&] {
      const Span span(*tracer_, name);
      return f();
    }();
    if (rss_growth_ != nullptr) (*rss_growth_)[std::string(name)] += CurrentRssMb() - before;
    return out;
  }

 private:
  Tracer* tracer_;
  bool check_;
  std::map<std::string, double>* rss_growth_;
};

/// What the traced passes of a run measured, for Workload::LayerMetrics.
struct TraceData {
  std::size_t traced_passes = 0;
  /// Registry-counter deltas summed over the traced passes.
  std::map<std::string, std::uint64_t> counters;
};

/// One benchmark workload. The driver (RunWorkload) owns the clock: it
/// times SetUp and Pass, and calls everything else outside the timed
/// phase.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input: the work setup_s measures.
  virtual void SetUp(Tracer& tracer) = 0;
  /// Drops the inputs, so a repeated SetUp starts from the same heap.
  virtual void TearDown() = 0;
  /// Distinct pass inputs (pairs, shards); pass i runs variant i % Variants().
  [[nodiscard]] virtual std::size_t Variants() const { return 1; }
  /// Passes the timed phase runs at least (covering every variant once).
  [[nodiscard]] virtual std::size_t MinPasses() const { return 1; }
  /// Variants the untimed check phase covers before timing starts.
  [[nodiscard]] virtual std::size_t CheckVariants() const { return 1; }
  /// Called after a variant's check pass: true if the workload replaced
  /// that variant's inputs (the check pass then runs again).
  virtual bool Redraw(std::size_t /*variant*/) { return false; }
  /// Untimed preparation of a pass.
  virtual void Prepare(std::size_t /*variant*/) {}
  /// Runs one pass through the layers; returns the items it carried.
  virtual double Pass(std::size_t variant, PassContext& ctx) = 0;
  /// Untimed: checks the pass's outputs against the first pass of the same
  /// variant and counts its operations into `result`.
  virtual void Verify(std::size_t variant, Result& result) = 0;
  /// Untimed end-of-run checks; sets result.digest and result.counts.
  virtual void Finish(Result& result) = 0;
  /// Registry counters whose deltas over traced passes LayerMetrics reads.
  [[nodiscard]] virtual std::vector<std::string> TracedCounters() const { return {}; }
  /// Adds the workload's own per-layer metrics (counts and ratios).
  virtual void LayerMetrics(const TraceData& /*data*/, Result& /*result*/) {}
};

/// Runs `workload` under `options`: set-up (repeated, or once traced),
/// the untimed check pass, the memory pass of a traced run, and the timed
/// passes; then the end-to-end metrics (untraced) or the per-layer metrics
/// (traced). Set-up times and pass rates are calibrated by a fixed
/// reference kernel timed just before each (see WORKLOADS.md).
Result RunWorkload(Workload& workload, const Options& options);

std::unique_ptr<Workload> MakeFeedMonth(const Options& options);
std::unique_ptr<Workload> MakeFeedFaulted(const Options& options);
std::unique_ptr<Workload> MakeCountermeasures(const Options& options);
std::unique_ptr<Workload> MakeClientPopulation(const Options& options);

}  // namespace perfbench
