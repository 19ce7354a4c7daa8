#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

int Tracer::Open(std::string_view name) {
  if (!on_) return -1;
  SpanRecord record;
  record.name = std::string(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.trace_id = trace_id_;
  record.start_ns = NowNs();
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::int64_t> Tracer::ChildNs(std::size_t first, std::size_t last) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < last; ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) >= first) {
      child_ns[static_cast<std::size_t>(parent)] += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return child_ns;
}

std::map<std::string, double> Tracer::SelfSeconds(std::size_t first,
                                                  std::size_t last) const {
  last = std::min(last, spans_.size());
  const std::vector<std::int64_t> child_ns = ChildNs(first, last);
  std::map<std::string, double> self;
  for (std::size_t i = first; i < last; ++i) {
    const std::int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

Tracer::Coverage Tracer::CoverageOf(std::string_view root, std::size_t first) const {
  Coverage coverage;
  const std::vector<std::int64_t> child_ns = ChildNs(first, spans_.size());
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent != -1 || spans_[i].name != root) continue;
    coverage.root_s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    coverage.covered_s += static_cast<double>(child_ns[i]) * 1e-9;
  }
  return coverage;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i != 0) out << ",";
    out << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"trace_id\":" << s.trace_id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint64_t CounterValue(std::string_view name) {
  return quicksand::obs::MetricsRegistry::Global().GetCounter(name).value();
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void TrimHeap() { malloc_trim(0); }

Digest& Digest::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Digest& Digest::AddDouble(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return Add(bits);
}

Digest& Digest::AddBytes(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  return Add(bytes.size());
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
  return buffer;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::Fail(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

namespace {

/// Set-up layers whose busy time a traced run reports (per set-up). Every
/// other span name reports busy time per traced pass of the timed phase.
const std::set<std::string> kSetupLayers = {
    "bgp.dynamics_gen", "bgp.qmrt.encode", "fault.perturb",       "bgp.mrt.write",
    "fault.corrupt",    "core.advisor",    "tor.population.build",
};

constexpr std::string_view kPassRoot = "perfbench.pass";

/// How many times an untraced run repeats its set-up; setup_s is the median.
constexpr int kSetupRepeats = 3;

/// How many times a check pass may replace a variant's inputs.
constexpr int kMaxRedraws = 8;

/// Duration of ReferenceSeconds() on the machine the calibrated metrics
/// are expressed for.
constexpr double kReferenceNominalS = 0.06;

/// Times a fixed piece of the harness's own work: filling, sorting and
/// hashing 4 MiB of keys into a 4 MiB table, all in buffers allocated on
/// the first call. It runs no QuickSand code, so no change to the program
/// moves it; only the machine's current speed does.
double ReferenceSeconds() {
  static std::vector<std::uint64_t> keys(std::size_t{1} << 19);
  static std::vector<std::uint32_t> table(std::size_t{1} << 20);
  const std::int64_t start = NowNs();
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  std::fill(table.begin(), table.end(), 0);
  const std::size_t mask = table.size() - 1;
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t slot = (keys[i] * 0x9E3779B97F4A7C15ULL >> 40) & mask;
    table[slot] += static_cast<std::uint32_t>(i);
    sum += table[(slot * 31 + i) & mask];
  }
  static volatile std::uint32_t sink = 0;
  sink = sink + sum;
  return SecondsSince(start);
}

/// The timed phase's clock: a pass starts only while the budget lasts,
/// and at least `min_passes` always run.
class PassBudget {
 public:
  PassBudget(double seconds, std::size_t min_passes)
      : start_ns_(NowNs()), seconds_(seconds), min_passes_(min_passes) {}
  [[nodiscard]] bool Next(std::size_t passes_done) const {
    return passes_done < min_passes_ || SecondsSince(start_ns_) < seconds_;
  }

 private:
  std::int64_t start_ns_;
  double seconds_;
  std::size_t min_passes_;
};

}  // namespace

Result RunWorkload(Workload& workload, const Options& options) {
  Result result;
  Tracer tracer;
  quicksand::obs::SpanRegistry& registry = quicksand::obs::SpanRegistry::Global();

  // The reference kernel runs before every set-up and every pass; the
  // median of its times is the run's machine speed.
  (void)ReferenceSeconds();  // allocates and faults in its buffers
  std::vector<double> reference_s;

  // Set-up: repeated from the same heap state for a steady median, or run
  // once under spans in a traced run.
  std::vector<double> setup_s;
  const int repeats = options.trace || options.small ? 1 : kSetupRepeats;
  tracer.Enable(options.trace);
  registry.Enable(options.trace);
  for (int r = 0; r < repeats; ++r) {
    if (r > 0) {
      workload.TearDown();
      TrimHeap();
    }
    reference_s.push_back(ReferenceSeconds());
    const std::int64_t start = NowNs();
    {
      const Span root(tracer, "perfbench.setup");
      workload.SetUp(tracer);
    }
    setup_s.push_back(SecondsSince(start));
  }
  tracer.Enable(false);
  registry.Enable(false);
  const std::size_t setup_spans = tracer.size();

  const auto run_pass = [&](std::size_t variant, PassContext& ctx) -> std::optional<double> {
    try {
      return workload.Pass(variant, ctx);
    } catch (const std::exception& e) {
      ++result.attempted;
      ++result.failed;
      result.Fail(std::string("pass threw: ") + e.what());
      return std::nullopt;
    }
  };

  // The untimed check passes (which also warm caches), then in a traced
  // run the memory pass.
  bool ok = true;
  for (std::size_t variant = 0; ok && variant < workload.CheckVariants(); ++variant) {
    for (int draw = 0;; ++draw) {
      workload.Prepare(variant);
      PassContext ctx(tracer, true, nullptr);
      ok = run_pass(variant, ctx).has_value();
      if (!ok || draw >= kMaxRedraws || !workload.Redraw(variant)) break;
    }
    if (ok) workload.Verify(variant, result);
  }
  std::map<std::string, double> rss_growth;
  if (ok && options.trace) {
    workload.Prepare(0);
    PassContext ctx(tracer, false, &rss_growth);
    if (run_pass(0, ctx)) workload.Verify(0, result);
  }

  // Timed phase. A traced run alternates untraced and traced passes over
  // the same variants, so their ratio is the tracing overhead.
  registry.Reset();
  const std::size_t phase_first = tracer.size();
  const std::size_t stride = options.trace ? 2 : 1;
  const std::vector<std::string> counters = workload.TracedCounters();
  TraceData data;
  std::vector<double> rates[2];
  const PassBudget budget(options.small ? 0 : options.seconds,
                          workload.MinPasses() * stride);
  for (std::size_t pass = 0; result.correct && budget.Next(pass); ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    const std::size_t variant = (pass / stride) % workload.Variants();
    workload.Prepare(variant);
    std::vector<std::uint64_t> before;
    if (traced) {
      for (const std::string& name : counters) before.push_back(CounterValue(name));
    }
    tracer.Enable(traced);
    registry.Enable(traced);
    tracer.SetTraceId(pass + 1);
    PassContext ctx(tracer, false, nullptr);
    reference_s.push_back(ReferenceSeconds());
    const std::int64_t start = NowNs();
    std::optional<double> items;
    {
      const Span root(tracer, kPassRoot);
      items = run_pass(variant, ctx);
    }
    const double seconds = SecondsSince(start);
    tracer.Enable(false);
    registry.Enable(false);
    if (!items) break;
    rates[traced ? 1 : 0].push_back(*items / seconds);
    if (traced) {
      ++data.traced_passes;
      for (std::size_t i = 0; i < counters.size(); ++i) {
        data.counters[counters[i]] += CounterValue(counters[i]) - before[i];
      }
    }
    workload.Verify(variant, result);
  }
  workload.Finish(result);

  // Calibration: express wall values at the speed of a machine on which
  // the reference kernel takes kReferenceNominalS.
  const double speed = Median(reference_s) / kReferenceNominalS;
  result.info["reference_ms"] = Median(reference_s) * 1e3;
  result.info["passes"] = static_cast<double>(rates[0].size() + rates[1].size());
  if (!options.trace) {
    result.Set("items_per_s", Median(rates[0]) * speed, "items/s");
    result.Set("setup_s", Median(setup_s) / speed, "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.info["items_per_wall_s"] = Median(rates[0]);
    result.info["setup_wall_s"] = Median(setup_s);
  } else {
    const double passes = static_cast<double>(std::max<std::size_t>(1, data.traced_passes));
    for (const auto& [name, seconds] : tracer.SelfSeconds(phase_first, tracer.size())) {
      if (name != kPassRoot) result.Set(name + ".busy_s", seconds / passes, "s");
    }
    for (const auto& [name, seconds] : tracer.SelfSeconds(0, setup_spans)) {
      if (kSetupLayers.contains(name)) result.Set(name + ".busy_s", seconds, "s");
    }
    for (const auto& [name, mb] : rss_growth) result.Set(name + ".rss_growth_mb", mb, "MB");
    const double untraced = Median(rates[0]);
    result.Set("trace.overhead_ratio", untraced > 0 ? Median(rates[1]) / untraced : 0,
               "ratio");
    const Tracer::Coverage coverage = tracer.CoverageOf(kPassRoot, phase_first);
    result.Set("trace.coverage",
               coverage.root_s > 0 ? coverage.covered_s / coverage.root_s : 0, "ratio");
    workload.LayerMetrics(data, result);
    if (!options.trace_out.empty() && !tracer.WriteChromeTrace(options.trace_out)) {
      std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
    }
  }
  return result;
}

}  // namespace perfbench
