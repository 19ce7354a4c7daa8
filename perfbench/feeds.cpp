// The two collector-feed workloads: the paper's Fig. 3 / Table 1 pipeline
// (archive decode -> sanitize -> churn -> relay monitor) on the record
// plane, once over a clean month in the QMRT wire format (feed_month) and
// once over a faulted week in the text codec (feed_faulted).

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/dynamics_gen.hpp"
#include "bgp/feed.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "core/monitor.hpp"
#include "fault/injector.hpp"
#include "harness.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

namespace bgp = quicksand::bgp;
namespace core = quicksand::core;
namespace fault = quicksand::fault;
namespace feed = quicksand::bgp::feed;
namespace netbase = quicksand::netbase;

constexpr std::int64_t kWeek = 7 * netbase::duration::kDay;

void AddUpdate(Digest& digest, std::int64_t time, bgp::SessionId session,
               bgp::UpdateType type, const netbase::Prefix& prefix,
               const std::vector<bgp::AsNumber>& hops) {
  digest.Add(static_cast<std::uint64_t>(time)).Add(session);
  digest.Add(static_cast<std::uint64_t>(type));
  digest.Add(prefix.network().value()).Add(static_cast<std::uint64_t>(prefix.length()));
  digest.Add(hops.size());
  for (const bgp::AsNumber as : hops) digest.Add(as);
}

std::uint64_t HashUpdates(const std::vector<bgp::BgpUpdate>& updates) {
  Digest digest;
  for (const bgp::BgpUpdate& u : updates) {
    AddUpdate(digest, u.time.seconds, u.session, u.type, u.prefix, u.path.hops());
  }
  return digest.value();
}

std::uint64_t HashRecords(const feed::AsPathTable& table,
                          const std::vector<feed::UpdateRec>& records) {
  Digest digest;
  for (const feed::UpdateRec& r : records) {
    AddUpdate(digest, r.time.seconds, r.session, r.type, r.prefix, table.Path(r.path).hops());
  }
  return digest.value();
}

/// What one pass's downstream produced, reduced to what a later pass must
/// reproduce exactly.
struct FeedSummary {
  std::uint64_t items = 0;
  std::uint64_t sanitized = 0;
  std::uint64_t repaired = 0;
  std::uint64_t duplicates_removed = 0;
  std::uint64_t burst_updates_removed = 0;
  std::uint64_t churn_entries = 0;
  std::uint64_t churn_dropped = 0;
  std::uint64_t ratio_hash = 0;
  std::uint64_t alerts = 0;
  std::uint64_t alert_hash = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t paths = 0;

  friend bool operator==(const FeedSummary&, const FeedSummary&) = default;

  void AddTo(Digest& digest) const {
    for (const std::uint64_t v :
         {items, sanitized, repaired, duplicates_removed, burst_updates_removed,
          churn_entries, churn_dropped, ratio_hash, alerts, alert_hash, suppressed, paths}) {
      digest.Add(v);
    }
  }
};

/// Shared by both feed workloads: the t=0 table and the update archive
/// arrive as wire bytes; a pass decodes them (DecodeArchive), then runs
/// the sanitizer, the churn analysis and the relay monitor on the record
/// plane. Operations per pass: decode, sanitize, churn, monitor.
class FeedWorkload : public Workload {
 public:
  explicit FeedWorkload(const Options& options) : seeds_(SeedsFor(options)) {}

  double Pass(std::size_t /*variant*/, PassContext& ctx) override {
    auto table = std::make_shared<feed::AsPathTable>();
    std::vector<feed::UpdateRec> rib;
    std::vector<feed::UpdateRec> updates;
    const std::uint64_t items = DecodeArchive(ctx, table, rib, updates);
    if (ctx.check()) CheckDecoded(*table, rib, updates);
    summary_ = FeedSummary{};
    summary_.items = items;

    bgp::SanitizedRecords clean = ctx.Step("bgp.feed_sanitizer", [&] {
      return bgp::SanitizeRecords(rib, std::move(updates));
    });
    if (ctx.check()) sanitized_hash_ = HashRecords(*table, clean.updates);
    bgp::ChurnParams churn_params;
    churn_params.window_end_s = shift_s_ + window_;
    bgp::ChurnAnalyzer churn = ctx.Step("bgp.churn", [&] {
      return bgp::AnalyzeChurnStream(feed::FromRecords(table, rib),
                                     feed::FromRecords(table, clean.updates), churn_params,
                                     /*threads=*/1);
    });
    summary_.sanitized = clean.updates.size();
    auto monitor = ctx.Step("core.monitor", [&] {
      auto m = std::make_unique<core::RelayMonitor>(tor_prefixes_);
      feed::UpdateStream baseline = feed::FromRecords(table, std::move(rib));
      m->LearnBaselineStream(baseline);
      feed::UpdateStream stream = feed::FromRecords(table, std::move(clean.updates));
      (void)m->ConsumeStream(stream);
      return m;
    });

    // The clock stops when Pass returns: Verify reduces what the pass kept.
    summary_.repaired = clean.out_of_order_repaired;
    summary_.duplicates_removed = clean.reset_stats.duplicates_removed;
    summary_.burst_updates_removed = clean.reset_stats.burst_updates_removed;
    summary_.paths = table->size();
    churn_ = std::move(churn);
    monitor_ = std::move(monitor);
    return static_cast<double>(items);
  }

  void Verify(std::size_t /*variant*/, Result& result) override {
    result.attempted += 4;
    summary_.churn_entries = churn_->entries().size();
    summary_.churn_dropped = churn_->DroppedOutOfOrder();
    Digest ratios;
    for (const double r : churn_->RatioToSessionMedian(tor_prefixes_)) ratios.AddDouble(r);
    summary_.ratio_hash = ratios.value();
    Digest alerts;
    for (const core::Alert& a : monitor_->alerts()) {
      alerts.Add(static_cast<std::uint64_t>(a.time.seconds)).Add(a.session);
      alerts.Add(a.monitored_prefix.network().value()).Add(a.announced_prefix.network().value());
      alerts.Add(static_cast<std::uint64_t>(a.announced_prefix.length()));
      alerts.Add(static_cast<std::uint64_t>(a.kind)).Add(a.suspect);
    }
    summary_.alerts = monitor_->alerts().size();
    summary_.alert_hash = alerts.value();
    summary_.suppressed = monitor_->SuppressedDuplicates();
    churn_.reset();
    monitor_.reset();
    if (!reference_) {
      reference_ = summary_;
      CheckFirstPass(result);
    } else if (!(summary_ == *reference_)) {
      ++result.failed;
      result.Fail(name_ + ": a pass's outputs differ from the first pass");
    }
  }

  void Finish(Result& result) override {
    if (!reference_) return;
    Digest digest;
    digest.AddBytes(name_).Add(sanitized_hash_);
    reference_->AddTo(digest);
    result.digest = digest.Hex();
    result.counts["items_per_pass"] = reference_->items;
    result.counts["sanitized"] = reference_->sanitized;
    result.counts["alerts"] = reference_->alerts;
    result.counts["churn_entries"] = reference_->churn_entries;
    result.counts["paths_interned"] = reference_->paths - 1;  // excl. the empty path
  }

  std::vector<std::string> TracedCounters() const override {
    return {"bgp.reset_filter.input_updates", "bgp.reset_filter.output_updates",
            "bgp.mrt.bad_lines", "core.monitor.alerts.origin_change",
            "core.monitor.alerts.more_specific", "core.monitor.alerts.new_upstream"};
  }

  void LayerMetrics(const TraceData& data, Result& result) override {
    const auto count = [&](const char* name) {
      const auto it = data.counters.find(name);
      return it == data.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double passes = static_cast<double>(std::max<std::size_t>(1, data.traced_passes));
    const double input = count("bgp.reset_filter.input_updates");
    result.Set("bgp.feed_sanitizer.kept_ratio",
               input > 0 ? count("bgp.reset_filter.output_updates") / input : 0, "ratio");
    result.Set("core.monitor.alerts",
               (count("core.monitor.alerts.origin_change") +
                count("core.monitor.alerts.more_specific") +
                count("core.monitor.alerts.new_upstream")) /
                   passes,
               "count");
    if (reference_) {
      result.Set("bgp.feed.paths_interned", static_cast<double>(reference_->paths - 1),
                 "count");
    }
    result.Set("bgp.dynamics_gen.route_cache_hit_ratio", dynamics_cache_hit_ratio_, "ratio");
    AddLayerMetrics(data, result);
  }

 protected:
  /// Decodes the archive into `rib` and `updates` (interning into
  /// `table`); returns the items the pass carries.
  virtual std::uint64_t DecodeArchive(PassContext& ctx,
                                      const std::shared_ptr<feed::AsPathTable>& table,
                                      std::vector<feed::UpdateRec>& rib,
                                      std::vector<feed::UpdateRec>& updates) = 0;
  /// Check-pass comparison of the decoded feed with what was generated.
  virtual void CheckDecoded(const feed::AsPathTable& table,
                            const std::vector<feed::UpdateRec>& rib,
                            const std::vector<feed::UpdateRec>& updates) = 0;
  virtual void CheckFirstPass(Result& result) = 0;
  virtual void AddLayerMetrics(const TraceData& /*data*/, Result& /*result*/) {}

  /// Generates the dynamics (one span) and records the generator's
  /// route-cache hit ratio.
  bgp::GeneratedDynamics Generate(Tracer& tracer, const World& world) {
    bgp::DynamicsParams params;
    params.window = window_;
    params.seed = seeds_.dynamics;
    params.threads = 1;
    const std::uint64_t hits = CounterValue("exec.route_cache.hits");
    const std::uint64_t misses = CounterValue("exec.route_cache.misses");
    bgp::GeneratedDynamics dynamics = [&] {
      const Span span(tracer, "bgp.dynamics_gen");
      return bgp::GenerateDynamics(world.topology, world.collectors, params);
    }();
    const double d_hits = static_cast<double>(CounterValue("exec.route_cache.hits") - hits);
    const double d_misses =
        static_cast<double>(CounterValue("exec.route_cache.misses") - misses);
    dynamics_cache_hit_ratio_ = d_hits + d_misses > 0 ? d_hits / (d_hits + d_misses) : 0;
    return dynamics;
  }

  Seeds seeds_;
  std::string name_;
  std::int64_t window_ = netbase::duration::kMonth;
  /// Start time of the archive (feed_month's seeded shift).
  std::int64_t shift_s_ = 0;
  std::unordered_set<netbase::Prefix> tor_prefixes_;
  std::uint64_t sanitized_hash_ = 0;
  double dynamics_cache_hit_ratio_ = 0;
  FeedSummary summary_;
  std::optional<FeedSummary> reference_;
  bool decoded_ok_ = true;

 private:
  std::optional<bgp::ChurnAnalyzer> churn_;
  std::unique_ptr<core::RelayMonitor> monitor_;
};

/// feed_month: one month of paper dynamics as QMRT blocks; item = update
/// decoded (t=0 table plus the month).
class FeedMonth final : public FeedWorkload {
 public:
  explicit FeedMonth(const Options& options) : FeedWorkload(options) {
    name_ = "feed_month";
    window_ = options.small ? 3 * netbase::duration::kDay : netbase::duration::kMonth;
    shift_s_ = static_cast<std::int64_t>(seeds_.run.value_or(0) % kShiftHours) * 3600;
  }

  void SetUp(Tracer& tracer) override {
    const std::unique_ptr<World> world = BuildWorld(seeds_, tracer);
    tor_prefixes_ = world->prefix_map.TorPrefixes(world->consensus.consensus);
    bgp::GeneratedDynamics dynamics = Generate(tracer, *world);
    // The seed moves the month's start: the archive holds the paper month's
    // records, re-stamped by a whole number of hours.
    for (auto* updates : {&dynamics.initial_rib, &dynamics.updates}) {
      for (bgp::BgpUpdate& u : *updates) u.time = u.time + shift_s_;
    }
    {
      const Span span(tracer, "bgp.qmrt.encode");
      rib_wire_ = bgp::qmrt::Encode(dynamics.initial_rib);
      month_wire_ = bgp::qmrt::Encode(dynamics.updates);
    }
    rib_hash_ = HashUpdates(dynamics.initial_rib);
    month_hash_ = HashUpdates(dynamics.updates);
    generated_ = dynamics.initial_rib.size() + dynamics.updates.size();
  }

  void TearDown() override {
    std::string().swap(rib_wire_);
    std::string().swap(month_wire_);
  }

 protected:
  std::uint64_t DecodeArchive(PassContext& ctx, const std::shared_ptr<feed::AsPathTable>& table,
                              std::vector<feed::UpdateRec>& rib,
                              std::vector<feed::UpdateRec>& updates) override {
    return ctx.Step("bgp.qmrt.decode", [&] {
      updates = bgp::qmrt::DecodeRecords(*table, month_wire_);
      rib = bgp::qmrt::DecodeRecords(*table, rib_wire_);
      return static_cast<std::uint64_t>(rib.size() + updates.size());
    });
  }

  void CheckDecoded(const feed::AsPathTable& table, const std::vector<feed::UpdateRec>& rib,
                    const std::vector<feed::UpdateRec>& updates) override {
    decoded_ok_ = HashRecords(table, rib) == rib_hash_ &&
                  HashRecords(table, updates) == month_hash_;
  }

  void CheckFirstPass(Result& result) override {
    if (!decoded_ok_ || reference_->items != generated_) {
      ++result.failed;
      result.Fail("feed_month: decoded records differ from the generated feed");
    }
    if (reference_->repaired != 0) {
      ++result.failed;
      result.Fail("feed_month: the clean month needed ordering repairs");
    }
  }

  void AddLayerMetrics(const TraceData& /*data*/, Result& result) override {
    result.Set("bgp.qmrt.bytes_per_update",
               static_cast<double>(rib_wire_.size() + month_wire_.size()) /
                   static_cast<double>(std::max<std::uint64_t>(1, generated_)),
               "B");
  }

 private:
  /// Start-time shifts span about a year, in whole hours.
  static constexpr std::uint64_t kShiftHours = 24 * 366;

  std::string rib_wire_;
  std::string month_wire_;
  std::uint64_t rib_hash_ = 0;
  std::uint64_t month_hash_ = 0;
  std::uint64_t generated_ = 0;
};

/// feed_faulted: one week of dynamics that collector-session faults
/// perturbed before archiving, written as MRT text that then rots; item =
/// archive line offered to the lenient parser (t=0 dump plus the week).
class FeedFaulted final : public FeedWorkload {
 public:
  explicit FeedFaulted(const Options& options) : FeedWorkload(options) {
    name_ = "feed_faulted";
    window_ = options.small ? netbase::duration::kDay : kWeek;
  }

  void SetUp(Tracer& tracer) override {
    const std::unique_ptr<World> world = BuildWorld(seeds_, tracer);
    tor_prefixes_ = world->prefix_map.TorPrefixes(world->consensus.consensus);
    const bgp::GeneratedDynamics dynamics = Generate(tracer, *world);
    const fault::FaultInjector injector(
        fault::FaultPlan::Scaled(kFaultRate, seeds_.faults, window_));
    const fault::FaultedStream perturbed = [&] {
      const Span span(tracer, "fault.perturb");
      return injector.PerturbStream(dynamics.initial_rib, dynamics.updates);
    }();
    std::string text;
    {
      const Span span(tracer, "bgp.mrt.write");
      rib_text_ = bgp::mrt::ToText(dynamics.initial_rib);
      text = bgp::mrt::ToText(perturbed.updates);
    }
    fault::FaultedText faulted = [&] {
      const Span span(tracer, "fault.corrupt");
      return injector.CorruptText(text);
    }();
    week_text_ = std::move(faulted.text);
    text_faults_ = faulted.stats;
    rib_entries_ = dynamics.initial_rib.size();
    perturbed_updates_ = perturbed.updates.size();
  }

  void TearDown() override {
    std::string().swap(rib_text_);
    std::string().swap(week_text_);
  }

 protected:
  std::uint64_t DecodeArchive(PassContext& ctx, const std::shared_ptr<feed::AsPathTable>& table,
                              std::vector<feed::UpdateRec>& rib,
                              std::vector<feed::UpdateRec>& updates) override {
    return ctx.Step("bgp.mrt.parse", [&] {
      bgp::mrt::ParseStreamOptions lenient;
      lenient.lenient = true;
      lenient.stats = std::make_shared<bgp::mrt::ParseStats>();
      feed::UpdateStream week = bgp::mrt::ParseStream(table, week_text_, lenient);
      updates = feed::Drain(week);
      bgp::mrt::ParseStreamOptions strict;
      strict.stats = std::make_shared<bgp::mrt::ParseStats>();
      feed::UpdateStream t0 = bgp::mrt::ParseStream(table, rib_text_, strict);
      rib = feed::Drain(t0);
      parse_stats_ = *lenient.stats;
      rib_lines_ = strict.stats->total_lines;
      return static_cast<std::uint64_t>(parse_stats_.total_lines + rib_lines_);
    });
  }

  void CheckDecoded(const feed::AsPathTable& /*table*/, const std::vector<feed::UpdateRec>& rib,
                    const std::vector<feed::UpdateRec>& updates) override {
    decoded_ok_ = rib.size() == rib_entries_ && rib_lines_ == rib_entries_ &&
                  updates.size() == parse_stats_.parsed &&
                  parse_stats_.parsed + parse_stats_.bad_lines == parse_stats_.total_lines;
  }

  void CheckFirstPass(Result& result) override {
    // The parser's line counts must match what the rot did: one line per
    // perturbed update plus duplicates, less lines truncated to nothing;
    // only rotted lines (or their duplicates) may fail to parse. The rot
    // must show, in bad lines and in ordering repairs.
    const fault::TextFaultStats& rot = text_faults_;
    const std::size_t lines = rot.input_lines + rot.duplicated;
    const bool counts_ok = rot.input_lines == perturbed_updates_ &&
                           parse_stats_.total_lines <= lines &&
                           parse_stats_.total_lines + 2 * rot.truncated >= lines &&
                           parse_stats_.bad_lines <= 2 * (rot.corrupted + rot.truncated);
    if (!decoded_ok_ || !counts_ok || parse_stats_.bad_lines == 0 ||
        reference_->repaired == 0) {
      ++result.failed;
      result.Fail("feed_faulted: parse or repair outputs are inconsistent");
    }
  }

  void AddLayerMetrics(const TraceData& data, Result& result) override {
    const auto it = data.counters.find("bgp.mrt.bad_lines");
    const double bad = it == data.counters.end() ? 0 : static_cast<double>(it->second);
    const double offered = static_cast<double>(parse_stats_.total_lines) *
                           static_cast<double>(std::max<std::size_t>(1, data.traced_passes));
    result.Set("bgp.mrt.parse.bad_line_ratio", offered > 0 ? bad / offered : 0, "ratio");
  }

 private:
  static constexpr double kFaultRate = 0.05;

  std::string rib_text_;
  std::string week_text_;
  fault::TextFaultStats text_faults_;
  bgp::mrt::ParseStats parse_stats_;
  std::uint64_t rib_lines_ = 0;
  std::uint64_t rib_entries_ = 0;
  std::uint64_t perturbed_updates_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFeedMonth(const Options& options) {
  return std::make_unique<FeedMonth>(options);
}

std::unique_ptr<Workload> MakeFeedFaulted(const Options& options) {
  return std::make_unique<FeedFaulted>(options);
}

}  // namespace perfbench
