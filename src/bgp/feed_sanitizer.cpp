#include "bgp/feed_sanitizer.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::bgp {

SanitizedRecords SanitizeRecords(const std::vector<feed::UpdateRec>& initial_rib,
                                 std::vector<feed::UpdateRec> updates) {
  const obs::ScopedSpan span("bgp.sanitize_feed");
  SanitizedRecords result;
  for (std::size_t i = 1; i < updates.size(); ++i) {
    if (updates[i].time < updates[i - 1].time) ++result.out_of_order_repaired;
  }
  if (result.out_of_order_repaired > 0) {
    feed::SortRecords(updates);
    obs::MetricsRegistry::Global()
        .GetCounter("bgp.sanitizer.out_of_order_repaired")
        .Increment(result.out_of_order_repaired);
  }
  FilteredRecords filtered = FilterSessionRecords(initial_rib, std::move(updates));
  result.updates = std::move(filtered.updates);
  result.reset_stats = filtered.stats;
  return result;
}

}  // namespace quicksand::bgp
