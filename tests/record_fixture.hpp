#pragma once

// Test-fixture builder for the record plane. The analysis stages (the
// session-reset filter, the sanitizer, the churn analyzer and the relay
// monitor) take feed::UpdateRec + AsPathTable only, while tests write
// their fixtures as readable BgpUpdate literals. A RecordFixture interns
// every fixture of one test into ONE table — the filter and sanitizer
// compare path ids, which means path equality only within a table — and
// hands them to the consumers' record entry points.

#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed.hpp"
#include "bgp/update.hpp"
#include "core/monitor.hpp"

namespace quicksand::test {

/// The comparable projection of one finished churn entry: (session,
/// prefix, announcements, path changes, distinct paths, qualifying extra
/// ASes, glimpsed extra ASes).
using ChurnRow =
    std::tuple<bgp::SessionId, netbase::Prefix, std::size_t, std::size_t, std::size_t,
               std::vector<bgp::AsNumber>, std::vector<bgp::AsNumber>>;

/// Every entry of a finished analyzer, in key order.
inline std::vector<ChurnRow> ChurnRows(const bgp::ChurnAnalyzer& analyzer) {
  std::vector<ChurnRow> rows;
  for (const auto& [key, churn] : analyzer.entries()) {
    rows.emplace_back(key.session, key.prefix, churn.announcements, churn.path_changes,
                      churn.distinct_paths, churn.qualifying_extra_ases,
                      churn.glimpsed_extra_ases);
  }
  return rows;
}

class RecordFixture {
 public:
  [[nodiscard]] std::vector<bgp::feed::UpdateRec> Recs(
      std::span<const bgp::BgpUpdate> updates) {
    return bgp::feed::InternRecords(*table_, updates);
  }

  /// Back to fixture form, to compare a stage's output with literals.
  [[nodiscard]] std::vector<bgp::BgpUpdate> Updates(
      std::span<const bgp::feed::UpdateRec> records) const {
    std::vector<bgp::BgpUpdate> updates;
    updates.reserve(records.size());
    for (const bgp::feed::UpdateRec& rec : records) {
      updates.push_back(bgp::feed::ToBgpUpdate(rec, *table_));
    }
    return updates;
  }

  void Feed(bgp::ChurnAnalyzer& analyzer, const bgp::BgpUpdate& update) {
    analyzer.ConsumeRecord(Rec(update), *table_);
  }

  void Feed(bgp::ChurnAnalyzer& analyzer, std::span<const bgp::BgpUpdate> updates) {
    for (const bgp::BgpUpdate& update : updates) Feed(analyzer, update);
  }

  std::vector<core::Alert> Feed(core::RelayMonitor& monitor,
                                const bgp::BgpUpdate& update) {
    return monitor.ConsumeRecord(Rec(update), *table_);
  }

  void FeedBaseline(core::RelayMonitor& monitor, std::span<const bgp::BgpUpdate> rib) {
    for (const bgp::BgpUpdate& update : rib) monitor.LearnRecord(Rec(update), *table_);
  }

  [[nodiscard]] const std::shared_ptr<bgp::feed::AsPathTable>& table() const noexcept {
    return table_;
  }

 private:
  [[nodiscard]] bgp::feed::UpdateRec Rec(const bgp::BgpUpdate& update) {
    return bgp::feed::ToRecord(update, *table_);
  }

  std::shared_ptr<bgp::feed::AsPathTable> table_ =
      std::make_shared<bgp::feed::AsPathTable>();
};

}  // namespace quicksand::test
