#pragma once

// BGP UPDATE records as observed at route collectors.
//
// This is the schema the paper's measurement pipeline consumes: a
// timestamped announce/withdraw for a prefix on a specific collector
// session, carrying the AS-PATH for announcements.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bgp/path.hpp"
#include "netbase/prefix.hpp"
#include "netbase/sim_time.hpp"

namespace quicksand::bgp {

/// Identifier of one eBGP session between a collector and a peer AS.
/// Sessions are numbered globally across collectors by CollectorSet.
using SessionId = std::uint32_t;

enum class UpdateType : std::uint8_t { kAnnounce, kWithdraw };

/// One BGP UPDATE as recorded on a collector session.
struct BgpUpdate {
  netbase::SimTime time;
  SessionId session = 0;
  UpdateType type = UpdateType::kAnnounce;
  netbase::Prefix prefix;
  AsPath path;  ///< empty for withdrawals

  friend bool operator==(const BgpUpdate&, const BgpUpdate&) = default;
};

std::ostream& operator<<(std::ostream& os, const BgpUpdate& update);

/// Stable sort of updates by (time, session, prefix) — the canonical feed
/// order the analyzers expect. The time-bucketed kernel in
/// bgp/feed_order.hpp, shared with feed::SortRecords: exactly
/// std::stable_sort's order in a few streaming passes, with half of
/// std::stable_sort's scratch.
void SortUpdates(std::vector<BgpUpdate>& updates);

}  // namespace quicksand::bgp
