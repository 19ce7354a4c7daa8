#include "bgp/update.hpp"

#include <ostream>

#include "bgp/feed_order.hpp"

namespace quicksand::bgp {

std::ostream& operator<<(std::ostream& os, const BgpUpdate& update) {
  os << update.time.seconds << " s" << update.session
     << (update.type == UpdateType::kAnnounce ? " A " : " W ") << update.prefix;
  if (update.type == UpdateType::kAnnounce) os << " [" << update.path << "]";
  return os;
}

void SortUpdates(std::vector<BgpUpdate>& updates) { StableSortFeed(updates); }

}  // namespace quicksand::bgp
