#include "tor/consensus.hpp"

namespace quicksand::tor {

void Consensus::BuildIndex() {
  guards_.clear();
  exits_.clear();
  guard_exits_.clear();
  for (const Relay& r : relays_) {
    if (r.IsGuard()) guards_.push_back(&r);
    if (r.IsExit()) exits_.push_back(&r);
    if (r.IsGuard() && r.IsExit()) guard_exits_.push_back(&r);
  }
}

std::uint64_t Consensus::TotalBandwidth() const noexcept {
  std::uint64_t total = 0;
  for (const Relay& r : relays_) total += r.bandwidth_kbs;
  return total;
}

}  // namespace quicksand::tor
