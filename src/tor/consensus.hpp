#pragma once

// Tor network consensus: the relay directory clients download, reduced to
// the fields this project consumes (address, bandwidth weight, flags).
//
// Flag-partitioned relay lists (Guards/Exits/GuardExits) are built once at
// construction and served as const references; the relay list itself is
// immutable after construction, so the cache can never go stale. Copies
// rebuild the pointer cache against their own relay storage; moves keep it
// valid because the relay heap buffer moves intact.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netbase/sim_time.hpp"
#include "tor/relay.hpp"

namespace quicksand::tor {

/// A network consensus document.
class Consensus {
 public:
  Consensus() = default;
  Consensus(netbase::SimTime valid_after, std::vector<Relay> relays)
      : valid_after_(valid_after), relays_(std::move(relays)) {
    BuildIndex();
  }

  Consensus(const Consensus& other)
      : valid_after_(other.valid_after_), relays_(other.relays_) {
    BuildIndex();
  }
  Consensus& operator=(const Consensus& other) {
    if (this != &other) {
      valid_after_ = other.valid_after_;
      relays_ = other.relays_;
      BuildIndex();
    }
    return *this;
  }
  // Moves steal the relay vector's heap buffer, so cached pointers into it
  // remain valid in the destination.
  Consensus(Consensus&&) noexcept = default;
  Consensus& operator=(Consensus&&) noexcept = default;

  [[nodiscard]] netbase::SimTime valid_after() const noexcept { return valid_after_; }
  [[nodiscard]] const std::vector<Relay>& relays() const noexcept { return relays_; }
  [[nodiscard]] std::size_t size() const noexcept { return relays_.size(); }

  /// Relays carrying the Guard flag.
  [[nodiscard]] const std::vector<const Relay*>& Guards() const noexcept {
    return guards_;
  }
  /// Relays carrying the Exit flag.
  [[nodiscard]] const std::vector<const Relay*>& Exits() const noexcept {
    return exits_;
  }
  /// Relays carrying both Guard and Exit.
  [[nodiscard]] const std::vector<const Relay*>& GuardExits() const noexcept {
    return guard_exits_;
  }

  /// Sum of bandwidth weights over all relays.
  [[nodiscard]] std::uint64_t TotalBandwidth() const noexcept;

 private:
  void BuildIndex();

  netbase::SimTime valid_after_{};
  std::vector<Relay> relays_;
  std::vector<const Relay*> guards_;
  std::vector<const Relay*> exits_;
  std::vector<const Relay*> guard_exits_;
};

}  // namespace quicksand::tor
