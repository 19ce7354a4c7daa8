#pragma once

// Tor relay descriptors.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "netbase/ipv4.hpp"

namespace quicksand::tor {

/// Consensus flags (subset relevant to path selection and the paper).
enum class RelayFlag : std::uint8_t {
  kGuard = 1 << 0,
  kExit = 1 << 1,
  kFast = 1 << 2,
  kStable = 1 << 3,
  kRunning = 1 << 4,
  kValid = 1 << 5,
};

/// Bitmask of RelayFlag values.
using RelayFlags = std::uint8_t;

[[nodiscard]] constexpr RelayFlags operator|(RelayFlag a, RelayFlag b) noexcept {
  return static_cast<RelayFlags>(static_cast<std::uint8_t>(a) |
                                 static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr RelayFlags operator|(RelayFlags a, RelayFlag b) noexcept {
  return static_cast<RelayFlags>(a | static_cast<std::uint8_t>(b));
}
constexpr RelayFlags& operator|=(RelayFlags& a, RelayFlag b) noexcept {
  a = a | b;
  return a;
}
[[nodiscard]] constexpr bool HasFlag(RelayFlags flags, RelayFlag f) noexcept {
  return (flags & static_cast<std::uint8_t>(f)) != 0;
}

/// Renders flags like "Guard Exit Running".
[[nodiscard]] std::string FlagsToString(RelayFlags flags);

/// One relay as listed in a network consensus.
struct Relay {
  std::string nickname;
  netbase::Ipv4Address address;
  std::uint16_t or_port = 9001;
  std::uint32_t bandwidth_kbs = 0;  ///< consensus bandwidth weight (KB/s)
  RelayFlags flags = 0;

  [[nodiscard]] bool IsGuard() const noexcept { return HasFlag(flags, RelayFlag::kGuard); }
  [[nodiscard]] bool IsExit() const noexcept { return HasFlag(flags, RelayFlag::kExit); }
  [[nodiscard]] bool IsRunning() const noexcept {
    return HasFlag(flags, RelayFlag::kRunning);
  }

  friend bool operator==(const Relay&, const Relay&) = default;
};

std::ostream& operator<<(std::ostream& os, const Relay& relay);

}  // namespace quicksand::tor
