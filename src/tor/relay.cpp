#include "tor/relay.hpp"

#include <array>
#include <ostream>
#include <string_view>
#include <utility>

namespace quicksand::tor {

namespace {

constexpr std::array<std::pair<std::string_view, RelayFlag>, 6> kFlagNames = {{
    {"Guard", RelayFlag::kGuard},
    {"Exit", RelayFlag::kExit},
    {"Fast", RelayFlag::kFast},
    {"Stable", RelayFlag::kStable},
    {"Running", RelayFlag::kRunning},
    {"Valid", RelayFlag::kValid},
}};

}  // namespace

std::string FlagsToString(RelayFlags flags) {
  std::string out;
  for (const auto& [name, flag] : kFlagNames) {
    if (HasFlag(flags, flag)) {
      if (!out.empty()) out += ' ';
      out += name;
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Relay& relay) {
  return os << relay.nickname << " " << relay.address << ":" << relay.or_port << " "
            << relay.bandwidth_kbs << "KB/s [" << FlagsToString(relay.flags) << "]";
}

}  // namespace quicksand::tor
