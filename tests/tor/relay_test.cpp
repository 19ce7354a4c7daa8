#include "tor/relay.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace quicksand::tor {
namespace {

TEST(RelayFlags, BitwiseOperationsCompose) {
  RelayFlags flags = RelayFlag::kGuard | RelayFlag::kRunning;
  EXPECT_TRUE(HasFlag(flags, RelayFlag::kGuard));
  EXPECT_TRUE(HasFlag(flags, RelayFlag::kRunning));
  EXPECT_FALSE(HasFlag(flags, RelayFlag::kExit));
  flags |= RelayFlag::kExit;
  EXPECT_TRUE(HasFlag(flags, RelayFlag::kExit));
}

TEST(RelayFlags, ToStringListsSetFlagsInCanonicalOrder) {
  const RelayFlags flags = RelayFlag::kExit | RelayFlag::kGuard;
  EXPECT_EQ(FlagsToString(flags), "Guard Exit");
  EXPECT_EQ(FlagsToString(0), "");
}

TEST(Relay, ConvenienceAccessors) {
  Relay relay;
  relay.flags = RelayFlag::kGuard | RelayFlag::kRunning;
  EXPECT_TRUE(relay.IsGuard());
  EXPECT_TRUE(relay.IsRunning());
  EXPECT_FALSE(relay.IsExit());
}

TEST(Relay, StreamFormatIncludesEverything) {
  Relay relay;
  relay.nickname = "ex1";
  relay.address = netbase::Ipv4Address(1, 2, 3, 4);
  relay.or_port = 9001;
  relay.bandwidth_kbs = 500;
  relay.flags = RelayFlag::kExit | RelayFlag::kRunning;
  std::ostringstream os;
  os << relay;
  EXPECT_EQ(os.str(), "ex1 1.2.3.4:9001 500KB/s [Exit Running]");
}

}  // namespace
}  // namespace quicksand::tor
