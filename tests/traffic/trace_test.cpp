#include "traffic/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace quicksand::traffic {
namespace {

std::vector<PacketRecord> SampleData() {
  return {
      {0.2, 1000, 0, false},
      {0.8, 500, 0, false},
      {1.5, 2000, 0, false},
      {3.9, 100, 0, false},
      {10.0, 9999, 0, false},  // outside a 10 s window
  };
}

std::vector<PacketRecord> SampleAcks() {
  return {
      {0.3, 0, 1000, true},
      {0.9, 0, 1500, true},   // +500
      {1.1, 0, 1500, true},   // duplicate ack: +0
      {2.5, 0, 4000, true},   // +2500
      {2.6, 0, 3000, true},   // reordered/stale: ignored
      {4.0, 0, 4100, true},   // +100
  };
}

TEST(Trace, DataBytesBinnedSumsPayloadPerBin) {
  const auto bins = DataBytesBinned(SampleData(), 1.0, 10.0);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_DOUBLE_EQ(bins[0], 1500.0);
  EXPECT_DOUBLE_EQ(bins[1], 2000.0);
  EXPECT_DOUBLE_EQ(bins[2], 0.0);
  EXPECT_DOUBLE_EQ(bins[3], 100.0);
  EXPECT_DOUBLE_EQ(bins[9], 0.0);  // the 10.0 s record was dropped
}

TEST(Trace, AckedBytesBinnedUsesCumulativeDeltas) {
  const auto bins = AckedBytesBinned(SampleAcks(), 1.0, 10.0);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_DOUBLE_EQ(bins[0], 1500.0);  // 1000 + 500
  EXPECT_DOUBLE_EQ(bins[1], 0.0);     // duplicate ack adds nothing
  EXPECT_DOUBLE_EQ(bins[2], 2500.0);  // stale 3000 after 4000 ignored
  EXPECT_DOUBLE_EQ(bins[4], 100.0);
}

TEST(Trace, AckedBytesIgnoresNonAckPackets) {
  const std::vector<PacketRecord> mixed = {
      {0.5, 1000, 777, false},  // data packet, ack flag clear
      {0.6, 0, 500, true},
  };
  const auto bins = AckedBytesBinned(mixed, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(bins[0], 500.0);
}

TEST(Trace, BinningValidatesArguments) {
  const auto data = SampleData();
  EXPECT_THROW((void)DataBytesBinned(data, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)DataBytesBinned(data, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)AckedBytesBinned(data, -1.0, 10.0), std::invalid_argument);
  // Non-finite bins and windows, and windows of more bins than a vector
  // can hold, are rejected before anything is allocated.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)DataBytesBinned(data, nan, 10.0), std::invalid_argument);
  EXPECT_THROW((void)DataBytesBinned(data, 1.0, nan), std::invalid_argument);
  EXPECT_THROW((void)AckedBytesBinned(data, inf, 10.0), std::invalid_argument);
  EXPECT_THROW((void)AckedBytesBinned(data, 1.0, inf), std::invalid_argument);
  EXPECT_THROW((void)DataBytesBinned(data, 1.0, 1e300), std::invalid_argument);
  EXPECT_THROW((void)AckedBytesBinned(data, 1e-300, 1e300), std::invalid_argument);
}

TEST(Trace, PacketsInsideTheWindowLandInABin) {
  // 3.65 / 0.05 rounds to 73, the bin count of a 3.6500000000000004 s
  // window: the packet belongs to the last bin.
  const std::vector<PacketRecord> edge = {{3.65, 7, 0, false}};
  const auto bins = DataBytesBinned(edge, 0.05, 3.6500000000000004);
  ASSERT_EQ(bins.size(), 73u);
  EXPECT_DOUBLE_EQ(bins.back(), 7.0);
  // A window far narrower than one bin still has one.
  const std::vector<PacketRecord> acks = {{0.0, 0, 5, true}};
  const auto narrow = AckedBytesBinned(acks, 1e300, 1e-300);
  ASSERT_EQ(narrow.size(), 1u);
  EXPECT_DOUBLE_EQ(narrow[0], 5.0);
}

TEST(Trace, FractionalBinWidths) {
  const std::vector<PacketRecord> packets = {{0.05, 10, 0, false},
                                             {0.15, 20, 0, false}};
  const auto bins = DataBytesBinned(packets, 0.1, 0.3);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_DOUBLE_EQ(bins[0], 10.0);
  EXPECT_DOUBLE_EQ(bins[1], 20.0);
}

TEST(Trace, CumulativeMegabytesIsRunningSum) {
  const std::vector<double> binned = {1 << 20, 1 << 20, 0, 2 << 20};
  const auto cumulative = CumulativeMegabytes(binned);
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_DOUBLE_EQ(cumulative[0], 1.0);
  EXPECT_DOUBLE_EQ(cumulative[1], 2.0);
  EXPECT_DOUBLE_EQ(cumulative[2], 2.0);
  EXPECT_DOUBLE_EQ(cumulative[3], 4.0);
}

TEST(Trace, Totals) {
  EXPECT_EQ(TotalPayloadBytes(SampleData()), 1000u + 500 + 2000 + 100 + 9999);
  EXPECT_EQ(FinalAckedBytes(SampleAcks()), 4100u);
  const std::vector<PacketRecord> empty;
  EXPECT_EQ(TotalPayloadBytes(empty), 0u);
  EXPECT_EQ(FinalAckedBytes(empty), 0u);
}

}  // namespace
}  // namespace quicksand::traffic
