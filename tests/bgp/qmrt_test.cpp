#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "bgp/update.hpp"
#include "fault/injector.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

BgpUpdate Withdraw(std::int64_t t, SessionId s, const char* prefix) {
  return {SimTime{t}, s, UpdateType::kWithdraw, Prefix::MustParse(prefix), {}};
}

/// A feed exercising the codec's edge cases: repeated paths (the intern
/// table), out-of-order timestamps (negative zigzag deltas), withdrawals,
/// and the full prefix-length range (0 significant bytes to 4).
std::vector<BgpUpdate> EdgeFeed() {
  return {
      Announce(1714521600, 12, "78.46.0.0/15", "701 3356 24940"),
      Announce(1714521601, 12, "10.0.0.0/8", "701 3356"),
      Announce(1714521500, 3, "0.0.0.0/0", "65000"),          // time goes backwards
      Withdraw(1714521700, 12, "78.46.0.0/15"),
      Announce(1714521700, 99, "192.0.2.17/32", "701 3356 24940"),  // reused path
      Withdraw(1714521701, 99, "192.0.2.17/32"),
      Announce(1714608000, 1, "172.16.0.0/12", "7018 701 3356 1299 24940"),
  };
}

/// Strictly decodes a whole QMRT byte string back to updates.
std::vector<BgpUpdate> DecodeAll(std::string_view wire) {
  return feed::Materialize(
      qmrt::DecodeStream(std::make_shared<feed::AsPathTable>(), wire));
}

TEST(Qmrt, RoundTripIdentity) {
  const std::vector<BgpUpdate> feed = EdgeFeed();
  const std::string wire = qmrt::Encode(feed);
  EXPECT_EQ(DecodeAll(wire), feed);
}

TEST(Qmrt, TextBinaryTextIsByteIdentical) {
  const std::string text = mrt::ToText(EdgeFeed());
  const std::string wire = qmrt::Encode(mrt::ParseText(text));
  EXPECT_EQ(mrt::ToText(DecodeAll(wire)), text);
}

TEST(Qmrt, MultiBlockEncodingIsSelfContained) {
  const std::vector<BgpUpdate> feed = EdgeFeed();
  qmrt::EncodeOptions options;
  options.block_records = 2;  // 7 records -> 4 blocks
  const std::string wire = qmrt::Encode(feed, options);
  EXPECT_EQ(DecodeAll(wire), feed);

  // Self-containment: the last block alone decodes to the last record.
  std::size_t last_block = 0;
  for (std::size_t at = 0; at + qmrt::kHeaderBytes <= wire.size();) {
    last_block = at;
    std::uint32_t payload = 0;
    for (int b = 0; b < 4; ++b) {
      payload |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(wire[at + qmrt::kPayloadSizeOffset + b]))
                 << (8 * b);
    }
    at += qmrt::kHeaderBytes + payload;
  }
  const std::vector<BgpUpdate> tail =
      DecodeAll(std::string_view(wire).substr(last_block));
  EXPECT_EQ(tail, std::vector<BgpUpdate>({feed.back()}));
}

TEST(Qmrt, WriteStreamMatchesEncode) {
  const std::vector<BgpUpdate> feed = EdgeFeed();
  qmrt::EncodeOptions options;
  options.block_records = 3;
  std::ostringstream out;
  const std::size_t written = qmrt::WriteStream(
      out,
      feed::FromVector(std::make_shared<feed::AsPathTable>(), feed, /*batch=*/2),
      options);
  EXPECT_EQ(written, feed.size());
  EXPECT_EQ(out.str(), qmrt::Encode(feed, options));
}

/// A fixed feed over many small blocks: six paths recur across blocks
/// (the decoder's stream-id memo), every fourth record is a withdrawal,
/// times step backwards every eleventh record, and prefix lengths span 0
/// to 4 significant network bytes.
std::vector<BgpUpdate> MultiBlockFeed() {
  const std::vector<AsPath> paths = {
      AsPath::MustParse("701 3356 24940"),   AsPath::MustParse("701 3356"),
      AsPath::MustParse("65000"),            AsPath::MustParse("7018 701 3356 1299 24940"),
      AsPath::MustParse("174 174 174 24940"), AsPath::MustParse("3320 1299 16276"),
  };
  const std::vector<Prefix> prefixes = {
      Prefix::MustParse("78.46.0.0/15"),   Prefix::MustParse("10.0.0.0/8"),
      Prefix::MustParse("0.0.0.0/0"),      Prefix::MustParse("192.0.2.17/32"),
      Prefix::MustParse("172.16.0.0/12"),  Prefix::MustParse("198.51.100.0/24"),
  };
  std::vector<BgpUpdate> feed;
  std::int64_t t = 1714521600;
  for (std::uint32_t i = 0; i < 97; ++i) {
    t += i % 11 == 10 ? -40 : static_cast<std::int64_t>(i % 7) * 13;
    const Prefix& prefix = prefixes[(i * 5) % prefixes.size()];
    const SessionId session = (i * 7) % 13;
    if (i % 4 == 3) {
      feed.push_back({SimTime{t}, session, UpdateType::kWithdraw, prefix, {}});
    } else {
      feed.push_back({SimTime{t}, session, UpdateType::kAnnounce, prefix,
                      paths[(i * 3 + i / 9) % paths.size()]});
    }
  }
  return feed;
}

// Pins the wire bytes: block layout, per-block path tables in first-seen
// order, stream ids and record encoding. The constants were produced by
// the encoder whose per-block index was a hash map (commit 24238a1),
// built RelWithDebInfo with gcc 12.
TEST(Qmrt, EncodeGoldenDigest) {
  const std::vector<BgpUpdate> feed = MultiBlockFeed();
  qmrt::EncodeOptions options;
  options.block_records = 8;  // 97 records -> 13 blocks
  const std::string wire = qmrt::Encode(feed, options);
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const char byte : wire) {
    digest ^= static_cast<unsigned char>(byte);
    digest *= 0x100000001B3ULL;
  }
  EXPECT_EQ(wire.size(), 1257u);
  EXPECT_EQ(digest, 0x8D250D545410E14EULL);
  EXPECT_EQ(DecodeAll(wire), feed);

  // The record overload writes the same bytes.
  std::ostringstream out;
  qmrt::WriteStream(
      out, feed::FromVector(std::make_shared<feed::AsPathTable>(), feed, /*batch=*/5),
      options);
  EXPECT_EQ(out.str(), wire);
}

TEST(Qmrt, DecodeStreamBatchesMatchWholeDecode) {
  const std::vector<BgpUpdate> feed = EdgeFeed();
  qmrt::EncodeOptions encode;
  encode.block_records = 3;
  const std::string wire = qmrt::Encode(feed, encode);

  for (const std::size_t batch : {1u, 2u, 5u, 100u}) {
    auto table = std::make_shared<feed::AsPathTable>();
    qmrt::DecodeOptions options;
    options.batch_size = batch;
    feed::UpdateStream stream = qmrt::DecodeStream(table, wire, options);
    std::vector<feed::UpdateRec> recs;
    std::vector<BgpUpdate> got;
    while (stream.Next(recs)) {
      EXPECT_LE(recs.size(), batch);
      for (const feed::UpdateRec& rec : recs) got.push_back(feed::ToBgpUpdate(rec, *table));
    }
    EXPECT_EQ(got, feed) << "batch=" << batch;
  }
}

TEST(Qmrt, EmptyFeed) {
  EXPECT_TRUE(qmrt::Encode({}).empty());
  EXPECT_TRUE(DecodeAll("").empty());
  feed::UpdateStream stream =
      qmrt::DecodeStream(std::make_shared<feed::AsPathTable>(), "");
  std::vector<feed::UpdateRec> recs;
  EXPECT_FALSE(stream.Next(recs));
}

// --- corruption: every damage class fails closed ---------------------------
// Strict mode throws naming the block; lenient mode drops exactly the
// damaged block, counts it, and picks the stream back up at the next
// magic. A damaged block never half-emits.

/// Two-block wire (3 + 3 records) for surgical corruption.
struct TwoBlocks {
  std::vector<BgpUpdate> feed;
  std::string wire;
  std::size_t second_block = 0;  ///< offset of block 1
};

TwoBlocks MakeTwoBlocks() {
  TwoBlocks two;
  const std::vector<BgpUpdate> edge = EdgeFeed();
  two.feed.assign(edge.begin(), edge.begin() + 6);
  qmrt::EncodeOptions options;
  options.block_records = 3;
  two.wire = qmrt::Encode(two.feed, options);
  std::uint32_t payload = 0;
  for (int b = 0; b < 4; ++b) {
    payload |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                   two.wire[qmrt::kPayloadSizeOffset + b]))
               << (8 * b);
  }
  two.second_block = qmrt::kHeaderBytes + payload;
  return two;
}

std::vector<BgpUpdate> DecodeLenient(std::string_view wire,
                                     std::shared_ptr<qmrt::DecodeStats> stats) {
  qmrt::DecodeOptions options;
  options.lenient = true;
  options.stats = std::move(stats);
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream stream = qmrt::DecodeStream(table, wire, options);
  std::vector<feed::UpdateRec> recs;
  std::vector<BgpUpdate> got;
  while (stream.Next(recs)) {
    for (const feed::UpdateRec& rec : recs) got.push_back(feed::ToBgpUpdate(rec, *table));
  }
  return got;
}

/// Open descriptors right now (the /proc scan's own fd is opened and
/// closed inside the call, so before/after counts compare cleanly).
std::size_t OpenFdCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(QmrtFdLifetime, ErrorPathsLeakNoDescriptors) {
  // Regression for the fd RAII audit: every throwing exit out of
  // ParseFileStream, at open or mid-drain, must release the file
  // descriptor — a leak here compounds per retry in the resident daemon
  // until open() starts failing with EMFILE.
  const std::string corrupt_path = "qmrt_test_fdleak.mrt";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << mrt::ToText(EdgeFeed()) << "not an update line\n";
  }

  auto exercise_error_paths = [&] {
    {
      // Strict stream over a corrupt file: the open succeeds, the pull
      // throws mid-stream; the reader must still close the fd.
      auto table = std::make_shared<feed::AsPathTable>();
      feed::UpdateStream stream = mrt::ParseFileStream(table, corrupt_path);
      std::vector<feed::UpdateRec> recs;
      EXPECT_THROW(while (stream.Next(recs)) {}, std::runtime_error);
    }
    EXPECT_THROW((void)mrt::ParseFileStream(std::make_shared<feed::AsPathTable>(),
                                            "qmrt_test_missing_dir/nope.mrt"),
                 std::runtime_error);
  };

  exercise_error_paths();  // warm-up: let lazy runtime fds settle
  const std::size_t before = OpenFdCount();
  for (int round = 0; round < 32; ++round) exercise_error_paths();
  EXPECT_EQ(OpenFdCount(), before);
  std::remove(corrupt_path.c_str());
}

TEST(QmrtCorruption, TruncatedBlockFailsClosed) {
  const TwoBlocks two = MakeTwoBlocks();
  const std::string_view truncated =
      std::string_view(two.wire).substr(0, two.wire.size() - 5);

  EXPECT_THROW((void)DecodeAll(truncated), std::runtime_error);

  auto stats = std::make_shared<qmrt::DecodeStats>();
  const std::vector<BgpUpdate> got = DecodeLenient(truncated, stats);
  // Block 0 is intact; the truncated block 1 contributes nothing.
  EXPECT_EQ(got, std::vector<BgpUpdate>(two.feed.begin(), two.feed.begin() + 3));
  EXPECT_EQ(stats->blocks, 1u);
  EXPECT_EQ(stats->skipped_blocks, 1u);
  ASSERT_FALSE(stats->first_errors.empty());
  EXPECT_NE(stats->first_errors[0].find("block 1"), std::string::npos)
      << stats->first_errors[0];
}

TEST(QmrtCorruption, BadChecksumSkipsExactlyThatBlock) {
  TwoBlocks two = MakeTwoBlocks();
  two.wire[qmrt::kHeaderBytes + 2] ^= 0x40;  // flip a payload byte of block 0

  try {
    (void)DecodeAll(two.wire);
    FAIL() << "expected checksum error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("block 0"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }

  auto stats = std::make_shared<qmrt::DecodeStats>();
  const std::vector<BgpUpdate> got = DecodeLenient(two.wire, stats);
  // Damaged block 0 dropped whole; intact block 1 decodes in full.
  EXPECT_EQ(got, std::vector<BgpUpdate>(two.feed.begin() + 3, two.feed.end()));
  EXPECT_EQ(stats->blocks, 1u);
  EXPECT_EQ(stats->skipped_blocks, 1u);
}

TEST(QmrtCorruption, UnknownVersionFailsClosed) {
  TwoBlocks two = MakeTwoBlocks();
  two.wire[qmrt::kVersionOffset] = 9;

  try {
    (void)DecodeAll(two.wire);
    FAIL() << "expected version error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos)
        << error.what();
  }

  auto stats = std::make_shared<qmrt::DecodeStats>();
  const std::vector<BgpUpdate> got = DecodeLenient(two.wire, stats);
  EXPECT_EQ(got, std::vector<BgpUpdate>(two.feed.begin() + 3, two.feed.end()));
  EXPECT_EQ(stats->skipped_blocks, 1u);
}

TEST(QmrtCorruption, VarintOverflowFailsClosed) {
  // Hand-craft a block whose first varint (path count) runs 11 bytes of
  // continuation bits — a forged length no real encoder emits. The header
  // is made internally consistent (size + checksum match the payload) so
  // only the varint check can reject it.
  const std::string payload(11, '\xff');
  std::string wire(qmrt::kMagic, sizeof qmrt::kMagic);
  wire.push_back(static_cast<char>(qmrt::kVersion));
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t checksum = qmrt::Checksum(payload);
  for (int b = 0; b < 4; ++b) wire.push_back(static_cast<char>((size >> (8 * b)) & 0xff));
  for (int b = 0; b < 4; ++b)
    wire.push_back(static_cast<char>((checksum >> (8 * b)) & 0xff));
  wire += payload;

  EXPECT_THROW((void)DecodeAll(wire), std::runtime_error);

  auto stats = std::make_shared<qmrt::DecodeStats>();
  EXPECT_TRUE(DecodeLenient(wire, stats).empty());
  EXPECT_EQ(stats->skipped_blocks, 1u);
}

TEST(QmrtCorruption, LenientResyncsOnNextMagicAfterGarbage) {
  const TwoBlocks two = MakeTwoBlocks();
  const std::string garbled = "not a block at all" + two.wire;

  EXPECT_THROW((void)DecodeAll(garbled), std::runtime_error);

  auto stats = std::make_shared<qmrt::DecodeStats>();
  const std::vector<BgpUpdate> got = DecodeLenient(garbled, stats);
  EXPECT_EQ(got, two.feed);  // resync recovers both real blocks
  EXPECT_EQ(stats->blocks, 2u);
  EXPECT_EQ(stats->skipped_blocks, 1u);
}

TEST(QmrtCorruption, InjectorCorruptedWireNeverHalfDecodes) {
  // The fault injector's byte-level damage (its text hooks applied to the
  // binary wire) at a harsh rate: lenient decode must survive anything it
  // does, and every record that does come out must be one the encoder put
  // in — checksummed blocks decode whole or not at all.
  std::vector<BgpUpdate> feed;
  for (int i = 0; i < 200; ++i) {
    feed.push_back(Announce(1714521600 + i, static_cast<SessionId>(i % 5),
                            i % 2 == 0 ? "78.46.0.0/15" : "10.0.0.0/8",
                            i % 3 == 0 ? "701 3356" : "701 3356 24940"));
  }
  qmrt::EncodeOptions options;
  options.block_records = 16;
  const std::string wire = qmrt::Encode(feed, options);

  const fault::FaultInjector injector(
      fault::FaultPlan::Scaled(0.10, /*seed=*/20140601, /*window=*/86400));
  const fault::FaultedText damaged = injector.CorruptText(wire);
  ASSERT_GT(damaged.stats.total_faults(), 0u);

  auto stats = std::make_shared<qmrt::DecodeStats>();
  const std::vector<BgpUpdate> got = DecodeLenient(damaged.text, stats);
  EXPECT_LT(got.size(), feed.size() + damaged.stats.duplicated * options.block_records);
  for (const BgpUpdate& update : got) {
    EXPECT_NE(std::find(feed.begin(), feed.end(), update), feed.end())
        << "decoded a record the encoder never wrote: " << update;
  }
}

}  // namespace
}  // namespace quicksand::bgp
