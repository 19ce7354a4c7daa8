#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/update.hpp"

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

/// A lenient ParseStream drained whole: the updates it kept and its stats.
struct LenientResult {
  std::vector<BgpUpdate> updates;
  mrt::ParseStats stats;
};

LenientResult ParseLeniently(std::string_view text, std::size_t max_recorded_errors = 8) {
  mrt::ParseStreamOptions options;
  options.lenient = true;
  options.max_recorded_errors = max_recorded_errors;
  options.stats = std::make_shared<mrt::ParseStats>();
  std::vector<BgpUpdate> updates = feed::Materialize(
      mrt::ParseStream(std::make_shared<feed::AsPathTable>(), text, options));
  return {std::move(updates), *options.stats};
}

TEST(Update, SortOrdersByTimeSessionPrefix) {
  std::vector<BgpUpdate> updates = {
      Announce(5, 1, "10.0.0.0/8", "1 2"),
      Announce(3, 2, "10.0.0.0/8", "1 2"),
      Announce(3, 1, "11.0.0.0/8", "1 2"),
      Announce(3, 1, "10.0.0.0/8", "1 2"),
  };
  SortUpdates(updates);
  EXPECT_EQ(updates[0].session, 1u);
  EXPECT_EQ(updates[0].prefix, Prefix::MustParse("10.0.0.0/8"));
  EXPECT_EQ(updates[1].prefix, Prefix::MustParse("11.0.0.0/8"));
  EXPECT_EQ(updates[2].session, 2u);
  EXPECT_EQ(updates[3].time.seconds, 5);
}

TEST(Mrt, LineRoundTripAnnounce) {
  const BgpUpdate update = Announce(1714521600, 12, "78.46.0.0/15", "701 3356 24940");
  const std::string line = mrt::ToLine(update);
  EXPECT_EQ(line, "1714521600|12|A|78.46.0.0/15|701 3356 24940");
  const auto parsed = mrt::ParseLine(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, update);
}

TEST(Mrt, LineRoundTripWithdraw) {
  const BgpUpdate update = Withdraw(100, 3, "10.1.0.0/16");
  const std::string line = mrt::ToLine(update);
  EXPECT_EQ(line, "100|3|W|10.1.0.0/16|");
  const auto parsed = mrt::ParseLine(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, update);
}

TEST(Mrt, ParseRejectsMalformedLines) {
  // Fuzz-style table: every known way a line can rot, each of which must
  // cost exactly its own record under lenient parsing — so ParseLine must
  // reject all of them without throwing.
  for (const char* line : {
           // structure
           "",                                  // empty
           "|",                                 // nothing but a separator
           "||||",                              // all fields empty
           "1|2|A|10.0.0.0/8",                  // missing field
           "1|2|A",                             // far too few fields
           "1|2|A|10.0.0.0/8|1 2|extra",        // trailing field
           "1|2|A|10.0.0.0/8|1 2|",             // trailing separator
           "|2|A|10.0.0.0/8|1 2",               // empty time
           "1||A|10.0.0.0/8|1 2",               // empty session
           "1|2||10.0.0.0/8|1 2",               // empty type
           // timestamps
           "x|2|A|10.0.0.0/8|1 2",              // non-numeric time
           "-1|2|A|10.0.0.0/8|1 2",             // negative time
           "-9999999999|2|A|10.0.0.0/8|1 2",    // very negative time
           "1.5|2|A|10.0.0.0/8|1 2",            // fractional time
           "1e9|2|A|10.0.0.0/8|1 2",            // exponent time
           " 1|2|A|10.0.0.0/8|1 2",             // leading space in time
           "99999999999999999999|2|A|10.0.0.0/8|1 2",  // time overflows int64
           // sessions
           "1|x|A|10.0.0.0/8|1 2",              // non-numeric session
           "1|-3|A|10.0.0.0/8|1 2",             // negative session
           "1|4294967296|A|10.0.0.0/8|1 2",     // session overflows uint32
           "1|2x|A|10.0.0.0/8|1 2",             // trailing junk in session
           // types
           "1|2|Z|10.0.0.0/8|1 2",              // unknown type
           "1|2|a|10.0.0.0/8|1 2",              // lowercase type
           "1|2|AA|10.0.0.0/8|1 2",             // too long
           "1|2|AW|10.0.0.0/8|1 2",             // both at once
           // prefixes
           "1|2|A||1 2",                        // empty prefix
           "1|2|A|10.0.0.1/8|1 2",              // non-canonical prefix
           "1|2|A|10.0.0.0/33|1 2",             // length out of range
           "1|2|A|10.0.0.0|1 2",                // missing length
           "1|2|A|300.0.0.0/8|1 2",             // octet out of range
           "1|2|A|10.0.0/8|1 2",                // too few octets
           "1|2|A|garbage/8|1 2",               // not an address
           "1|2|W||",                           // empty prefix on withdraw
           // paths
           "1|2|A|10.0.0.0/8|",                 // announce without path
           "1|2|A|10.0.0.0/8|1 x",              // non-numeric hop
           "1|2|A|10.0.0.0/8|-1",               // negative AS
           "1|2|A|10.0.0.0/8|4294967296",       // AS overflows AsNumber
           "1|2|A|10.0.0.0/8|1 99999999999999", // grossly overflowing AS
           "1|2|A|10.0.0.0/8|1,2",              // wrong separator
           "1|2|A|10.0.0.0/8|0x10",             // hex junk after a hop
           "1|2|W|10.0.0.0/8|1 2",              // withdraw with path
       }) {
    EXPECT_FALSE(mrt::ParseLine(line).has_value()) << line;
  }
}

TEST(Mrt, ParseLineAcceptsBoundaryValues) {
  // The largest values that fit are valid, so the rejections above are
  // genuine overflow checks, not blanket bans on big numbers.
  EXPECT_TRUE(mrt::ParseLine("0|0|A|0.0.0.0/0|1").has_value());
  EXPECT_TRUE(mrt::ParseLine("1|2|A|10.0.0.0/8|4294967295").has_value());
  EXPECT_TRUE(mrt::ParseLine("1|4294967295|A|10.0.0.0/8|1 2").has_value());
}

TEST(Mrt, TextRoundTripWithCommentsAndBlanks) {
  const std::vector<BgpUpdate> updates = {
      Announce(1, 0, "10.0.0.0/8", "65001 65002"),
      Withdraw(2, 1, "10.0.0.0/8"),
      Announce(3, 0, "192.168.0.0/16", "65001"),
  };
  const std::string text = "# header comment\n\n" + mrt::ToText(updates);
  const auto parsed = mrt::ParseText(text);
  EXPECT_EQ(parsed, updates);
}

TEST(Mrt, ParseTextReportsBadLineNumber) {
  try {
    (void)mrt::ParseText("1|0|A|10.0.0.0/8|65001\ngarbage\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Mrt, ParseTextCapsErrorMessageForHugeGarbageLine) {
  // A megabyte of garbage must yield a short, readable message naming the
  // line — not a megabyte exception string.
  const std::string garbage(1 << 20, 'z');
  try {
    (void)mrt::ParseText(garbage + "\n1|0|A|10.0.0.0/8|65001\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_LT(message.size(), 256u);
    EXPECT_NE(message.find("line 1"), std::string::npos);
    EXPECT_NE(message.find("1048576 bytes"), std::string::npos);
  }
}

TEST(Mrt, LenientParseSkipsBadLinesAndKeepsTheRest) {
  const std::string text =
      "# comment\n"
      "1|0|A|10.0.0.0/8|65001\n"
      "garbage\n"
      "\n"
      "2|1|W|10.0.0.0/8|\n"
      "-5|0|A|10.0.0.0/8|65001\n"
      "3|0|A|192.168.0.0/16|65001 65002\n";
  const auto result = ParseLeniently(text);
  EXPECT_EQ(result.stats.total_lines, 5u);  // comments and blanks excluded
  EXPECT_EQ(result.stats.parsed, 3u);
  EXPECT_EQ(result.stats.bad_lines, 2u);
  EXPECT_EQ(result.updates.size(), 3u);
  ASSERT_EQ(result.stats.first_errors.size(), 2u);
  EXPECT_NE(result.stats.first_errors[0].find("line 3"), std::string::npos);
  EXPECT_NE(result.stats.first_errors[1].find("line 6"), std::string::npos);
}

TEST(Mrt, LenientParseOnCleanDumpReportsNothing) {
  const std::vector<BgpUpdate> updates = {
      Announce(1, 0, "10.0.0.0/8", "65001 65002"),
      Withdraw(2, 1, "10.0.0.0/8"),
  };
  const auto result = ParseLeniently(mrt::ToText(updates));
  EXPECT_EQ(result.updates, updates);
  EXPECT_EQ(result.stats.bad_lines, 0u);
  EXPECT_TRUE(result.stats.first_errors.empty());
}

TEST(Mrt, LenientParseCapsRecordedErrors) {
  std::string text;
  for (int i = 0; i < 20; ++i) text += "junk line\n";
  const auto result = ParseLeniently(text, /*max_recorded_errors=*/4);
  EXPECT_EQ(result.stats.bad_lines, 20u);
  EXPECT_EQ(result.stats.first_errors.size(), 4u);
}

TEST(Mrt, RoundTripAtRepresentationEdges) {
  // The corners of every field's representable range must survive a
  // serialize -> parse round trip unchanged: 32-bit AS numbers at their
  // maximum, pathological prepend runs, and the /0 and /32 prefix
  // extremes (a default route and a host route).
  std::string prepends = "65001";
  for (int i = 0; i < 199; ++i) prepends += " 65001";
  const std::vector<BgpUpdate> updates = {
      Announce(0, 0, "0.0.0.0/0", "4294967295"),
      Announce(1, 4294967295u, "255.255.255.255/32",
               "4294967295 4294967294 4294967295"),
      Announce(2, 7, "192.0.2.0/24", prepends.c_str()),
      Withdraw(3, 7, "0.0.0.0/0"),
      Withdraw(4, 7, "255.255.255.255/32"),
  };
  EXPECT_EQ(mrt::ParseText(mrt::ToText(updates)), updates);
  ASSERT_EQ(mrt::ParseText(mrt::ToText(updates))[2].path.hops().size(), 200u);
}

TEST(Mrt, StreamParserMatchesWholeTextAtEveryChunkBoundary) {
  // Chunk boundaries may fall anywhere — including mid-record. Feeding
  // the dump 1..N bytes at a time must produce exactly the whole-text
  // parse, for every chunk size.
  const std::vector<BgpUpdate> updates = {
      Announce(1, 0, "10.0.0.0/8", "65001 65002"),
      Withdraw(2, 1, "10.0.0.0/8"),
      Announce(3, 0, "192.168.0.0/16", "65001"),
  };
  const std::string text = "# header\n" + mrt::ToText(updates);
  for (std::size_t chunk = 1; chunk <= text.size(); ++chunk) {
    mrt::StreamParser parser;
    std::vector<BgpUpdate> out;
    for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
      parser.Feed(std::string_view(text).substr(pos, chunk), out);
    }
    parser.Finish(out);
    EXPECT_EQ(out, updates) << "chunk size " << chunk;
  }
}

TEST(Mrt, StreamParserHandlesMissingTrailingNewline) {
  mrt::StreamParser parser;
  std::vector<BgpUpdate> out;
  parser.Feed("1|0|A|10.0.0.0/8|65001", out);
  EXPECT_TRUE(out.empty());  // still buffered: no newline yet
  parser.Finish(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Announce(1, 0, "10.0.0.0/8", "65001"));
}

TEST(Mrt, StreamParserLenientStatsMatchWholeTextParse) {
  const std::string text =
      "1|0|A|10.0.0.0/8|65001\n"
      "garbage\n"
      "2|1|W|10.0.0.0/8|\n"
      "-5|0|A|10.0.0.0/8|65001\n";
  const LenientResult whole = ParseLeniently(text);
  mrt::StreamParser::Options options;
  options.lenient = true;
  mrt::StreamParser parser(options);
  std::vector<BgpUpdate> out;
  for (std::size_t pos = 0; pos < text.size(); pos += 5) {
    parser.Feed(std::string_view(text).substr(pos, 5), out);
  }
  parser.Finish(out);
  EXPECT_EQ(out, whole.updates);
  EXPECT_EQ(parser.stats().total_lines, whole.stats.total_lines);
  EXPECT_EQ(parser.stats().parsed, whole.stats.parsed);
  EXPECT_EQ(parser.stats().bad_lines, whole.stats.bad_lines);
  EXPECT_EQ(parser.stats().first_errors, whole.stats.first_errors);
}

TEST(Mrt, StreamParserStrictNamesBadLineAcrossChunks) {
  // A malformed line split across chunks must still raise an error naming
  // the right 1-based line number once the line completes.
  mrt::StreamParser parser;
  std::vector<BgpUpdate> out;
  parser.Feed("1|0|A|10.0.0.0/8|65001\ngarb", out);
  try {
    parser.Feed("age\n", out);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Mrt, ParseStreamMatchesWholeTextParseAtBatchBoundaries) {
  // The chunked UpdateStream source, pulled in small batches with chunk
  // boundaries splitting lines mid-record, must reproduce the whole-text
  // parse record for record.
  std::vector<BgpUpdate> updates;
  for (std::int64_t t = 0; t < 100; ++t) {
    updates.push_back(t % 7 == 6 ? Withdraw(t, static_cast<SessionId>(t % 3), "10.0.0.0/8")
                                 : Announce(t, static_cast<SessionId>(t % 3), "10.0.0.0/8",
                                            "65001 65002 65003"));
  }
  const std::string text = mrt::ToText(updates);
  mrt::ParseStreamOptions options;
  options.batch_size = 7;    // never divides 100 evenly
  options.chunk_bytes = 13;  // splits every line mid-record
  auto table = std::make_shared<feed::AsPathTable>();
  const std::vector<BgpUpdate> streamed =
      feed::Materialize(mrt::ParseStream(table, text, options));
  EXPECT_EQ(streamed, updates);
  EXPECT_EQ(streamed, mrt::ParseText(text));
}

TEST(Mrt, ParseStreamLenientReportsStatsThroughOptions) {
  const std::string text =
      "1|0|A|10.0.0.0/8|65001\n"
      "garbage\n"
      "2|1|W|10.0.0.0/8|\n";
  mrt::ParseStreamOptions options;
  options.lenient = true;
  options.chunk_bytes = 4;
  options.stats = std::make_shared<mrt::ParseStats>();
  auto table = std::make_shared<feed::AsPathTable>();
  const std::vector<BgpUpdate> streamed =
      feed::Materialize(mrt::ParseStream(table, text, options));
  EXPECT_EQ(streamed.size(), 2u);
  EXPECT_EQ(options.stats->bad_lines, 1u);
  EXPECT_EQ(options.stats->parsed, 2u);
  ASSERT_EQ(options.stats->first_errors.size(), 1u);
  EXPECT_NE(options.stats->first_errors[0].find("line 2"), std::string::npos);
}

TEST(Mrt, WriteStreamMatchesToText) {
  const std::vector<BgpUpdate> updates = {
      Announce(1, 0, "10.0.0.0/8", "65001 65002"),
      Withdraw(2, 1, "10.0.0.0/8"),
  };
  std::ostringstream out;
  auto table = std::make_shared<feed::AsPathTable>();
  const std::size_t written =
      mrt::WriteStream(out, feed::FromVector(table, updates, /*batch_size=*/1));
  EXPECT_EQ(written, updates.size());
  EXPECT_EQ(out.str(), mrt::ToText(updates));
}

TEST(Mrt, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "mrt_roundtrip_test.txt";
  const std::vector<BgpUpdate> updates = {
      Announce(10, 4, "203.0.113.0/24", "100 200 300"),
      Withdraw(20, 4, "203.0.113.0/24"),
  };
  mrt::WriteFile(path, updates);
  EXPECT_EQ(mrt::ReadFile(path), updates);
  std::remove(path.c_str());
}

TEST(Mrt, ReadMissingFileThrows) {
  EXPECT_THROW((void)mrt::ReadFile("/nonexistent/mrt.txt"), std::runtime_error);
}

TEST(Mrt, FileErrorsCarryPathAndErrnoContext) {
  // Open/read failures must say which file and why (strerror text), for
  // every file entry point: whole-file read, streaming read, and write.
  const std::string path = "mrt_test_missing_dir/nope.txt";
  const auto expect_context = [&](auto&& fn) {
    try {
      fn();
      FAIL() << "expected missing-file error";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("No such file"), std::string::npos) << what;
    }
  };
  expect_context([&] { (void)mrt::ReadFile(path); });
  expect_context([&] {
    (void)mrt::ParseFileStream(std::make_shared<feed::AsPathTable>(), path);
  });
  expect_context([&] { mrt::WriteFile(path, {}); });
}

}  // namespace
}  // namespace quicksand::bgp
