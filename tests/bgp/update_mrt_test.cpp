#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/update.hpp"
#include "netbase/rng.hpp"

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

// --- the record parser against a reference grammar ------------------------

/// The field-splitting line grammar the record parser replaced, kept as
/// the oracle: five '|'-separated fields, std::from_chars numbers,
/// netbase::Prefix::Parse and AsPath::Parse.
std::optional<BgpUpdate> ReferenceParseLine(std::string_view line) {
  std::string_view fields[5];
  std::size_t start = 0;
  for (int i = 0; i < 5; ++i) {
    if (i == 4) {
      fields[i] = line.substr(start);
      break;
    }
    const auto bar = line.find('|', start);
    if (bar == std::string_view::npos) return std::nullopt;
    fields[i] = line.substr(start, bar - start);
    start = bar + 1;
  }
  BgpUpdate update;
  {
    auto [ptr, ec] = std::from_chars(fields[0].data(), fields[0].data() + fields[0].size(),
                                     update.time.seconds);
    if (ec != std::errc{} || ptr != fields[0].data() + fields[0].size()) return std::nullopt;
    if (update.time.seconds < 0) return std::nullopt;
  }
  {
    auto [ptr, ec] = std::from_chars(fields[1].data(), fields[1].data() + fields[1].size(),
                                     update.session);
    if (ec != std::errc{} || ptr != fields[1].data() + fields[1].size()) return std::nullopt;
  }
  if (fields[2] == "A") {
    update.type = UpdateType::kAnnounce;
  } else if (fields[2] == "W") {
    update.type = UpdateType::kWithdraw;
  } else {
    return std::nullopt;
  }
  if (fields[3].empty()) return std::nullopt;
  auto prefix = netbase::Prefix::Parse(fields[3]);
  if (!prefix) return std::nullopt;
  update.prefix = *prefix;
  if (update.type == UpdateType::kAnnounce) {
    auto path = AsPath::Parse(fields[4]);
    if (!path || path->empty()) return std::nullopt;
    update.path = std::move(*path);
  } else if (!fields[4].empty()) {
    return std::nullopt;
  }
  return update;
}

/// The five '|'-separated fields as the reference splits them; nullopt
/// with fewer than four bars.
std::optional<std::vector<std::string_view>> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const auto bar = line.find('|', start);
    if (bar == std::string_view::npos) return std::nullopt;
    fields.push_back(line.substr(start, bar - start));
    start = bar + 1;
  }
  fields.push_back(line.substr(start));
  return fields;
}

bool AllDigits(std::string_view text) {
  return !text.empty() && std::all_of(text.begin(), text.end(),
                                      [](char c) { return c >= '0' && c <= '9'; });
}

/// True iff the digit string denotes a value that overflows T.
template <typename T>
bool Overflows(std::string_view digits) {
  T value{};
  return std::from_chars(digits.data(), digits.data() + digits.size(), value).ec ==
         std::errc::result_out_of_range;
}

/// The edge cases the mutated corpus must reach, each counted only on a
/// line whose other four fields are its unmutated base's, so the case
/// alone decides the verdict.
struct GrammarCases {
  std::size_t negative_time = 0;
  std::size_t time_over_int64 = 0;
  std::size_t minus_zero_time = 0;
  std::size_t session_over_uint32 = 0;
  std::size_t bad_type = 0;
  std::size_t leading_zero_octet = 0;
  std::size_t host_bits_set = 0;
  std::size_t length_over_32 = 0;
  std::size_t empty_announced_path = 0;
  std::size_t withdrawal_with_path = 0;
  std::size_t as_over_uint32 = 0;
  std::size_t stray_bar_in_path = 0;
};

void Classify(std::string_view base, std::string_view line, bool accepted,
              GrammarCases& cases) {
  const auto want = SplitFields(base);
  const auto got = SplitFields(line);
  if (!want || !got) return;
  int changed = -1;
  for (int i = 0; i < 5; ++i) {
    if ((*want)[i] == (*got)[i]) continue;
    if (changed >= 0) return;  // more than one field mutated
    changed = i;
  }
  const std::vector<std::string_view>& f = *got;
  switch (changed) {
    case 0:
      if (f[0].size() > 1 && f[0][0] == '-' && AllDigits(f[0].substr(1))) {
        const bool zero = f[0].find_first_not_of("0", 1) == std::string_view::npos;
        if (zero && accepted) ++cases.minus_zero_time;
        if (!zero) ++cases.negative_time;
      } else if (AllDigits(f[0]) && Overflows<std::int64_t>(f[0])) {
        ++cases.time_over_int64;
      }
      break;
    case 1:
      if (AllDigits(f[1]) && Overflows<std::uint32_t>(f[1])) ++cases.session_over_uint32;
      break;
    case 2:
      if (f[2] != "A" && f[2] != "W") ++cases.bad_type;
      break;
    case 3: {
      const auto slash = f[3].find('/');
      if (slash == std::string_view::npos) break;
      const std::string_view address = f[3].substr(0, slash);
      const std::string_view length = f[3].substr(slash + 1);
      for (std::size_t pos = 0; pos <= address.size();) {
        const std::size_t dot = std::min(address.find('.', pos), address.size());
        const std::string_view octet = address.substr(pos, dot - pos);
        if (AllDigits(octet) && octet.size() > 1 && octet[0] == '0') {
          ++cases.leading_zero_octet;
          break;
        }
        pos = dot + 1;
      }
      int bits = -1;
      if (AllDigits(length) &&
          std::from_chars(length.data(), length.data() + length.size(), bits).ec ==
              std::errc{}) {
        if (bits > 32) ++cases.length_over_32;
        const auto parsed = netbase::Ipv4Address::Parse(address);
        if (parsed && bits <= 32 &&
            (parsed->value() & ~netbase::Prefix::MaskFor(bits)) != 0) {
          ++cases.host_bits_set;
        }
      }
      break;
    }
    case 4:
      if (f[4].find('|') != std::string_view::npos) ++cases.stray_bar_in_path;
      if (f[2] == "W" && !f[4].empty()) ++cases.withdrawal_with_path;
      if (f[2] == "A" && f[4].find_first_not_of(' ') == std::string_view::npos) {
        ++cases.empty_announced_path;
      }
      for (std::size_t pos = 0; pos < f[4].size();) {
        const std::size_t begin = f[4].find_first_of("0123456789", pos);
        if (begin == std::string_view::npos) break;
        std::size_t end = f[4].find_first_not_of("0123456789", begin);
        if (end == std::string_view::npos) end = f[4].size();
        if (Overflows<std::uint32_t>(f[4].substr(begin, end - begin))) {
          ++cases.as_over_uint32;
          break;
        }
        pos = end;
      }
      break;
    default:
      break;
  }
}

/// Real generated lines: updates drawn like a collector month's and
/// serialized with ToLine.
std::vector<std::string> GeneratedLines(netbase::Rng& rng, std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    BgpUpdate update;
    update.time = SimTime{1398902400 + static_cast<std::int64_t>(rng.UniformInt(0, 2592000))};
    update.session = static_cast<SessionId>(rng.UniformInt(0, 79));
    const int length = static_cast<int>(rng.UniformInt(8, 24));
    update.prefix = Prefix(netbase::Ipv4Address(static_cast<std::uint32_t>(rng()) &
                                                Prefix::MaskFor(length)),
                           length);
    if (rng.Bernoulli(0.15)) {
      update.type = UpdateType::kWithdraw;
    } else {
      std::vector<AsNumber> hops(rng.UniformInt(1, 7));
      for (AsNumber& as : hops) as = static_cast<AsNumber>(rng.UniformInt(1, 400000));
      update.path = AsPath(std::move(hops));
    }
    lines.push_back(mrt::ToLine(update));
  }
  return lines;
}

/// One token of the mutation alphabet: a digit, a long run of 9s, or one
/// of | / . space - + A W tab x.
std::string MutationToken(netbase::Rng& rng) {
  static constexpr std::string_view kSingles = "0123456789|/. -+AW\tx";
  const std::uint64_t pick = rng.UniformInt(0, kSingles.size());
  if (pick == kSingles.size()) return std::string(rng.UniformInt(10, 22), '9');
  return std::string(1, kSingles[pick]);
}

/// One to three substitutions, insertions or deletions; a substitution
/// replaces one character or, a quarter of the time, a whole field (with
/// up to three tokens, led by a sign a quarter of the time).
std::string Mutate(std::string line, netbase::Rng& rng) {
  const std::uint64_t ops = rng.Bernoulli(0.7) ? 1 : rng.UniformInt(2, 3);
  for (std::uint64_t op = 0; op < ops && !line.empty(); ++op) {
    const std::size_t pos = rng.UniformInt(0, line.size() - 1);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        line.replace(pos, 1, MutationToken(rng));
        break;
      case 1:
        line.insert(rng.UniformInt(0, line.size()), MutationToken(rng));
        break;
      case 2:
        line.erase(pos, rng.UniformInt(1, 3));
        break;
      default: {
        const auto fields = SplitFields(line);
        if (!fields) break;
        const std::string_view field = (*fields)[rng.UniformInt(0, 4)];
        std::string replacement = rng.Bernoulli(0.25) ? "-" : "";
        for (std::uint64_t t = rng.UniformInt(0, 3); t > 0; --t) {
          replacement += MutationToken(rng);
        }
        line.replace(static_cast<std::size_t>(field.data() - line.data()), field.size(),
                     replacement);
        break;
      }
    }
  }
  return line;
}

/// Drains a ParseStream over `text`, returning its records (strict mode
/// rethrows) and filling `stats`.
std::vector<feed::UpdateRec> RecordParse(const std::shared_ptr<feed::AsPathTable>& table,
                                         std::string_view text, bool lenient,
                                         std::size_t chunk_bytes, mrt::ParseStats& stats) {
  mrt::ParseStreamOptions options;
  options.lenient = lenient;
  options.chunk_bytes = chunk_bytes;
  options.stats = std::make_shared<mrt::ParseStats>();
  feed::UpdateStream stream = mrt::ParseStream(table, text, options);
  std::vector<feed::UpdateRec> records = feed::Drain(stream);
  stats = *options.stats;
  return records;
}

void ExpectSameStats(const mrt::ParseStats& got, const mrt::ParseStats& want,
                     std::size_t chunk) {
  EXPECT_EQ(got.total_lines, want.total_lines) << "chunk " << chunk;
  EXPECT_EQ(got.parsed, want.parsed) << "chunk " << chunk;
  EXPECT_EQ(got.bad_lines, want.bad_lines) << "chunk " << chunk;
  EXPECT_EQ(got.first_errors, want.first_errors) << "chunk " << chunk;
}

TEST(Mrt, RecordParserMatchesReferenceGrammar) {
  netbase::Rng rng(20140601);
  const std::vector<std::string> base = GeneratedLines(rng, 60000);
  std::vector<std::string> lines;
  GrammarCases cases;
  std::size_t accepted = 0;
  for (const std::string& line : base) {
    const std::string mutated = rng.Bernoulli(0.85) ? Mutate(line, rng) : line;
    const std::optional<BgpUpdate> want = ReferenceParseLine(mutated);
    Classify(line, mutated, want.has_value(), cases);
    accepted += want.has_value() ? 1 : 0;
    // The materialized form: accept/reject, fields and hops.
    EXPECT_EQ(mrt::ParseLine(mutated), want) << mutated;
    lines.push_back(mutated);
  }
  EXPECT_GT(cases.negative_time, 0u);
  EXPECT_GT(cases.time_over_int64, 0u);
  EXPECT_GT(cases.minus_zero_time, 0u);
  EXPECT_GT(cases.session_over_uint32, 0u);
  EXPECT_GT(cases.bad_type, 0u);
  EXPECT_GT(cases.leading_zero_octet, 0u);
  EXPECT_GT(cases.host_bits_set, 0u);
  EXPECT_GT(cases.length_over_32, 0u);
  EXPECT_GT(cases.empty_announced_path, 0u);
  EXPECT_GT(cases.withdrawal_with_path, 0u);
  EXPECT_GT(cases.as_over_uint32, 0u);
  EXPECT_GT(cases.stray_bar_in_path, 0u);
  EXPECT_GT(accepted, lines.size() / 10);
  EXPECT_LT(accepted, lines.size() / 2);

  // The record form, line by line: a lenient parse of the whole text keeps
  // exactly the reference's accepted lines, with equal fields and each
  // path interned as the reference's hops.
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  auto table = std::make_shared<feed::AsPathTable>();
  mrt::ParseStats stats;
  const std::vector<feed::UpdateRec> records =
      RecordParse(table, text, /*lenient=*/true, 64 * 1024, stats);
  ASSERT_EQ(records.size(), accepted);
  std::size_t next = 0;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::optional<BgpUpdate> want = ReferenceParseLine(lines[i]);
    if (!want) {
      if (bad++ < 8) {
        ASSERT_LT(bad - 1, stats.first_errors.size());
        EXPECT_EQ(stats.first_errors[bad - 1].rfind("line " + std::to_string(i + 1) + ": '", 0),
                  0u)
            << stats.first_errors[bad - 1];
      }
      continue;
    }
    const feed::UpdateRec& rec = records[next++];
    EXPECT_EQ(feed::ToBgpUpdate(rec, *table), *want) << lines[i];
    bool hit = false;
    EXPECT_EQ(table->Intern(want->path, &hit), rec.path) << lines[i];
    EXPECT_TRUE(hit) << lines[i];
  }
  EXPECT_EQ(stats.total_lines, lines.size());
  EXPECT_EQ(stats.parsed, accepted);
  EXPECT_EQ(stats.bad_lines, lines.size() - accepted);

  // Chunked parses equal a whole-text parse in both modes: records, stats,
  // recorded errors and (strict) the first bad line's number. Comments and
  // blank lines shift the numbering; the strict text leads with clean
  // lines so its first error falls mid-dump.
  std::string lenient_text;
  std::string strict_text;
  for (std::size_t i = 0; i < 300; ++i) strict_text += base[i] + '\n';
  for (std::size_t i = 0; i < 4000; ++i) {
    if (i % 50 == 0) lenient_text += "# comment\n";
    if (i % 70 == 0) lenient_text += '\n';
    lenient_text += lines[i] + '\n';
    strict_text += lines[i] + '\n';
  }
  mrt::StreamParser whole({.lenient = true});
  std::vector<BgpUpdate> whole_updates;
  whole.Feed(lenient_text, whole_updates);
  whole.Finish(whole_updates);
  std::string strict_error;
  try {
    (void)mrt::ParseText(strict_text);
  } catch (const std::runtime_error& error) {
    strict_error = error.what();
  }
  ASSERT_FALSE(strict_error.empty());
  std::size_t first_bad = 0;
  while (ReferenceParseLine(lines[first_bad])) ++first_bad;
  EXPECT_NE(strict_error.find("line " + std::to_string(300 + first_bad + 1) + ": "),
            std::string::npos)
      << strict_error;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64 * 1024}}) {
    auto chunk_table = std::make_shared<feed::AsPathTable>();
    const std::vector<feed::UpdateRec> chunked =
        RecordParse(chunk_table, lenient_text, /*lenient=*/true, chunk, stats);
    ExpectSameStats(stats, whole.stats(), chunk);
    ASSERT_EQ(chunked.size(), whole_updates.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < chunked.size(); ++i) {
      ASSERT_EQ(feed::ToBgpUpdate(chunked[i], *chunk_table), whole_updates[i])
          << "chunk " << chunk << " record " << i;
    }
    try {
      (void)RecordParse(std::make_shared<feed::AsPathTable>(), strict_text,
                        /*lenient=*/false, chunk, stats);
      ADD_FAILURE() << "strict parse accepted a bad line at chunk " << chunk;
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), strict_error) << "chunk " << chunk;
    }
  }
}

}  // namespace
}  // namespace quicksand::bgp
